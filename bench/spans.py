"""In-memory span recorder for the traced benchmark run.

Every public function of every `aesdfa` module is wrapped once, and the
wrapper is installed under each module-level name that refers to it, so a
call is recorded whichever module made it (`orchestrator.last_round_key`
and `dfa.last_round_key` are the same span, "dfa.last_round_key"). Spans
hold a name, start, end, parent and job id; they stay in memory until the
run ends, and self time is the span's duration minus its children's.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import pkgutil
from collections import defaultdict
from time import perf_counter

# Byte-level helpers run thousands of times per job for well under a
# microsecond each; a span would cost more than the work it measures, so
# their time stays in the caller's self time.
LEAF_HELPERS = frozenset(
    {"xor_bytes", "flat_index", "block_from_hex", "block_to_hex", "gf_mul", "quantize_offset"}
)
# recover_key dispatches to these two; left unwrapped, recover_key's self
# time is the whole grouping search, whichever entry point runs it.
DISPATCH_ONLY = frozenset({"attack_pairwise", "attack_second_order"})


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "root", "error", "tag")

    def __init__(self, name, parent, job, root):
        self.name = name
        self.parent = parent
        self.job = job
        self.root = root
        self.start = self.end = 0.0
        self.error = None
        self.tag = None


class SpanRecorder:
    """Collects nested spans for one process; not thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = -1

    def _open(self, name: str) -> Span:
        if self._stack:
            parent = self._stack[-1]
            root = self.spans[self._stack[0]].name
        else:
            parent, root = -1, name
        span = Span(name, parent, self.job, root)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def run(self, name: str, job: int, fn, *args, **kwargs):
        """Call fn inside a root span `name` attributed to `job`."""
        self.job = job
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, name: str, fn, observe=None):
        """Return fn recording a span per call; observe(args, result) tags it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                self._close(span)
            if observe is not None:
                span.tag = observe(args, result)
            return result

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fp:
            out = csv.writer(fp)
            out.writerow(["id", "parent", "job", "root", "name", "start_s", "end_s", "error"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.parent, s.job, s.root, s.name, f"{s.start:.9f}", f"{s.end:.9f}", s.error or ""])


def instrument(recorder: SpanRecorder, package, observers: dict):
    """Wrap the package's public functions in every module that holds them.

    Returns (sorted span names, [(module, attribute, original, wrapper)]);
    nothing is installed until `install` is called. `observers` maps a span
    name to a tagging callback (see SpanRecorder.wrap).
    """
    modules = [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if attr in LEAF_HELPERS or attr in DISPATCH_ONLY:
                continue
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrappers[fn] = (name, recorder.wrap(name, fn, observers.get(name)))
    patches = [
        (mod, attr, value, wrappers[value][1])
        for mod in modules
        for attr, value in vars(mod).items()
        if inspect.isfunction(value) and value in wrappers
    ]
    return sorted(name for name, _ in wrappers.values()), patches


def install(patches, traced: bool) -> None:
    """Put the wrappers (traced) or the original functions in place."""
    for mod, attr, original, wrapper in patches:
        setattr(mod, attr, wrapper if traced else original)


class SpanStats:
    """Per-name aggregates over the spans under one root, per job."""

    def __init__(self, spans: list[Span], root: str, jobs: set[int]):
        child_time = defaultdict(float)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.tags = defaultdict(list)
        for i, s in enumerate(spans):
            if s.root != root or s.job not in jobs or s.name == root:
                continue
            duration = s.end - s.start
            self.calls[s.name] += 1
            self.total_s[s.name] += duration
            self.self_s[s.name] += duration - child_time[i]
            if s.error:
                self.errors[(s.name, s.error)] += 1
            if s.tag is not None:
                self.tags[s.name].append((s.job, s.tag))
        self.n_jobs = len(jobs)

    def per_job(self, value: float) -> float:
        return value / self.n_jobs if self.n_jobs else 0.0

    def per_call_ms(self, name: str) -> float | None:
        calls = self.calls.get(name, 0)
        return 1e3 * self.total_s[name] / calls if calls else None

    def distinct_tags(self, name: str) -> int:
        """Distinct tags summed over jobs: an input repeated within a job counts once."""
        return len(set(self.tags.get(name, ())))
