#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the aesdfa attack loop.

    python3 bench/run.py --workload attack-static --seed 1 --seconds 20 --trace 0

One client runs one job after another, in this process, for `--seconds`
of wall time; the benchmark never starts more than one child process at a
time. Workloads (see workloads.py): attack-static, sweep-attack, bust-16.

`--trace 0` reports the end-to-end metrics: job_p50_s, job_tail_s,
jobs_per_s, cli_s, setup_s and peak_rss_mb, plus fail_frac on its own
line. `--trace 1` wraps every public aesdfa function in a span recorder
and reports the per-layer metrics, the tracing overhead and the per-call
baseline rows; it also re-runs the first COUNT_JOBS jobs in a second
process and checks that every count metric repeats exactly.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The full result, with machine and library versions, goes to
.bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json, and a traced run's
spans to .bench_out/spans-<workload>.csv.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SpanRecorder, SpanStats, install, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLI_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CLI_TIMEOUT_S = 60
# a run that has spent this long stops starting new rounds, so that even a
# badly slowed program ends within the benchmark's 180 s limit
RUN_BUDGET_S = 100

# counts are taken over this fixed prefix of jobs, so they depend on the
# seed alone and never on how many jobs fit into the run
COUNT_JOBS = 8
# job_tail_s: a 20 s run at the seed commit holds 50-110 jobs, so p75
# keeps at least 10 jobs beyond it with room for a slower machine; fixed,
# so that runs compare
TAIL_PCT = 75
# the untraced run alternates this many times between cold starts, CLI
# runs and stretches of the job loop
ROUNDS = 8
TRACED_CLI_REPEATS = 3
IMPORTTIME_REPEATS = 3

# the six AES-core functions the per-layer table follows
AES_FUNCTIONS = (
    "expand_key",
    "encrypt_block",
    "encrypt_trace",
    "decrypt_trace",
    "peel_final_round",
    "invert_key_schedule",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["attack-static", "sweep-attack", "bust-16"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--counts-only",
        action="store_true",
        help="run the first COUNT_JOBS jobs traced and print their counts (the determinism check's second run)",
    )
    return parser.parse_args(argv)


def load_program() -> None:
    """Import aesdfa from this checkout's src/, and nowhere else."""
    if not (SRC / "aesdfa" / "__init__.py").is_file():
        sys.exit(f"error: no aesdfa package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import aesdfa

    if Path(aesdfa.__file__).resolve().parent != SRC / "aesdfa":
        sys.exit(f"error: imported aesdfa from {aesdfa.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# subprocess measurements


def run_python(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """(wall seconds, finished process) of a fresh interpreter on this checkout."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=CLI_ENV, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    return time.perf_counter() - started, proc


def run_cli(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    return run_python(["-m", "aesdfa.cli", *argv])


def cold_start(subcommand: str) -> float:
    """Wall time of a fresh `python -m aesdfa.cli <subcommand> --help`."""
    elapsed, proc = run_cli([subcommand, "--help"])
    if proc.returncode != 0 or "Usage:" not in proc.stdout:
        raise RuntimeError(f"`aesdfa {subcommand} --help` failed: {proc.stderr.strip()}")
    return elapsed


def run_cli_steps(steps, rep: int, failures: list) -> float:
    """Run one repetition of a workload's CLI commands, one at a time, and
    check each; returns their summed wall time."""
    total = 0.0
    for argv, check in steps:
        try:
            elapsed, proc = run_cli(argv)
        except subprocess.TimeoutExpired:
            failures.append({"cli": argv[0], "repeat": rep, "reason": "timed out", "wrong": True})
            continue
        total += elapsed
        failure = check(proc)
        if failure:
            failures.append({"cli": argv[0], "repeat": rep, "reason": failure.reason, "wrong": failure.wrong})
    return total


def measure_importtime() -> dict:
    """Cumulative import seconds of aesdfa.cli and numpy under -X importtime."""
    found = {"aesdfa.cli": [], "numpy": []}
    for _ in range(IMPORTTIME_REPEATS):
        _, proc = run_python(["-X", "importtime", "-c", "import aesdfa.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"importing aesdfa.cli failed: {proc.stderr.strip()[-500:]}")
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or line.count("|") != 2:
                continue
            _, cumulative, package = line[len("import time:"):].split("|")
            if package.strip() in found:
                found[package.strip()].append(int(cumulative) / 1e6)
    # numpy reads 0 once `import aesdfa.cli` no longer imports it
    return {name: statistics.median(values) if values else 0.0 for name, values in found.items()}


# ---------------------------------------------------------------------------
# the closed loop


def run_job(wl, inp, stage_clock=None):
    """(seconds, output or None, Failure or None) of one job."""
    from workloads import Failure

    started = time.perf_counter()
    try:
        out = wl.run(inp, progress=stage_clock)
    except Exception as err:  # any exception is a failed job, recorded and counted
        return time.perf_counter() - started, None, Failure(f"{type(err).__name__}: {err}", True)
    elapsed = time.perf_counter() - started
    if stage_clock is not None:
        stage_clock("done")
    return elapsed, out, wl.check(inp, out)


def closed_loop(wl, seed: int, seconds: float, min_jobs: int, jobs: list, recorder=None) -> None:
    """Append jobs len(jobs), len(jobs) + 1, ... until `seconds` of wall time
    passed and at least `min_jobs` ran. Input generation and output checks
    stay outside the job time."""
    from workloads import StageClock

    started = time.perf_counter()
    first = len(jobs)
    while len(jobs) - first < min_jobs or time.perf_counter() - started < seconds:
        index = len(jobs)
        if recorder is None:
            inp = wl.make_input(seed, index)
            elapsed, out, failure = run_job(wl, inp)
            stages = None
        else:
            inp = recorder.run("bench.input", index, wl.make_input, seed, index)
            clock = StageClock() if wl.reports_stages else None
            elapsed, out, failure = recorder.run("bench.job", index, run_job, wl, inp, clock)
            stages = clock.stages() if clock is not None and out is not None else None
        jobs.append(
            {
                "index": index,
                "seconds": elapsed,
                "failure": failure,
                "counts": wl.counts(out) if out is not None else {},
                "stages": stages,
                "input": inp,
            }
        )


def tail(times: list[float], pct: int) -> tuple[float, int]:
    """(pct-th percentile, samples strictly beyond it)."""
    value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return value, sum(1 for t in times if t > value)


def failure_rows(jobs, seed):
    return [
        {"seed": seed, "job": job["index"], "reason": job["failure"].reason, "wrong": job["failure"].wrong}
        for job in jobs
        if job["failure"]
    ]


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def plain_run(wl, args) -> dict:
    _, steps = wl.cli_plan(OUT)
    cold_start(wl.setup_subcommand)  # warm-up: may compile bytecode
    run_job(wl, wl.make_input(args.seed, -1))  # warm-up: first-use costs stay out of the loop

    # the job loop, the CLI runs and the cold starts take turns, so each
    # sees the same stretch of a shared machine's varying speed
    setup, cli_times, jobs, cli_failures = [], [], [], []
    started = time.perf_counter()
    for rnd in range(ROUNDS):
        if rnd >= 2 and time.perf_counter() - started > RUN_BUDGET_S:
            print(f"warning: stopped after {rnd} of {ROUNDS} rounds, over the run budget", file=sys.stderr)
            break
        setup.append(cold_start(wl.setup_subcommand))
        cli_times.append(run_cli_steps(steps, rnd, cli_failures))
        closed_loop(wl, args.seed, args.seconds / ROUNDS, 1, jobs)

    times = [job["seconds"] for job in jobs]
    tail_s, beyond = tail(times, TAIL_PCT)
    failures = failure_rows(jobs, args.seed) + cli_failures
    attempted = len(jobs) + len(cli_times) * len(steps)
    commands = " ; ".join("aesdfa " + argv[0] for argv, _ in steps)
    metrics = {
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (len(jobs) / sum(times), "1/s"),
        "cli_s": (statistics.median(cli_times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "job_p50_s": f"median of {len(jobs)} jobs",
        "job_tail_s": f"p{TAIL_PCT}, {beyond} jobs beyond it",
        "jobs_per_s": "jobs / summed job time, one client",
        "cli_s": f"median of {len(cli_times)} repeats of: {commands}",
        "setup_s": f"median of {len(setup)} cold `aesdfa {wl.setup_subcommand} --help`",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    if beyond < 10:
        print(f"warning: only {beyond} jobs beyond p{TAIL_PCT}; the tail needs at least 10", file=sys.stderr)
    return {
        "metrics": metrics,
        "notes": notes,
        "failures": failures,
        "attempted": attempted,
        "extra": {
            "fail_frac": len(failures) / attempted,
            "jobs": len(jobs),
            "tail_percentile": TAIL_PCT,
            "jobs_beyond_tail": beyond,
            "cli_times_s": cli_times,
            "setup_times_s": setup,
        },
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced_jobs(wl, seed: int, seconds: float, paired: bool):
    """Traced closed loop: jobs 0..COUNT_JOBS-1, then more until `seconds`
    passed. With `paired`, each of the first jobs is rerun untraced right
    after its traced run; returns (recorder, jobs, span names, untraced
    job seconds)."""
    import aesdfa

    recorder = SpanRecorder()
    observers = {
        # a candidate enumeration's input: reference bytes, faulty bytes, group
        "dfa.column_candidates": lambda args, result: (tuple(args[0]), tuple(args[1]), args[2].index),
        "localizer.localize": lambda args, result: True if result is not None and result.ambiguous else None,
    }
    names, patches = instrument(recorder, aesdfa, observers)
    jobs: list = []
    untraced = []
    started = time.perf_counter()
    install(patches, True)
    try:
        for _ in range(COUNT_JOBS):
            closed_loop(wl, seed, 0.0, 1, jobs, recorder)
            if paired:
                install(patches, False)
                untraced.append(run_job(wl, jobs[-1]["input"])[0])
                install(patches, True)
        closed_loop(wl, seed, seconds - (time.perf_counter() - started), 0, jobs, recorder)
    finally:
        install(patches, False)
    return recorder, jobs, names, untraced


def prefix_counts(recorder, jobs) -> dict:
    """Integer totals over the first COUNT_JOBS jobs; must repeat exactly."""
    stats = SpanStats(recorder.spans, "bench.job", set(range(COUNT_JOBS)))
    counts = {f"{name}.calls": n for name, n in sorted(stats.calls.items())}
    counts["dfa.column_candidates.distinct"] = stats.distinct_tags("dfa.column_candidates")
    counts["dfa.last_round_key.inconsistent"] = stats.errors[("dfa.last_round_key", "InconsistentPairError")]
    counts["localizer.ambiguous"] = len(stats.tags.get("localizer.localize", ()))
    for job in jobs[:COUNT_JOBS]:
        for name, value in job["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return counts


def layer_metrics(recorder, jobs, counts, untraced: list[float]) -> tuple[dict, dict]:
    every = set(range(len(jobs)))
    timed = SpanStats(recorder.spans, "bench.job", every)
    built = SpanStats(recorder.spans, "bench.input", every)
    m: dict = {}

    def per_job(name):
        return counts.get(name, 0) / COUNT_JOBS

    def add_calls(fn):
        m[f"{fn}.calls"] = (per_job(f"{fn}.calls"), "count")

    def add_self(fn, stats=timed):
        m[f"{fn}.self_s"] = (stats.per_job(stats.self_s.get(fn, 0.0)), "s")

    def ratio(num, den):
        return num / den if den else 0.0

    for fn in ("dfa.column_candidates", "dfa.last_round_key", "dfa.penultimate_round_key"):
        add_calls(fn)
        add_self(fn)
    m["dfa.column_candidates.distinct"] = (per_job("dfa.column_candidates.distinct"), "count")
    m["dfa.column_candidates.useful_ratio"] = (
        ratio(counts.get("dfa.column_candidates.distinct", 0), counts.get("dfa.column_candidates.calls", 0)),
        "ratio",
    )
    m["dfa.last_round_key.inconsistent"] = (per_job("dfa.last_round_key.inconsistent"), "count")

    add_self("orchestrator.recover_key")
    m["orchestrator.groupings.last_round"] = (per_job("orchestrator.groupings.last_round"), "count")
    m["orchestrator.groupings.penultimate"] = (per_job("orchestrator.groupings.penultimate"), "count")
    add_calls("orchestrator.verify_key")
    m["orchestrator.verified_ratio"] = (
        ratio(counts.get("orchestrator.groupings_succeeded", 0), counts.get("orchestrator.verify_key.calls", 0)),
        "ratio",
    )

    for fn in AES_FUNCTIONS:
        add_calls(f"aes.{fn}")
        add_self(f"aes.{fn}")
    add_calls("faults.encrypt_with_faults")
    add_self("faults.encrypt_with_faults")
    add_self("campaign.generate_campaign")
    add_calls("localizer.localize")
    add_self("localizer.localize")
    m["localizer.ambiguous"] = (per_job("localizer.ambiguous"), "count")
    add_self("analyze.build_profile")
    add_self("analyze.recommend_offsets")

    add_calls("buster.bust")
    add_self("buster.bust")
    m["buster.aes_ops"] = (per_job("buster.aes_ops"), "count")
    staged = [(job["stages"], job["input"].art) for job in jobs if job["stages"]]
    data_s = sum(stages[0] for stages, _ in staged)
    slave_s = sum(stages[1] for stages, _ in staged)
    data_blocks = sum(len(art.stage_cts) << art.chunk_bits for _, art in staged)
    slave_keys = sum(1 << art.chunk_bits for _, art in staged)
    m["buster.data_stage_s"] = (ratio(data_s, len(staged)), "s")
    m["buster.slave_stage_s"] = (ratio(slave_s, len(staged)), "s")
    m["buster.data_stage.blocks_per_s"] = (ratio(data_blocks, data_s), "1/s")
    m["buster.slave_stage.keys_per_s"] = (ratio(slave_keys, slave_s), "1/s")
    m["buster.slave_share"] = (ratio(slave_s, timed.total_s.get("buster.bust", 0.0)), "ratio")
    add_self("engine.run_borrow_chain", built)

    # the same first jobs, each timed traced and then untraced
    traced = [job["seconds"] for job in jobs[:COUNT_JOBS]]
    paired = [t / u for t, u in zip(traced, untraced)]
    m["trace.job_p50_s"] = (statistics.median(traced), "s")
    m["trace.untraced_job_p50_s"] = (statistics.median(untraced), "s")
    m["trace.overhead_ratio"] = (statistics.median(paired), "ratio")

    baseline = {
        "expand_key, one call (ms)": timed.per_call_ms("aes.expand_key"),
        "encrypt_block, one call (ms)": timed.per_call_ms("aes.encrypt_block"),
        "localize, one record (ms)": timed.per_call_ms("localizer.localize"),
        "column_candidates, one group (ms)": timed.per_call_ms("dfa.column_candidates"),
        "last_round_key, one pair solve (ms)": timed.per_call_ms("dfa.last_round_key"),
        "bust data stage, per set (ms)": 1e3 * data_s / len(staged) if staged else None,
        "bust slave stage, per set (ms)": 1e3 * slave_s / len(staged) if staged else None,
    }
    return m, baseline


def traced_run(wl, args) -> dict:
    inputs, steps = wl.cli_plan(OUT)
    cold_start(wl.setup_subcommand)  # warm-up: may compile bytecode
    cli_failures: list = []
    cli_times, in_process = [], []
    for rep in range(TRACED_CLI_REPEATS):
        cli_times.append(run_cli_steps(steps, rep, cli_failures))
        started = time.perf_counter()
        for inp in inputs:
            wl.run(inp)
        in_process.append(time.perf_counter() - started)
    imports = measure_importtime()

    run_job(wl, wl.make_input(args.seed, -1))  # warm-up, as in the untraced run
    recorder, jobs, names, untraced = traced_jobs(wl, args.seed, args.seconds, paired=True)
    counts = prefix_counts(recorder, jobs)
    metrics, baseline = layer_metrics(recorder, jobs, counts, untraced)
    metrics["cli.import_s"] = (imports["aesdfa.cli"], "s")
    metrics["cli.numpy_import_s"] = (imports["numpy"], "s")
    metrics["cli.overhead_s"] = (statistics.median(cli_times) - statistics.median(in_process), "s")

    # the determinism check: a second process runs the same seed's first jobs
    _, child = run_python([__file__, "--workload", wl.name, "--seed", str(args.seed), "--counts-only"])
    if child.returncode != 0:
        raise RuntimeError(f"determinism check run failed: {child.stderr.strip()[-500:]}")
    again = json.loads(child.stdout.splitlines()[-1])
    defects = [
        f"{name}: {counts.get(name)} then {again.get(name)}"
        for name in sorted(set(counts) | set(again))
        if counts.get(name) != again.get(name)
    ]

    recorder.write_csv(OUT / f"spans-{wl.name}.csv")
    failures = failure_rows(jobs, args.seed) + cli_failures
    attempted = len(jobs) + TRACED_CLI_REPEATS * len(steps)
    return {
        "metrics": metrics,
        "notes": {
            "counts": f"per job, over jobs 0..{COUNT_JOBS - 1} of the seed",
            "self_s": f"per job, over all {len(jobs)} traced jobs",
            "trace": f"jobs 0..{COUNT_JOBS - 1}, each run untraced right after its traced run; "
            "overhead_ratio is the median of traced / untraced",
        },
        "failures": failures,
        "attempted": attempted,
        "defects": defects,
        "extra": {
            "fail_frac": len(failures) / attempted,
            "jobs": len(jobs),
            "spans": len(recorder.spans),
            "traced_functions": names,
            "counts_first_jobs": counts,
            "baseline_per_call": baseline,
            "cli_times_s": cli_times,
            "in_process_cli_job_s": in_process,
            "scaling": "bust-16 runs at workers=1; scaling across 2 processes is not measured on a shared 2-core machine",
        },
    }


def counts_only(wl, seed: int) -> None:
    recorder, jobs, _, _ = traced_jobs(wl, seed, 0.0, paired=False)
    print(json.dumps(prefix_counts(recorder, jobs), sort_keys=True))


# ---------------------------------------------------------------------------
# provenance


def git_commit() -> str | None:
    """HEAD's commit read straight from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def machine_info(seed: int) -> dict:
    from importlib.metadata import version

    from cryptography.hazmat.backends.openssl.backend import backend

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "cryptography": version("cryptography"),
        "openssl": backend.openssl_version_text(),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.counts_only:
        counts_only(wl, args.seed)
        return 0

    result = traced_run(wl, args) if args.trace else plain_run(wl, args)
    defects = result.get("defects", [])
    wrong = [f for f in result["failures"] if f["wrong"]]
    correct = not wrong and not defects

    print(f"workload {wl.name}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}  ({wl.why})")
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:38s} {value:14.6g} {unit:6s} {note}")
    for name, note in result["notes"].items():
        if name not in result["metrics"]:
            print(f"  note on {name}: {note}")
    print(f"  {'fail_frac':38s} {result['extra']['fail_frac']:14.6g} {'ratio':6s} "
          f"{len(result['failures'])} of {result['attempted']} attempted")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for defect in defects:
        print(f"  DEFECT count differs between two runs of seed {args.seed}: {defect}")
    for row, value in result["extra"].get("baseline_per_call", {}).items():
        print(f"  baseline {row:40s} {'-' if value is None else f'{value:.4g}'}")

    record = {
        "workload": wl.name,
        "why": wl.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "correct": correct,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()},
        "notes": result["notes"],
        "failures": result["failures"],
        "defects": defects,
        **result["extra"],
    }
    (OUT / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": len(result["failures"]),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
