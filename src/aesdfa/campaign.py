"""Simulated glitch campaigns and their on-disk record format.

A campaign fixes one key and one plaintext and produces many ciphertexts,
some corrupted. Glitch offsets are opaque labels (quarter-cycle decimals):
each maps to a distribution over which operation the fault enters and how
many bits it flips. An optional static mask is applied identically in every
glitched run, on top of whatever per-sample dynamic fault fires; samples
whose dynamic fault does not fire then carry the static corruption alone.

Records hold their blocks as bytes. Hex appears only in the file format:
records serialize as JSON lines with fields exactly plaintext, ciphertext
(lowercase hex), n, m, slot, faulted, and `read_records` decodes each
block once. The baseline (unglitched) record carries null n and m.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable

from .aes import (
    ROUNDS_BY_KEY_LEN,
    AesOp,
    StepId,
    bytes_from_hex,
    cipher_with_taps,
    encrypt_trace,
    expand_key,
)

__all__ = [
    "MaskRule",
    "OffsetBehavior",
    "CampaignConfig",
    "CiphertextRecord",
    "RecordFormatError",
    "ConfigError",
    "generate_campaign",
    "read_records",
    "records_to_lines",
    "quantize_offset",
    "parse_config",
]


def quantize_offset(n: float) -> float:
    """Snap an offset to quarter-cycle resolution, rejecting anything else."""
    if not math.isfinite(n):
        raise ValueError(f"glitch offsets must be finite, got {n}")
    if abs(n) >= 2.0**52:
        return n  # a whole number, as every float this large is; 4n might overflow
    q = round(n * 4)
    if abs(n * 4 - q) > 1e-9:
        raise ValueError(f"glitch offsets have quarter-cycle resolution, got {n}")
    return q / 4


@dataclass(frozen=True)
class MaskRule:
    """How a dynamic fault mask is drawn: bit count, optionally pinned to one byte."""

    bits: int
    byte: int | None = None

    def __post_init__(self):
        if not 1 <= self.bits <= 128:
            raise ValueError(f"bits must be 1..128, got {self.bits}")
        if self.byte is not None:
            if not 0 <= self.byte <= 15:
                raise ValueError(f"byte must be 0..15, got {self.byte}")
            if self.bits > 8:
                raise ValueError("a single byte holds at most 8 flipped bits")

    def draw(self, rng: random.Random) -> bytes:
        mask = bytearray(16)
        if self.byte is not None:
            for bit in rng.sample(range(8), self.bits):
                mask[self.byte] |= 1 << bit
        else:
            for pos in rng.sample(range(128), self.bits):
                mask[pos // 8] |= 1 << (pos % 8)
        return bytes(mask)


@dataclass(frozen=True)
class OffsetBehavior:
    """Weighted outcomes (step, mask rule) for one glitch offset.

    Weights are positive and finite, and so is their total, which
    `random.choices` needs.
    """

    entries: tuple[tuple[StepId, MaskRule, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("an offset needs at least one (step, mask rule) entry")
        for _, _, weight in self.entries:
            if not (weight > 0 and math.isfinite(weight)):
                raise ValueError(f"entry weights must be positive and finite, got {weight}")
        if not math.isfinite(sum(weight for _, _, weight in self.entries)):
            raise ValueError("entry weights must have a finite total")

    def sampler(self) -> Callable[[random.Random], tuple[StepId, MaskRule]]:
        """A function that draws one (step, mask rule) from an RNG.

        The outcomes and cumulative weights are computed here once, not on
        every draw; the behavior keeps no copy, so a config stays small.
        """
        outcomes = [(s, r) for s, r, _ in self.entries]
        cum_weights = list(itertools.accumulate(w for _, _, w in self.entries))
        return lambda rng: rng.choices(outcomes, cum_weights=cum_weights, k=1)[0]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce one simulated campaign.

    `width` is the glitch width every glitched record carries as `m`. Like
    the offsets it is an opaque label: any finite number, negative or zero
    included; it does not change the simulated faults.
    """

    key: bytes
    plaintext: bytes
    samples: int
    offsets: dict  # quantized offset -> OffsetBehavior
    slot: int = 0
    width: float = 1.0
    fault_rate: float = 1.0
    static_mask: bytes | None = None
    static_step: StepId | None = None
    seed: int = 0

    def __post_init__(self):
        if len(self.key) not in ROUNDS_BY_KEY_LEN:
            raise ValueError(f"key must be 16, 24 or 32 bytes, got {len(self.key)}")
        if len(self.plaintext) != 16:
            raise ValueError("plaintext must be 16 bytes")
        if self.samples < 0:
            raise ValueError("samples must be >= 0")
        if not self.offsets:
            raise ValueError("campaign needs at least one glitch offset")
        for n in self.offsets:
            if quantize_offset(n) != n:
                raise ValueError(f"offset {n} is not in quarter-cycle form")
        if not math.isfinite(self.width):
            raise ValueError(f"width must be finite, got {self.width}")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be within [0, 1]")
        if self.static_mask is not None:
            if len(self.static_mask) != 16:
                raise ValueError("static_mask must be 16 bytes")
            if not any(self.static_mask):
                raise ValueError("static_mask must be nonzero")
        n_rounds = ROUNDS_BY_KEY_LEN[len(self.key)]
        for behavior in self.offsets.values():
            for step, _, _ in behavior.entries:
                step.validate(n_rounds)
        if self.static_step is not None:
            self.static_step.validate(n_rounds)


@dataclass(frozen=True)
class CiphertextRecord:
    """One campaign sample: the 16-byte block pair plus the glitch parameters.

    The blocks are bytes; `to_json` writes them as hex.
    """

    plaintext: bytes
    ciphertext: bytes
    offset_n: float | None
    width_m: float | None
    slot: int
    faulted: bool

    def __post_init__(self):
        for name, block in (("plaintext", self.plaintext), ("ciphertext", self.ciphertext)):
            if len(block) != 16:
                raise ValueError(f"{name} must be 16 bytes, got {len(block)}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "plaintext": self.plaintext.hex(),
                "ciphertext": self.ciphertext.hex(),
                "n": self.offset_n,
                "m": self.width_m,
                "slot": self.slot,
                "faulted": self.faulted,
            },
            separators=(", ", ": "),
            allow_nan=False,
        )


class RecordFormatError(Exception):
    """A campaign file line that does not parse; carries the line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


def generate_campaign(cfg: CampaignConfig) -> list[CiphertextRecord]:
    """Run the simulated campaign; deterministic for a given config.

    The first record is always the unglitched baseline. Every following
    record models one glitched run: an offset is chosen uniformly, the
    offset's distribution picks the target step and mask shape, and the
    dynamic fault fires with probability fault_rate. The static mask, when
    configured, lands in every glitched run at the drawn step (or at its
    own pinned step). The random draw sequence does not depend on the
    static mask, so campaigns differing only in it stay sample-aligned.
    All draws come first; `cipher_with_taps` then runs the tapped ones, packed.
    A record is marked faulted when its ciphertext differs from the clean one.
    """
    draws = _draw_samples(cfg)
    ks = expand_key(cfg.key)
    clean_ct, _ = encrypt_trace(cfg.plaintext, ks)
    faulty = iter(cipher_with_taps(cfg.plaintext, ks, [taps for _, taps in draws if taps]))
    records = [CiphertextRecord(cfg.plaintext, clean_ct, None, None, cfg.slot, False)]
    for offset, taps in draws:
        ct = next(faulty) if taps else clean_ct
        records.append(CiphertextRecord(cfg.plaintext, ct, offset, cfg.width, cfg.slot, ct != clean_ct))
    return records


def _draw_samples(cfg: CampaignConfig) -> list[tuple[float, list[tuple[StepId, bytes]]]]:
    """Each glitched run's offset and taps, (step, 16-byte mask) pairs: the
    static mask's first, then the dynamic fault's if it fires; none for a
    clean run. In the campaign's one seeded draw order."""
    rng = random.Random(cfg.seed)
    offsets = sorted(cfg.offsets)
    samplers = {n: behavior.sampler() for n, behavior in cfg.offsets.items()}
    draws = []
    for _ in range(cfg.samples):
        offset = offsets[0] if len(offsets) == 1 else rng.choice(offsets)
        step, rule = samplers[offset](rng)
        taps = []
        if cfg.static_mask is not None:
            taps.append((cfg.static_step or step, cfg.static_mask))
        if rng.random() < cfg.fault_rate:
            taps.append((step, rule.draw(rng)))
        draws.append((offset, taps))
    return draws


def records_to_lines(records: Iterable[CiphertextRecord]) -> str:
    return "".join(rec.to_json() + "\n" for rec in records)


_RECORD_FIELDS = {"plaintext", "ciphertext", "n", "m", "slot", "faulted"}


def _finite_number(value) -> bool:
    # a JSON boolean parses as a Python int, so bool is ruled out first
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for any float
        return False


def read_records(fp: IO[str]) -> list[CiphertextRecord]:
    """Parse a JSON-lines campaign file, reporting bad lines by number."""
    records = []
    for line_no, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as err:
            raise RecordFormatError(line_no, f"invalid JSON ({err.msg})") from None
        if not isinstance(raw, dict):
            raise RecordFormatError(line_no, "expected a JSON object")
        missing = _RECORD_FIELDS - raw.keys()
        if missing:
            raise RecordFormatError(line_no, f"missing fields: {', '.join(sorted(missing))}")
        for name in ("n", "m"):
            if raw[name] is not None and not _finite_number(raw[name]):
                raise RecordFormatError(line_no, f"{name} must be a finite number or null")
        offset = None
        if raw["n"] is not None:
            try:
                offset = quantize_offset(float(raw["n"]))
            except ValueError:
                raise RecordFormatError(line_no, f"n must be on the quarter-cycle grid, got {raw['n']}") from None
        if isinstance(raw["slot"], bool) or not isinstance(raw["slot"], int):
            raise RecordFormatError(line_no, "slot must be an integer")
        if not isinstance(raw["faulted"], bool):
            raise RecordFormatError(line_no, "faulted must be true or false")
        try:
            plaintext = bytes_from_hex(raw["plaintext"], "plaintext", (16,))
            ciphertext = bytes_from_hex(raw["ciphertext"], "ciphertext", (16,))
        except ValueError as err:
            raise RecordFormatError(line_no, str(err)) from None
        records.append(
            CiphertextRecord(
                plaintext=plaintext,
                ciphertext=ciphertext,
                offset_n=offset,
                width_m=None if raw["m"] is None else float(raw["m"]),
                slot=raw["slot"],
                faulted=raw["faulted"],
            )
        )
    return records


# ---------------------------------------------------------------------------
# Flat key=value campaign config files


class ConfigError(Exception):
    """A config line that does not parse; carries the line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


def _parse_offset_entry(value: str, line_no: int) -> tuple[StepId, MaskRule, float]:
    fields = {}
    for token in value.split():
        if "=" not in token:
            raise ConfigError(line_no, f"expected key=value tokens, got {token!r}")
        k, _, v = token.partition("=")
        fields[k.strip()] = v.strip()
    unknown = set(fields) - {"round", "op", "bits", "byte", "weight"}
    if unknown:
        raise ConfigError(line_no, f"unknown offset fields: {', '.join(sorted(unknown))}")
    try:
        step = StepId(int(fields["round"]), AesOp.from_label(fields["op"]))
        rule = MaskRule(
            bits=int(fields.get("bits", 1)),
            byte=int(fields["byte"]) if "byte" in fields else None,
        )
        weight = float(fields.get("weight", 1.0))
        OffsetBehavior(((step, rule, weight),))  # the weight, checked at its own line
    except KeyError as err:
        raise ConfigError(line_no, f"offset entry needs {err.args[0]}=") from None
    except ValueError as err:
        raise ConfigError(line_no, str(err)) from None
    return step, rule, weight


def parse_config(fp: IO[str]) -> CampaignConfig:
    """Parse the flat key = value campaign config format.

    Scalar keys: key, plaintext, samples, seed, slot, width, fault_rate,
    static_mask, static_round, static_op. Repeatable keys of the form
    ``offset <n> = round=12 op=MixColumns bits=1 [byte=0] [weight=1]``
    accumulate the per-offset fault distribution.
    """
    scalars: dict[str, tuple[str, int]] = {}  # name -> (value, line number)
    entries: dict[float, list] = {}
    for line_no, line in enumerate(fp, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(line_no, "expected key = value")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("offset"):
            label = key[len("offset"):].strip()
            try:
                offset = quantize_offset(float(label))
            except ValueError as err:
                raise ConfigError(line_no, str(err)) from None
            entries.setdefault(offset, []).append((*_parse_offset_entry(value, line_no), line_no))
        elif key in scalars:
            raise ConfigError(line_no, f"duplicate key {key!r}")
        else:
            scalars[key] = (value, line_no)

    def parsed(name: str, parse, reason: str | None = None):
        # a ValueError from parse becomes a ConfigError at the scalar's line
        value, line_no = scalars[name]
        try:
            return parse(value)
        except ValueError as err:
            raise ConfigError(line_no, reason or str(err)) from None

    def hex_scalar(name: str, sizes: tuple[int, ...]) -> bytes:
        return parsed(name, lambda value: bytes_from_hex(value, name, sizes))

    def scalar(name: str, cast, default):
        return parsed(name, cast, f"bad value for {name!r}") if name in scalars else default

    known = {"key", "plaintext", "samples", "seed", "slot", "width",
             "fault_rate", "static_mask", "static_round", "static_op"}
    for name, (_, line_no) in scalars.items():
        if name not in known:
            raise ConfigError(line_no, f"unknown key {name!r}")
    for required in ("key", "plaintext", "samples"):
        if required not in scalars:
            raise ConfigError(0, f"missing required key {required!r}")
    if not entries:
        raise ConfigError(0, "config defines no glitch offsets")

    key = hex_scalar("key", (16, 24, 32))
    plaintext = hex_scalar("plaintext", (16,))
    n_rounds = ROUNDS_BY_KEY_LEN[len(key)]
    offsets = {}
    for n, rows in entries.items():
        for step, _, _, entry_line in rows:
            try:
                step.validate(n_rounds)
            except ValueError as err:
                raise ConfigError(entry_line, str(err)) from None
        try:
            offsets[n] = OffsetBehavior(tuple(row[:3] for row in rows))
        except ValueError as err:  # only the weights' total is left to fail
            raise ConfigError(rows[-1][3], str(err)) from None
    static_mask = hex_scalar("static_mask", (16,)) if "static_mask" in scalars else None
    static_step = None
    if ("static_round" in scalars) != ("static_op" in scalars):
        raise ConfigError((scalars.get("static_round") or scalars["static_op"])[1],
                          "static_round and static_op must be given together")
    if "static_round" in scalars:
        op = parsed("static_op", AesOp.from_label)
        static_step = parsed("static_round", lambda value: StepId(int(value), op).validate(n_rounds))

    try:
        return CampaignConfig(
            key=key,
            plaintext=plaintext,
            samples=scalar("samples", int, None),
            offsets=offsets,
            slot=scalar("slot", int, 0),
            width=scalar("width", float, 1.0),
            fault_rate=scalar("fault_rate", float, 1.0),
            static_mask=static_mask,
            static_step=static_step,
            seed=scalar("seed", int, 0),
        )
    except ValueError as err:
        # CampaignConfig names the field it rejects first, so a scalar's
        # error points at that scalar's line
        field = str(err).partition(" ")[0]
        raise ConfigError(scalars[field][1] if field in scalars else 0, str(err)) from None
