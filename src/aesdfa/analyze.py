"""Campaign statistics: which offsets hit which operations, and how hard.

Built on the known-key localizer, so these tools apply to simulations and
to post-recovery analysis of real captures. Records are localized in
batches, one per plaintext (`localize_records`). The product is an offset
profile: per glitch offset, the distribution of faulted operations and
corrupted bit counts, and the rate of single-byte corruptions at a chosen
target round. Choosing attack offsets is then an argmax over that rate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .aes import AesOp, KeySchedule, StepId
from .campaign import CiphertextRecord, quantize_offset
from .localizer import LocalizationReport, localize_many

__all__ = [
    "OffsetStats",
    "OffsetProfile",
    "NoViableOffset",
    "build_profile",
    "localize_records",
    "recommend_offsets",
    "render_table",
]


class NoViableOffset(Exception):
    """No profiled offset ever produced a usable fault at the target round."""


@dataclass
class OffsetStats:
    """What one glitch offset did across its samples."""

    samples: int = 0
    faulted: int = 0
    ambiguous: int = 0  # faulted samples the localizer could not pin to one stretch
    step_counts: Counter = field(default_factory=Counter)
    bit_counts: Counter = field(default_factory=Counter)
    single_byte_steps: Counter = field(default_factory=Counter)

    def single_byte_rate_at(self, step: StepId) -> float:
        if self.samples == 0:
            return 0.0
        return self.single_byte_steps[step] / self.samples


@dataclass
class OffsetProfile:
    per_offset: dict  # quantized offset -> OffsetStats

    def op_histogram(self) -> Counter:
        counts: Counter = Counter()
        for stats in self.per_offset.values():
            for step, n in stats.step_counts.items():
                counts[step.op] += n
        return counts

    def bit_histogram(self) -> Counter:
        counts: Counter = Counter()
        for stats in self.per_offset.values():
            counts.update(stats.bit_counts)
        return counts


def localize_records(ks: KeySchedule, records: Sequence[CiphertextRecord]) -> list[LocalizationReport | None]:
    """Localize every record, one batch per plaintext; reports in record order."""
    by_plaintext: dict[bytes, list[int]] = {}
    for i, record in enumerate(records):
        by_plaintext.setdefault(record.plaintext, []).append(i)
    reports: list[LocalizationReport | None] = [None] * len(records)
    for pt, indices in by_plaintext.items():
        for i, report in zip(indices, localize_many(ks, pt, [records[i].ciphertext for i in indices])):
            reports[i] = report
    return reports


def build_profile(ks: KeySchedule, records: Iterable[CiphertextRecord]) -> OffsetProfile:
    """Localize every glitched record and fold the results per offset.

    Records without an offset (the unglitched baseline) are ignored.
    """
    glitched = [record for record in records if record.offset_n is not None]
    per_offset: dict = {}
    by_label: dict = {}  # each distinct offset_n, quantized once
    for record, report in zip(glitched, localize_records(ks, glitched)):
        stats = by_label.get(record.offset_n)
        if stats is None:
            offset = quantize_offset(record.offset_n)
            if offset not in per_offset:
                per_offset[offset] = OffsetStats()
            stats = by_label[record.offset_n] = per_offset[offset]
        stats.samples += 1
        if report is None:
            continue
        stats.faulted += 1
        stats.ambiguous += report.ambiguous
        stats.step_counts[report.step] += 1
        stats.bit_counts[report.hamming] += 1
        if report.mask.count(0) == len(report.mask) - 1:  # one corrupted byte
            stats.single_byte_steps[report.step] += 1
    return OffsetProfile(per_offset=dict(sorted(per_offset.items())))


def recommend_offsets(profile: OffsetProfile, target_rounds: Sequence[int]) -> dict:
    """Pick, per target round, the offset with the best single-byte hit rate
    at that round's MixColumns.

    Ties resolve to the lower offset. Raises NoViableOffset when no offset
    ever produced a single-byte fault at a requested round.
    """
    if not profile.per_offset:
        raise NoViableOffset("the profile contains no offsets")
    chosen = {}
    for rnd in target_rounds:
        step = StepId(rnd, AesOp.MIX_COLUMNS)
        best = max(
            sorted(profile.per_offset),
            key=lambda n: (profile.per_offset[n].single_byte_rate_at(step), -n),
        )
        if profile.per_offset[best].single_byte_rate_at(step) == 0.0:
            raise NoViableOffset(f"no offset produced single-byte faults at {step}")
        chosen[rnd] = best
    return chosen


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain aligned-column text table."""
    table = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in table)) if table else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
