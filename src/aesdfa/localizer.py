"""Locate where a fault entered the cipher, given the key.

With the key known, the clean forward trace of the plaintext and the
inverse-aligned trace of the faulty output describe the same computation
from both ends. They agree nowhere, but the difference is smallest right at
the corruption: upstream of it the inverse states are nonlinearly unrelated
to the clean run, downstream the difference has diffused. Scanning the
per-step Hamming distances and keeping the minimum therefore recovers both
the corrupted bits and the operation they entered.

A fault mask commutes with every linear operation, so the minimum is
typically a short run of equal-weight steps (the same corruption expressed
before and after ShiftRows). The run resolves toward the ciphertext: the
fault is attributed to the operation following the last minimal entry,
which matches how injected faults are specified (mask applied to the state
entering an operation).

The clean forward trace comes from `encrypt_trace`, which keeps it per
(plaintext, key schedule). `localize_many` localizes a campaign's records
in one batch: one `decrypt_traces` call per chunk of `_CHUNK` distinct
faulty ciphertexts, diffed against the clean trace repeated once per
record. Each step's weights come from a popcount `translate` and shifted
sums down to one byte per record, so a chunk costs a fixed number of
big-int operations per step. They are counted at SubBytes, MixColumns and
the initial key addition only: ShiftRows moves bytes, and AddRoundKey adds
one key to both sides, so each keeps the weights of the step before. Each
record's minimal steps then come from `bytes.index`, `rindex` and `count`.
`localize` is the batch of one record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .aes import AesOp, KeySchedule, StepId, Trace, decrypt_traces, encrypt_trace, xor_bytes

__all__ = ["LocalizationReport", "localize", "localize_many"]

# records per batched inverse trace: bounds a batch's memory, its inverse
# trace and its differences at about 230 KB each for AES-256, whatever the
# campaign size
_CHUNK = 256
_POPCOUNT = bytes(i.bit_count() for i in range(256))


@dataclass(frozen=True)
class LocalizationReport:
    """Where a fault entered the state, and which bits it flipped."""

    step: StepId
    mask: bytes
    hamming: int
    ambiguous: bool


def localize(ks: KeySchedule, pt: bytes, faulty_ct: bytes) -> LocalizationReport | None:
    """Identify the (round, operation) a faulty output was corrupted at.

    Returns None when `faulty_ct` is the correct ciphertext for `pt`.
    Otherwise reports the operation whose input carried the smallest bit
    difference between the clean forward computation and the faulty
    output's inverse states, the difference mask itself, and its weight.
    `ambiguous` is set when equally small differences appear at steps that
    are not one contiguous stretch of the dataflow (a contiguous stretch is
    the same fault seen across linear operations and resolves cleanly).
    """
    return localize_many(ks, pt, [faulty_ct])[0]


def localize_many(ks: KeySchedule, pt: bytes, cts: Sequence[bytes]) -> list[LocalizationReport | None]:
    """`localize` for every ciphertext of one plaintext, in input order.

    Distinct faulty ciphertexts go through the batched inverse trace in
    chunks of `_CHUNK`; a repeated ciphertext shares its report.
    """
    clean_ct, forward = encrypt_trace(pt, ks)
    cts = [bytes(ct) for ct in cts]
    faulty = list(dict.fromkeys(ct for ct in cts if ct != clean_ct))
    found = {}
    for start in range(0, len(faulty), _CHUNK):
        chunk = faulty[start:start + _CHUNK]
        found.update(zip(chunk, _localize_chunk(ks, forward, chunk)))
    return [found.get(ct) for ct in cts]


def _localize_chunk(ks: KeySchedule, forward: Trace, cts: list[bytes]) -> list[LocalizationReport]:
    n = len(cts)
    _, backward = decrypt_traces(cts, ks)
    diffs, weights = [], []
    for f, b in zip(forward, backward):
        if f.step.op is AesOp.ADD_ROUND_KEY:
            # one key added to both sides: the difference of the step before
            diffs.append(diffs[-1])
            weights.append(weights[-1])
            continue
        diff = xor_bytes(b.state, f.state * n)
        diffs.append(diff)
        if f.step.op is AesOp.SHIFT_ROWS:
            # a byte permutation: each lane keeps the weight of the step before
            weights.append(weights[-1])
            continue
        # per-byte popcounts summed over each 16-byte lane into its first
        # byte; every partial sum stays below 256, so no byte carries
        w = int.from_bytes(diff.translate(_POPCOUNT), "little")
        for shift in (8, 16, 32, 64):
            w += w >> shift
        weights.append(w.to_bytes(16 * n, "little")[::16])
    # step-major: record j's weight at step s is byte sn + j
    weights = b"".join(weights)

    steps = [e.step for e in forward]
    reports = []
    for j in range(n):
        row = weights[j::n]
        best = min(row)
        first = row.index(best)
        pick = row.rindex(best)  # latest in encryption order: the mask pushed up to the nonlinearity
        reports.append(
            LocalizationReport(
                # minimal at the final AddRoundKey output, the corruption is
                # indistinguishable from one entering that last key addition
                step=steps[min(pick + 1, len(steps) - 1)],
                mask=diffs[pick][16 * j:16 * j + 16],
                hamming=best,
                ambiguous=row.count(best) != pick - first + 1,
            )
        )
    return reports
