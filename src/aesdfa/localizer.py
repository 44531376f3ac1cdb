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
(plaintext, key schedule), so a campaign's clean side is computed once and
each record costs one inverse trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aes import KeySchedule, StepId, decrypt_trace, encrypt_trace

__all__ = ["LocalizationReport", "localize"]


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
    clean_ct, forward = encrypt_trace(pt, ks)
    if clean_ct == faulty_ct:
        return None
    _, backward = decrypt_trace(faulty_ct, ks)

    # each step's difference as one 128-bit int, byte 0 most significant
    diffs = [
        int.from_bytes(f.state, "big") ^ int.from_bytes(b.state, "big")
        for f, b in zip(forward, backward)
    ]
    weights = [d.bit_count() for d in diffs]
    best = min(weights)
    minima = [i for i, w in enumerate(weights) if w == best]
    pick = minima[-1]  # latest in encryption order: the mask pushed up to the nonlinearity
    contiguous = minima == list(range(minima[0], pick + 1))

    steps = [e.step for e in forward]
    if pick + 1 < len(steps):
        step = steps[pick + 1]
    else:
        # minimal at the final AddRoundKey output: the corruption is
        # indistinguishable from one entering that last key addition
        step = steps[pick]
    return LocalizationReport(
        step=step,
        mask=diffs[pick].to_bytes(16, "big"),
        hamming=best,
        ambiguous=not contiguous,
    )
