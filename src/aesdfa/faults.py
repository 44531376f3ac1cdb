"""Fault injection into the AES dataflow.

A fault is a 16-byte XOR mask applied to the state entering one operation.
Faults are always expressed against the encryption-direction dataflow: for
decrypt runs the mask is injected when the inverse computation passes the
same state boundary, so both directions produce mutually consistent
artifacts (re-encrypting a faulted decrypt output reproduces the faulted
encrypt output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .aes import KeySchedule, StepId, cipher_with_taps, xor_bytes

__all__ = [
    "FaultSpec",
    "encrypt_with_faults",
    "decrypt_with_faults",
]


@dataclass(frozen=True)
class FaultSpec:
    """An XOR corruption of the state entering `step`."""

    step: StepId
    mask: bytes

    def __post_init__(self):
        if len(self.mask) != 16:
            raise ValueError(f"fault mask must be 16 bytes, got {len(self.mask)}")
        if not any(self.mask):
            raise ValueError("fault mask must be nonzero")


def _merged_taps(faults: Iterable[FaultSpec]) -> dict[StepId, bytes]:
    taps: dict[StepId, bytes] = {}
    for fault in faults:
        prev = taps.get(fault.step)
        taps[fault.step] = fault.mask if prev is None else xor_bytes(prev, fault.mask)
    return taps


def encrypt_with_faults(pt: bytes, ks: KeySchedule, faults: Iterable[FaultSpec]) -> bytes:
    """Forward cipher with each fault XORed in just before its step.

    An empty fault list reproduces the plain encryption. Masks landing on
    the same step combine by XOR.
    """
    return cipher_with_taps(pt, ks, _merged_taps(faults))


def decrypt_with_faults(ct: bytes, ks: KeySchedule, faults: Iterable[FaultSpec]) -> bytes:
    """Inverse cipher faulted at the same encryption-direction boundaries.

    The returned block re-encrypts to exactly encrypt_with_faults applied
    to the clean decryption of `ct`.
    """
    return cipher_with_taps(ct, ks, _merged_taps(faults), inverse=True)
