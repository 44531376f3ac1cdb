"""Fault injection into the AES dataflow.

A fault is a 16-byte XOR mask applied to the state entering one operation.
Faults are always expressed against the encryption-direction dataflow: for
decrypt runs the mask is injected when the inverse computation passes the
same state boundary, so both directions produce mutually consistent
artifacts (re-encrypting a faulted decrypt output reproduces the faulted
encrypt output). Both directions are one run of `aes.cipher_with_taps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .aes import KeySchedule, StepId, cipher_with_taps

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


def encrypt_with_faults(pt: bytes, ks: KeySchedule, faults: Iterable[FaultSpec]) -> bytes:
    """Forward cipher with each fault XORed in just before its step.

    An empty fault list reproduces the plain encryption. Masks landing on
    the same step combine by XOR.
    """
    return cipher_with_taps(pt, ks, [[(f.step, f.mask) for f in faults]])[0]


def decrypt_with_faults(ct: bytes, ks: KeySchedule, faults: Iterable[FaultSpec]) -> bytes:
    """Inverse cipher faulted at the same encryption-direction boundaries.

    The returned block re-encrypts to exactly encrypt_with_faults applied
    to the clean decryption of `ct`.
    """
    return cipher_with_taps(ct, ks, [[(f.step, f.mask) for f in faults]], inverse=True)[0]
