"""Shared builders for attack-stage test campaigns, and the faulted cipher
composed one public single operation at a time."""

import random

from aesdfa.aes import (
    _STEPS,
    AesOp,
    StepId,
    encrypt_block,
    expand_key,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    mix_columns,
    shift_rows,
    sub_bytes,
)
from aesdfa.faults import FaultSpec, encrypt_with_faults


def single_byte_fault(round_, pos, value):
    mask = bytearray(16)
    mask[pos] = value
    return FaultSpec(StepId(round_, AesOp.MIX_COLUMNS), bytes(mask))


def spread_fault(round_, rng, bits=4):
    """A fault whose flipped bits span several bytes (unusable for DFA)."""
    mask = bytearray(16)
    for bitpos in rng.sample(range(128), bits):
        mask[bitpos // 8] |= 1 << (bitpos % 8)
    return FaultSpec(StepId(round_, AesOp.MIX_COLUMNS), bytes(mask))


def fault_campaign(
    key,
    pt,
    rng,
    n_r2=3,
    n_r3=3,
    multi_byte_r2=0,
    static_mask=None,
    pinned_pos=None,
):
    """Clean ciphertext plus faulty pools for the two attack stages.

    Dynamic faults are single random bytes at the two Piret rounds, at a
    pinned position when given. `multi_byte_r2` prepends that many
    multi-bit spread faults to the r2 pool. A static mask is injected at
    the same step as each dynamic fault.
    """
    ks = expand_key(key)
    n = ks.n_rounds
    clean = encrypt_block(pt, ks)

    def run(faults):
        return encrypt_with_faults(pt, ks, faults)

    def pool(round_, count, spread=0):
        cts = []
        for _ in range(spread):
            cts.append(run(_with_static([spread_fault(round_, rng)], round_, static_mask)))
        for _ in range(count):
            pos = pinned_pos if pinned_pos is not None else rng.randrange(16)
            dyn = single_byte_fault(round_, pos, rng.randrange(1, 256))
            cts.append(run(_with_static([dyn], round_, static_mask)))
        return cts

    r2 = pool(n - 2, n_r2, multi_byte_r2)
    r3 = pool(n - 3, n_r3)
    return clean, r2, r3


def _with_static(faults, round_, static_mask):
    if static_mask is None:
        return faults
    static = FaultSpec(StepId(round_, AesOp.MIX_COLUMNS), static_mask)
    return [static, *faults]


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


_FORWARD = {AesOp.SUB_BYTES: sub_bytes, AesOp.SHIFT_ROWS: shift_rows, AesOp.MIX_COLUMNS: mix_columns}
_INVERSE = {AesOp.SUB_BYTES: inv_sub_bytes, AesOp.SHIFT_ROWS: inv_shift_rows, AesOp.MIX_COLUMNS: inv_mix_columns}


def composed_with_faults(block, ks, faults, inverse=False):
    """The cipher run one public single operation at a time from `block`,
    each fault's mask XORed, one by one, into the state entering its step."""
    steps = _STEPS[ks.n_rounds]
    ops = _INVERSE if inverse else _FORWARD
    state = block
    for step in reversed(steps) if inverse else steps:
        masks = [f.mask for f in faults if f.step == step]
        if not inverse:
            for mask in masks:
                state = _xor(state, mask)
        op = ops.get(step.op)
        state = _xor(state, ks.round_keys[step.round]) if op is None else op(state)
        if inverse:
            for mask in masks:
                state = _xor(state, mask)
    return state
