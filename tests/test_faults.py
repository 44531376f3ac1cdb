import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aesdfa.aes import (
    _STEPS,
    AesOp,
    StepId,
    cipher_with_taps,
    encrypt_block,
    encrypt_trace,
    expand_key,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    mix_columns,
    shift_rows,
    sub_bytes,
    xor_bytes,
)
from aesdfa.faults import FaultSpec, decrypt_with_faults, encrypt_with_faults

KS = expand_key(bytes(range(32)))
PT = bytes.fromhex("00112233445566778899aabbccddeeff")


def byte_mask(pos: int, value: int) -> bytes:
    mask = bytearray(16)
    mask[pos] = value
    return bytes(mask)


def test_empty_fault_list_is_plain_encrypt():
    assert encrypt_with_faults(PT, KS, []) == encrypt_block(PT, KS)


def test_fault_spec_rejects_bad_masks():
    step = StepId(12, AesOp.MIX_COLUMNS)
    with pytest.raises(ValueError, match="nonzero"):
        FaultSpec(step, bytes(16))
    with pytest.raises(ValueError, match="16 bytes"):
        FaultSpec(step, bytes(15))


def test_step_out_of_range_rejected():
    ks128 = expand_key(bytes(16))
    for step, text in [
        (StepId(13, AesOp.MIX_COLUMNS), "round 13 out of range 0..10"),
        (StepId(10, AesOp.MIX_COLUMNS), "the last round has no MixColumns"),
        (StepId(0, AesOp.SUB_BYTES), "round 0 admits only AddRoundKeyInitial, later rounds never do"),
    ]:
        for run in (encrypt_with_faults, decrypt_with_faults):
            with pytest.raises(ValueError, match=f"^{text}$"):
                run(PT, ks128, [FaultSpec(step, byte_mask(0, 1))])


@pytest.mark.parametrize("inverse", [False, True])
def test_taps_at_steps_the_cipher_lacks_raise(inverse):
    # AES-128 has no round 13, and its last round no MixColumns
    ks128 = expand_key(bytes(16))
    mask = byte_mask(0, 1)
    for foreign, text in [
        (StepId(13, AesOp.MIX_COLUMNS), "round 13 out of range 0..10"),
        (StepId(10, AesOp.MIX_COLUMNS), "the last round has no MixColumns"),
    ]:
        for taps in ({foreign: mask}, {StepId(9, AesOp.MIX_COLUMNS): mask, foreign: mask}):
            with pytest.raises(ValueError, match=f"^{text}$"):
                cipher_with_taps(PT, ks128, taps, inverse=inverse)


def test_round_13_fault_hits_one_diagonal_group():
    # single-byte fault entering MixColumns of round N-1, row 0 / column 0:
    # exactly the output positions {0, 13, 10, 7} differ, and the state
    # entering the final SubBytes differs by (2e, e, e, 3e) in column 0
    eps = 0x2A
    fault = FaultSpec(StepId(13, AesOp.MIX_COLUMNS), byte_mask(0, eps))
    clean, clean_trace = encrypt_trace(PT, KS)
    faulty = encrypt_with_faults(PT, KS, [fault])
    diff = xor_bytes(clean, faulty)
    assert {i for i, b in enumerate(diff) if b} == {0, 13, 10, 7}

    # recompute the pre-SubBytes differential by replaying the faulted tail
    states = {e.step: e.state for e in clean_trace}
    from aesdfa.aes import gf_mul, mix_columns

    entering_mc = bytearray(states[StepId(13, AesOp.SHIFT_ROWS)])
    entering_mc[0] ^= eps
    after_ark = xor_bytes(mix_columns(bytes(entering_mc)), KS.round_keys[13])
    pre_sub_diff = xor_bytes(after_ark, states[StepId(13, AesOp.ADD_ROUND_KEY)])
    expected_col = (gf_mul(2, eps), eps, eps, gf_mul(3, eps))
    assert tuple(pre_sub_diff[:4]) == expected_col
    assert not any(pre_sub_diff[4:])


def test_round_12_fault_diffuses_everywhere():
    rng = random.Random(5)
    full_diffusion = 0
    for _ in range(1000):
        key = bytes(rng.randrange(256) for _ in range(32))
        ks = expand_key(key)
        pt = bytes(rng.randrange(256) for _ in range(16))
        fault = FaultSpec(
            StepId(12, AesOp.MIX_COLUMNS),
            byte_mask(rng.randrange(16), rng.randrange(1, 256)),
        )
        diff = xor_bytes(encrypt_block(pt, ks), encrypt_with_faults(pt, ks, [fault]))
        if all(diff):
            full_diffusion += 1
    assert full_diffusion >= 990


@given(
    st.integers(0, 15), st.integers(1, 255), st.integers(0, 15), st.integers(1, 255),
    st.integers(1, 14),
)
@settings(max_examples=60)
def test_same_step_masks_xor(p1, v1, p2, v2, rnd):
    step = StepId(rnd, AesOp.SUB_BYTES)
    m1, m2 = byte_mask(p1, v1), byte_mask(p2, v2)
    combined = xor_bytes(m1, m2)
    double = encrypt_with_faults(PT, KS, [FaultSpec(step, m1), FaultSpec(step, m2)])
    if any(combined):
        single = encrypt_with_faults(PT, KS, [FaultSpec(step, combined)])
        assert double == single
    else:
        assert double == encrypt_block(PT, KS)


def test_decrypt_direction_consistency():
    # re-encrypting a faulted decrypt output equals the faulted encrypt output
    rng = random.Random(13)
    for _ in range(25):
        pt = bytes(rng.randrange(256) for _ in range(16))
        sid = StepId(rng.randrange(1, 14), AesOp.MIX_COLUMNS)
        fault = FaultSpec(sid, byte_mask(rng.randrange(16), rng.randrange(1, 256)))
        ct_clean = encrypt_block(pt, KS)
        faulty_pt = decrypt_with_faults(ct_clean, KS, [fault])
        assert encrypt_block(faulty_pt, KS) == encrypt_with_faults(pt, KS, [fault])


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


_FORWARD = {AesOp.SUB_BYTES: sub_bytes, AesOp.SHIFT_ROWS: shift_rows, AesOp.MIX_COLUMNS: mix_columns}
_INVERSE = {AesOp.SUB_BYTES: inv_sub_bytes, AesOp.SHIFT_ROWS: inv_shift_rows, AesOp.MIX_COLUMNS: inv_mix_columns}


def composed_with_faults(block, ks, faults, inverse):
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


@st.composite
def faulted_runs(draw):
    ks = expand_key(draw(st.binary(min_size=16, max_size=16)) + bytes(draw(st.sampled_from([0, 8, 16]))))
    steps = _STEPS[ks.n_rounds]
    # a small step pool makes two masks on one step common; it always holds
    # round 0 and the final AddRoundKey
    pool = [steps[0], steps[-1], *draw(st.lists(st.sampled_from(steps), min_size=1, max_size=2))]
    mask = st.binary(min_size=16, max_size=16).filter(any)
    faults = draw(st.lists(st.builds(FaultSpec, st.sampled_from(pool), mask), min_size=1, max_size=3))
    return ks, draw(st.binary(min_size=16, max_size=16)), faults


@given(faulted_runs(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_faulted_cipher_matches_step_by_step_composition(run, inverse):
    ks, block, faults = run
    expected = composed_with_faults(block, ks, faults, inverse)
    cipher = decrypt_with_faults if inverse else encrypt_with_faults
    # twice: the first forward run may fill the clean-trace cache, the second reads it
    assert cipher(block, ks, faults) == expected
    assert cipher(block, ks, faults) == expected
    if len({f.step for f in faults}) == len(faults):
        taps = {f.step: f.mask for f in faults}
        assert cipher_with_taps(block, ks, taps, inverse=inverse) == expected


def test_wrong_length_blocks_keep_their_errors():
    fault = [FaultSpec(StepId(12, AesOp.MIX_COLUMNS), byte_mask(0, 1))]
    with pytest.raises(ValueError, match="^plaintext must be 16 bytes, got 15$"):
        encrypt_with_faults(PT[:15], KS, fault)
    with pytest.raises(ValueError, match="^ciphertext must be 16 bytes, got 17$"):
        decrypt_with_faults(PT + b"x", KS, fault)
