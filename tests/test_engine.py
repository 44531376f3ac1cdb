import random

import pytest

from aesdfa.aes import AesOp, StepId, decrypt_block, encrypt_block, expand_key
from aesdfa.engine import (
    BorrowArtifacts,
    KeyslotEngine,
    SlotError,
    run_borrow_chain,
    slave_key_from_block,
)
from aesdfa.faults import FaultSpec, decrypt_with_faults

FIXED = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
MASTER = bytes(range(32))


def engine_with_slots():
    eng = KeyslotEngine()
    eng.add_slot(0x208, MASTER, master=True)
    eng.add_slot(0x100, bytes(32))
    return eng


def test_full_block_is_plain_ecb():
    eng = engine_with_slots()
    block = bytes(range(16))
    out = eng.execute("encrypt", FIXED, 128, block)
    assert out == encrypt_block(block, expand_key(FIXED))
    assert eng.last_output == out


def test_short_input_borrows_register_tail():
    eng = engine_with_slots()
    h = bytes(random.Random(1).randrange(256) for _ in range(16))
    eng.execute("encrypt", FIXED, 128, decrypt_block(h, expand_key(FIXED)))
    assert eng.last_output == h
    out = eng.execute("encrypt", FIXED, 128, bytes(12))
    assert out == encrypt_block(bytes(12) + h[12:], expand_key(FIXED))


def test_decrypt_restores_register():
    eng = engine_with_slots()
    ct = eng.execute("encrypt", FIXED, 128, bytes(12))
    block = decrypt_block(ct, expand_key(FIXED))
    eng.execute("decrypt", FIXED, 128, ct)
    assert eng.last_output == block


def test_master_slot_cannot_write_to_memory():
    eng = engine_with_slots()
    with pytest.raises(SlotError, match="master"):
        eng.execute("encrypt", 0x208, 256, bytes(16))


def test_master_slot_writes_to_slot():
    eng = engine_with_slots()
    assert eng.execute("encrypt", 0x208, 256, bytes(16), dest=0x3F0) is None
    expected = encrypt_block(bytes(16), expand_key(MASTER))
    assert eng.slots[0x3F0].key == slave_key_from_block(expected)
    assert eng.last_output == expected


def test_disabled_and_missing_slots():
    eng = engine_with_slots()
    eng.slots[0x100].enabled = False
    with pytest.raises(SlotError, match="disabled"):
        eng.execute("encrypt", 0x100, 256, bytes(16))
    with pytest.raises(SlotError, match="no such slot"):
        eng.execute("encrypt", 0x777, 256, bytes(16))


def test_input_length_bounds():
    eng = engine_with_slots()
    with pytest.raises(ValueError, match="1..16"):
        eng.execute("encrypt", FIXED, 128, b"")
    with pytest.raises(ValueError, match="1..16"):
        eng.execute("encrypt", FIXED, 128, bytes(17))


def test_slot_key_sizes():
    eng = engine_with_slots()
    # AES-128 under a slot uses the key prefix
    out = eng.execute("encrypt", 0x100, 128, bytes(16))
    assert out == encrypt_block(bytes(16), expand_key(bytes(16)))


def test_borrow_chain_artifacts_match_definitions():
    eng = engine_with_slots()
    fault = FaultSpec(StepId(12, AesOp.MIX_COLUMNS), bytes([0x40] + [0] * 15))
    hidden_input = bytes(range(16))
    art = run_borrow_chain(eng, 0x208, 0x3F0, hidden_input, FIXED, faults=(fault,))

    h = decrypt_with_faults(hidden_input, expand_key(MASTER), [fault])
    fks = expand_key(FIXED)
    assert art.chunk_bits == 32
    assert art.stage_cts[0] == encrypt_block(bytes(12) + h[12:], fks)  # c1
    assert art.stage_cts[1] == encrypt_block(bytes(8) + h[8:], fks)  # c2
    assert art.stage_cts[2] == encrypt_block(bytes(4) + h[4:], fks)  # c3
    assert art.slave_ct == encrypt_block(bytes(16), expand_key(slave_key_from_block(h)))


def test_artifact_validation():
    with pytest.raises(ValueError, match="chunk_bits"):
        BorrowArtifacts(stage_cts=(bytes(16),) * 3, slave_ct=bytes(16), fixed_key=bytes(16), chunk_bits=12)
    # three bytes do not divide the block, whatever the stage count
    for stages in (4, 5):
        with pytest.raises(ValueError, match="chunk_bits must be 8, 16 or 32, got 24"):
            BorrowArtifacts(stage_cts=(bytes(16),) * stages, slave_ct=bytes(16), fixed_key=bytes(16), chunk_bits=24)
    with pytest.raises(ValueError, match="chunk_bits must be 8, 16 or 32, got 24"):
        run_borrow_chain(engine_with_slots(), 0x208, 0x3F0, bytes(16), FIXED, chunk_bits=24)
    with pytest.raises(ValueError, match="stage ciphertexts"):
        BorrowArtifacts(stage_cts=(bytes(16),) * 3, slave_ct=bytes(16), fixed_key=bytes(16), chunk_bits=16)
