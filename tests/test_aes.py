import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aesdfa.aes import (
    INV_SBOX,
    SBOX,
    AesOp,
    KeySchedule,
    StepId,
    bytes_from_hex,
    decrypt_block,
    decrypt_traces,
    encrypt_block,
    encrypt_trace,
    expand_key,
    gf_mul,
    invert_key_schedule,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    mix_columns,
    peel_final_round,
    shift_rows,
    sub_bytes,
    xor_bytes,
)
from reference import flat_index, oracle_decrypt, oracle_encrypt, oracle_gf_mul

# FIPS-197 appendix keys and the C.1/C.3 example blocks, cross-checked
# against the OpenSSL oracle before use.
KEY128 = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
KEY192 = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
KEY256 = bytes.fromhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
PT = bytes.fromhex("00112233445566778899aabbccddeeff")

APPENDIX_A_KEY128 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
# w[4..7] of the FIPS-197 appendix A.1 expansion, i.e. round key 1
APPENDIX_A_RK1 = bytes.fromhex("a0fafe1788542cb123a339392a6c7605")


class TestGfMul:
    def test_multiply_by_one(self):
        assert gf_mul(0x02, 0x01) == 0x02
        for a in range(256):
            assert gf_mul(a, 1) == a
            assert gf_mul(1, a) == a

    def test_single_reduction(self):
        assert gf_mul(0x02, 0x80) == 0x1B

    def test_inverse_pair(self):
        # 0x53 * 0xCA = 1: verified against the shift-and-add oracle
        assert oracle_gf_mul(0x53, 0xCA) == 0x01
        assert gf_mul(0x53, 0xCA) == 0x01

    def test_exhaustive_against_oracle(self):
        for a in range(256):
            for b in range(256):
                assert gf_mul(a, b) == oracle_gf_mul(a, b)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_commutes_and_distributes(self, a, b, c):
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestExpandKey:
    def test_zero_key_prefix(self):
        ks = expand_key(bytes(32))
        assert ks.round_keys[0] == bytes(16)
        assert ks.round_keys[1] == bytes(16)
        assert ks.n_rounds == 14

    def test_fips_example_round_key(self):
        ks = expand_key(APPENDIX_A_KEY128)
        assert ks.round_keys[0] == APPENDIX_A_KEY128
        assert ks.round_keys[1] == APPENDIX_A_RK1

    @pytest.mark.parametrize("size", [16, 24, 32])
    def test_prefix_identity(self, size):
        rng = random.Random(1)
        key = bytes(rng.randrange(256) for _ in range(size))
        ks = expand_key(key)
        assert b"".join(ks.round_keys)[:size] == key

    def test_round_key_counts(self):
        assert len(expand_key(bytes(16)).round_keys) == 11
        assert len(expand_key(bytes(24)).round_keys) == 13
        assert len(expand_key(bytes(32)).round_keys) == 15

    @pytest.mark.parametrize("bad", [0, 15, 17, 33, 64])
    def test_rejects_bad_length(self, bad):
        with pytest.raises(ValueError, match="16, 24 or 32"):
            expand_key(bytes(bad))


class TestKeySchedule:
    @pytest.mark.parametrize("count", [0, 1, 10, 12, 14, 16])
    def test_round_key_count_is_checked(self, count):
        with pytest.raises(ValueError, match=f"AES needs 11, 13 or 15 round keys, got {count}$"):
            KeySchedule(round_keys=(bytes(16),) * count)

    @pytest.mark.parametrize("length", [0, 15, 17])
    def test_round_key_length_is_checked(self, length):
        round_keys = [bytes(16)] * 13
        round_keys[5] = bytes(length)
        with pytest.raises(ValueError, match="round keys must be 16 bytes"):
            KeySchedule(round_keys=tuple(round_keys))


class TestInvertKeySchedule:
    def test_zero_key_roundtrip(self):
        ks = expand_key(bytes(32))
        got = invert_key_schedule(256, [ks.round_keys[13], ks.round_keys[14]])
        assert got == bytes(32)

    def test_fips_128_roundtrip(self):
        ks = expand_key(APPENDIX_A_KEY128)
        assert invert_key_schedule(128, [ks.round_keys[10]]) == APPENDIX_A_KEY128

    @pytest.mark.parametrize("size", [16, 24, 32])
    def test_random_roundtrips(self, size):
        rng = random.Random(size)
        n_tail = 1 if size == 16 else 2
        for _ in range(1000):
            key = bytes(rng.randrange(256) for _ in range(size))
            ks = expand_key(key)
            assert invert_key_schedule(size * 8, ks.round_keys[-n_tail:]) == key

    def test_any_256_tail_inverts(self):
        rng = random.Random(7)
        pair = [bytes(rng.randrange(256) for _ in range(16)) for _ in range(2)]
        key = invert_key_schedule(256, pair)
        ks = expand_key(key)
        assert list(ks.round_keys[-2:]) == pair

    def test_inconsistent_192_tail_rejected(self):
        rng = random.Random(8)
        pair = [bytes(rng.randrange(256) for _ in range(16)) for _ in range(2)]
        with pytest.raises(ValueError, match="not produced"):
            invert_key_schedule(192, pair)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="trailing round keys"):
            invert_key_schedule(256, [bytes(16)])
        with pytest.raises(ValueError, match="16 bytes"):
            invert_key_schedule(128, [bytes(15)])


class TestCipher:
    def test_fips_256_vector(self):
        expected = oracle_encrypt(KEY256, PT)
        assert expected == bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        ct, _ = encrypt_trace(PT, expand_key(KEY256))
        assert ct == expected

    @pytest.mark.parametrize("key", [KEY128, KEY192, KEY256])
    def test_matches_oracle(self, key):
        rng = random.Random(len(key))
        ks = expand_key(key)
        for _ in range(50):
            pt = bytes(rng.randrange(256) for _ in range(16))
            assert encrypt_block(pt, ks) == oracle_encrypt(key, pt)

    def test_trace_length_and_order(self):
        ct, trace = encrypt_trace(PT, expand_key(KEY256))
        assert len(trace) == 56  # 1 + 13*4 + 3
        assert trace[0].step == StepId(0, AesOp.ADD_ROUND_KEY_INITIAL)
        assert trace[-1].step == StepId(14, AesOp.ADD_ROUND_KEY)
        assert trace[-1].state == ct
        steps = [e.step for e in trace]
        assert steps == sorted(set(steps))
        assert all(step.validate(14) for step in steps)  # 56 distinct valid steps: all of them

    @given(st.binary(min_size=16, max_size=16), st.sampled_from([16, 24, 32]))
    @settings(max_examples=50)
    def test_roundtrip(self, pt, size):
        ks = expand_key(bytes(range(size)))
        assert decrypt_block(encrypt_block(pt, ks), ks) == pt

    def test_decrypt_trace_alignment(self):
        ks = expand_key(KEY256)
        ct, enc = encrypt_trace(PT, ks)
        pt, dec = decrypt_traces([ct], ks)
        assert pt == PT
        assert enc == dec

    def test_decrypt_traces_pack_each_ciphertexts_trace(self):
        # each lane against OpenSSL and against the separate forward core
        rng = random.Random(5)
        for size in (16, 24, 32):
            key = rng.randbytes(size)
            ks = expand_key(key)
            cts = [rng.randbytes(16) for _ in range(5)]
            pts, trace = decrypt_traces(cts, ks)
            for j, ct in enumerate(cts):
                pt = pts[16 * j:16 * j + 16]
                assert pt == oracle_decrypt(key, ct)
                assert [(e.step, e.state[16 * j:16 * j + 16]) for e in trace] == list(encrypt_trace(pt, ks)[1])

    def test_decrypt_vector_inverse(self):
        ks = expand_key(KEY256)
        ct = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        pt, _ = decrypt_traces([ct], ks)
        assert pt == PT

    def test_double_decrypt_is_not_identity(self):
        ks = expand_key(KEY256)
        block = bytes(range(16))
        once = decrypt_block(block, ks)
        assert decrypt_block(once, ks) != block


class TestPeelFinalRound:
    def test_recomposes_final_round(self):
        ks = expand_key(KEY256)
        ct = encrypt_block(PT, ks)
        peeled = peel_final_round(ct, ks.round_keys[14])
        redone = xor_bytes(shift_rows(sub_bytes(mix_columns(peeled))), ks.round_keys[14])
        assert redone == ct

    def test_constructed_zero_state(self):
        k_last = bytes(range(16))
        ct = xor_bytes(k_last, shift_rows(sub_bytes(mix_columns(bytes(16)))))
        assert peel_final_round(ct, k_last) == bytes(16)

    def test_forward_round_oracle(self):
        rng = random.Random(3)
        for _ in range(100):
            state = bytes(rng.randrange(256) for _ in range(16))
            k_last = bytes(rng.randrange(256) for _ in range(16))
            ct = xor_bytes(shift_rows(sub_bytes(mix_columns(state))), k_last)
            assert peel_final_round(ct, k_last) == state


class TestOpsAndLayout:
    def test_flat_index_roundtrip(self):
        seen = set()
        for row in range(4):
            for col in range(4):
                i = flat_index(row, col)
                assert (i % 4, i // 4) == (row, col)
                seen.add(i)
        assert seen == set(range(16))

    def test_op_inverses(self):
        block = bytes(range(16))
        assert inv_sub_bytes(sub_bytes(block)) == block
        assert inv_shift_rows(shift_rows(block)) == block
        assert inv_mix_columns(mix_columns(block)) == block

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=100)
    def test_ops_match_definitions(self, block, other):
        # FIPS-197 5.1.1-5.1.3 and 5.3.3 written out byte by byte
        def matrix_times(coeffs, s):
            # output row r of a column is sum_j coeffs[(j - r) % 4] * s[j]
            return bytes(
                oracle_gf_mul(coeffs[0 - r], s[c]) ^ oracle_gf_mul(coeffs[1 - r], s[c + 1])
                ^ oracle_gf_mul(coeffs[2 - r], s[c + 2]) ^ oracle_gf_mul(coeffs[3 - r], s[c + 3])
                for c in (0, 4, 8, 12) for r in range(4)
            )

        assert sub_bytes(block) == bytes(SBOX[b] for b in block)
        assert inv_sub_bytes(block) == bytes(INV_SBOX[b] for b in block)
        assert shift_rows(block) == bytes(block[flat_index(r, (c + r) % 4)] for c in range(4) for r in range(4))
        assert mix_columns(block) == matrix_times((2, 3, 1, 1), block)
        assert inv_mix_columns(block) == matrix_times((14, 11, 13, 9), block)
        assert xor_bytes(block, other) == bytes(x ^ y for x, y in zip(block, other))

    def test_shift_rows_row_pattern(self):
        # row r rotates left by r across columns
        out = shift_rows(bytes(range(16)))
        assert out[flat_index(0, 0)] == flat_index(0, 0)
        assert out[flat_index(1, 0)] == flat_index(1, 1)
        assert out[flat_index(2, 0)] == flat_index(2, 2)
        assert out[flat_index(3, 0)] == flat_index(3, 3)

    def test_hex_helpers(self):
        h = "00112233445566778899aabbccddeeff"
        assert bytes_from_hex(h, "block", (16,)).hex() == h
        assert bytes_from_hex(h * 2, "key", (16, 24, 32)) == bytes.fromhex(h * 2)
        with pytest.raises(ValueError, match="^block must be 16 bytes, got 1$"):
            bytes_from_hex("00", "block", (16,))
        with pytest.raises(ValueError, match="^key must be 16 or 24 or 32 bytes, got 17$"):
            bytes_from_hex("00" * 17, "key", (16, 24, 32))
        for bad in ("zz" * 16, h.upper(), h[:-2] + " f", h[:-1], None):
            with pytest.raises(ValueError, match="^block is not valid hex$"):
                bytes_from_hex(bad, "block", (16,))

    def test_step_id_validation(self):
        StepId(0, AesOp.ADD_ROUND_KEY_INITIAL).validate(14)
        StepId(14, AesOp.ADD_ROUND_KEY).validate(14)
        with pytest.raises(ValueError, match="round 0"):
            StepId(0, AesOp.SUB_BYTES).validate(14)
        with pytest.raises(ValueError, match="round 0"):
            StepId(3, AesOp.ADD_ROUND_KEY_INITIAL).validate(14)
        with pytest.raises(ValueError, match="no MixColumns"):
            StepId(14, AesOp.MIX_COLUMNS).validate(14)
        with pytest.raises(ValueError, match="out of range"):
            StepId(15, AesOp.SUB_BYTES).validate(14)


class TestDiffusion:
    def test_single_byte_fault_spread(self):
        # one faulted byte at a MixColumns input: 4 bytes differ after that
        # MixColumns, 16 after the next round's MixColumns
        rng = random.Random(11)
        ks = expand_key(bytes(rng.randrange(256) for _ in range(32)))
        hits4 = hits16 = trials = 0
        for _ in range(1000):
            pt = bytes(rng.randrange(256) for _ in range(16))
            r = rng.randrange(2, 13)  # 2..N-2 so round r+1 still has MixColumns
            pos = rng.randrange(16)
            eps = rng.randrange(1, 256)
            _, clean = encrypt_trace(pt, ks)
            states = {e.step: e.state for e in clean}
            faulted_in = bytearray(states[StepId(r, AesOp.SHIFT_ROWS)])
            faulted_in[pos] ^= eps
            after_mc = mix_columns(bytes(faulted_in))
            diff = xor_bytes(after_mc, states[StepId(r, AesOp.MIX_COLUMNS)])
            if sum(1 for b in diff if b) == 4:
                hits4 += 1
            # propagate two more ops plus the next round up to MixColumns
            state = xor_bytes(after_mc, ks.round_keys[r])
            state = mix_columns(shift_rows(sub_bytes(state)))
            diff2 = xor_bytes(state, states[StepId(r + 1, AesOp.MIX_COLUMNS)])
            if all(diff2):
                hits16 += 1
            trials += 1
        assert hits4 >= 0.99 * trials
        assert hits16 >= 0.99 * trials
