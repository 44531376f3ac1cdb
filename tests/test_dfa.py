import random
from array import array
from itertools import product
from math import prod

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from aesdfa import dfa
from aesdfa.aes import INV_SBOX, SBOX, AesOp, StepId, encrypt_block, expand_key, gf_mul
from aesdfa.dfa import (
    DIAGONAL_GROUPS,
    ColumnCandidates,
    InconsistentPairError,
    _filter_tuples,
    column_candidates,
    last_round_key,
    penultimate_round_key,
    single_column_key,
)
from aesdfa.faults import FaultSpec, encrypt_with_faults
from aesdfa.aes import invert_key_schedule
from simhelpers import fault_campaign
from toycipher import MIX_MATRIX, TOY_TABLES, exhaustive_tuples, pack, toy_fault_pair

KEY = bytes.fromhex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
PT = bytes.fromhex("00112233445566778899aabbccddeeff")


def byte_fault(round_, pos, value):
    mask = bytearray(16)
    mask[pos] = value
    return FaultSpec(StepId(round_, AesOp.MIX_COLUMNS), bytes(mask))


def make_pair(rng, key=None, fault_round=12):
    key = key or bytes(rng.randrange(256) for _ in range(32))
    ks = expand_key(key)
    pt = bytes(rng.randrange(256) for _ in range(16))
    ref = encrypt_block(pt, ks)
    faults = [byte_fault(fault_round, rng.randrange(16), rng.randrange(1, 256))]
    return ks, pt, ref, encrypt_with_faults(pt, ks, faults)


def group_of(ct, g):
    return tuple(ct[p] for p in g.positions)


def touched_groups(ref, ct):
    """The diagonal groups in which two ciphertexts differ."""
    return [g for g in DIAGONAL_GROUPS if any(ref[p] != ct[p] for p in g.positions)]


class TestDiagonalGroups:
    def test_partition(self):
        seen = [p for g in DIAGONAL_GROUPS for p in g.positions]
        assert sorted(seen) == list(range(16))

    def test_group_zero_positions(self):
        assert DIAGONAL_GROUPS[0].positions == (0, 13, 10, 7)

    def test_leading_position(self):
        for g in DIAGONAL_GROUPS:
            assert g.positions[0] == 4 * g.index


class TestColumnCandidates:
    def test_true_key_always_survives(self):
        rng = random.Random(21)
        for _ in range(10):
            ks, _, ref, faulty = make_pair(rng)
            k_last = ks.round_keys[14]
            for g in DIAGONAL_GROUPS:
                cand = column_candidates(
                    [ref[p] for p in g.positions], [faulty[p] for p in g.positions], g
                )
                assert pack(k_last[p] for p in g.positions) in cand.tuples

    def test_identical_bytes_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            column_candidates([1, 2, 3, 4], [1, 2, 3, 4], DIAGONAL_GROUPS[0])

    def test_random_pairs_rarely_survive_intersection(self):
        # unrelated pairs may each admit candidates, but two of them almost
        # never agree; the empty intersection is the filtering signal
        rng = random.Random(22)
        g = DIAGONAL_GROUPS[0]
        empties = 0
        for _ in range(30):
            ref = [rng.randrange(256) for _ in range(4)]
            f1 = [rng.randrange(256) for _ in range(4)]
            f2 = [rng.randrange(256) for _ in range(4)]
            if f1 == ref or f2 == ref:
                continue
            c1 = column_candidates(ref, f1, g)
            c2 = column_candidates(ref, f2, g)
            if not (c1.tuples & c2.tuples):
                empties += 1
        assert empties >= 25

    def test_two_faults_usually_pin_the_column(self):
        rng = random.Random(23)
        singletons = 0
        for _ in range(20):
            key = bytes(rng.randrange(256) for _ in range(32))
            ks = expand_key(key)
            pt = bytes(rng.randrange(256) for _ in range(16))
            ref = encrypt_block(pt, ks)
            cts = [
                encrypt_with_faults(pt, ks, [byte_fault(12, rng.randrange(16), rng.randrange(1, 256))])
                for _ in range(2)
            ]
            g = DIAGONAL_GROUPS[0]
            cands = [
                column_candidates([ref[p] for p in g.positions], [ct[p] for p in g.positions], g)
                for ct in cts
            ]
            joint = cands[0].tuples & cands[1].tuples
            expected = pack(ks.round_keys[14][p] for p in g.positions)
            assert expected in joint
            if len(joint) == 1:
                singletons += 1
        assert singletons >= 18


def predicate_tuples(ref, faulty):
    """The defining predicate, enumerated the long way: every (row, eps)
    and, per position, every key byte whose differential equals coeff*eps."""
    by_diff = []
    for c, f in zip(ref, faulty):
        solutions = {}
        for k in range(256):
            solutions.setdefault(INV_SBOX[c ^ k] ^ INV_SBOX[f ^ k], []).append(k)
        by_diff.append(solutions)
    tuples = set()
    for row in range(4):
        coeffs = [MIX_MATRIX[i][row] for i in range(4)]
        for eps in range(1, 256):
            per_pos = [by_diff[i].get(gf_mul(coeffs[i], eps), []) for i in range(4)]
            tuples.update(pack(t) for t in product(*per_pos))
    return frozenset(tuples)


group_bytes = st.lists(st.integers(0, 255), min_size=4, max_size=4)


@given(ref=group_bytes, faulty=group_bytes)
@settings(max_examples=60, deadline=None)
def test_table_enumeration_equals_predicate(ref, faulty):
    assume(ref != faulty)
    assert column_candidates(ref, faulty, DIAGONAL_GROUPS[0]).tuples == predicate_tuples(ref, faulty)


class TestLastRoundKey:
    def test_two_faults_recover_k14(self):
        rng = random.Random(31)
        ks, pt, ref, f1 = make_pair(rng, key=bytes(range(32)))
        f2 = encrypt_with_faults(pt, ks, [byte_fault(12, 5, 0x41)])
        result = last_round_key(ref, [f1, f2])
        assert result.key == ks.round_keys[14]
        assert result.used == [0, 1]

    def test_small_product_lists_every_key(self):
        # seed 27's two faults leave 2 tuples in group 1
        clean, r2, _ = fault_campaign(KEY, PT, random.Random(27), n_r2=2, n_r3=0)
        result = last_round_key(clean, r2)
        assert [len(col.tuples) for col in result.candidates] == [1, 2, 1, 1]
        assert result.key is None
        assert len(result.keys) == 2 and expand_key(KEY).round_keys[14] in result.keys

    def test_large_product_lists_no_key(self):
        clean, r2, _ = fault_campaign(KEY, PT, random.Random(342), n_r2=2, n_r3=0)
        result = last_round_key(clean, r2)
        assert [len(col.tuples) for col in result.candidates] == [1, 1, 1, 1248]
        assert result.keys == [] and result.key is None

    def test_memo_gives_the_same_result(self, monkeypatch):
        rng = random.Random(37)
        ks, pt, ref, f1 = make_pair(rng)
        f2 = encrypt_with_faults(pt, ks, [byte_fault(12, 6, 0x5A)])
        memo = {}
        plain = last_round_key(ref, [f1, f2])
        cached = last_round_key(ref, [f1, f2], memo=memo)
        assert cached.candidates == plain.candidates and cached.keys == plain.keys
        # only the first ciphertext is enumerated; the second filters its tuples
        assert set(memo) == {(g.index, group_of(ref, g), group_of(f1, g)) for g in DIAGONAL_GROUPS}
        calls = []
        original = dfa.column_candidates
        monkeypatch.setattr(dfa, "column_candidates", lambda *args: calls.append(args) or original(*args))
        again = last_round_key(ref, [f1, f2], memo=memo)
        assert again.candidates == plain.candidates and again.keys == plain.keys
        assert calls == [] and len(memo) == 4

    def test_unknown_conflict_mode_rejected(self):
        with pytest.raises(ValueError, match="^on_conflict must be 'raise' or 'skip', got 'bogus'$"):
            last_round_key(bytes(16), [], on_conflict="bogus")

    def test_empty_list_is_unconstrained(self):
        result = last_round_key(bytes(16), [])
        assert result.key is None
        assert result.candidates == (None,) * 4

    def test_wrong_round_signature_skipped(self):
        # a fault one round late touches a single group and is skipped
        rng = random.Random(32)
        ks, pt, ref, good1 = make_pair(rng, key=bytes(range(32)))
        good2 = encrypt_with_faults(pt, ks, [byte_fault(12, 9, 0x17)])
        late = encrypt_with_faults(pt, ks, [byte_fault(13, 0, 0x55)])
        result = last_round_key(ref, [late, good1, good2])
        assert result.key == ks.round_keys[14]
        assert result.skipped == [(0, "diff does not cover all 4 groups")]

    def test_inconsistent_ct_raises_and_names_offender(self):
        rng = random.Random(33)
        ks, pt, ref, good = make_pair(rng, key=bytes(range(32)))
        junk = bytes(rng.randrange(256) for _ in range(16))
        with pytest.raises(InconsistentPairError) as err:
            last_round_key(ref, [good, junk])
        assert err.value.ct == junk

    def test_skip_mode_survives_bad_ct(self):
        rng = random.Random(34)
        ks, pt, ref, good1 = make_pair(rng, key=bytes(range(32)))
        good2 = encrypt_with_faults(pt, ks, [byte_fault(12, 3, 0x99)])
        junk = bytes(rng.randrange(256) for _ in range(16))
        result = last_round_key(ref, [good1, junk, good2], on_conflict="skip")
        assert result.key == ks.round_keys[14]
        assert [i for i, _ in result.skipped] == [1]

    def test_monotonic_shrinkage(self):
        rng = random.Random(35)
        ks, pt, ref, f1 = make_pair(rng, key=bytes(range(32)))
        f2 = encrypt_with_faults(pt, ks, [byte_fault(12, 11, 0x23)])
        one = last_round_key(ref, [f1])
        two = last_round_key(ref, [f1, f2])
        for a, b in zip(two.candidates, one.candidates):
            assert a.tuples <= b.tuples

    def test_static_mask_invariance(self):
        # a shared corruption in both the reference and the faulty runs
        # changes neither success nor the recovered key
        rng = random.Random(36)
        for _ in range(10):
            key = bytes(rng.randrange(256) for _ in range(32))
            ks = expand_key(key)
            pt = bytes(rng.randrange(256) for _ in range(16))
            z = bytearray(16)
            for pos in rng.sample(range(16), rng.randrange(1, 17)):
                z[pos] = rng.randrange(1, 256)
            static = FaultSpec(StepId(12, AesOp.MIX_COLUMNS), bytes(z))
            dyn = [byte_fault(12, rng.randrange(16), rng.randrange(1, 256)) for _ in range(2)]

            plain_ref = encrypt_block(pt, ks)
            plain = last_round_key(plain_ref, [encrypt_with_faults(pt, ks, [d]) for d in dyn])
            masked_ref = encrypt_with_faults(pt, ks, [static])
            masked = last_round_key(
                masked_ref, [encrypt_with_faults(pt, ks, [static, d]) for d in dyn]
            )
            if plain.key is not None and masked.key is not None:
                assert plain.key == masked.key == ks.round_keys[14]


class TestSingleColumnKey:
    def test_recovers_column_within_five_faults(self):
        rng = random.Random(41)
        key = bytes(rng.randrange(256) for _ in range(32))
        ks = expand_key(key)
        pt = bytes(rng.randrange(256) for _ in range(16))
        ref = encrypt_block(pt, ks)
        pos = 2  # row 2 of column 0 at the round 13 MixColumns input
        cts = [
            encrypt_with_faults(pt, ks, [byte_fault(13, pos, rng.randrange(1, 256))])
            for _ in range(5)
        ]
        for upto in range(1, 6):
            result = single_column_key(ref, cts[:upto])
            if result.key is not None:
                (group,) = touched_groups(ref, cts[0])
                assert result.key == bytes(ks.round_keys[14][p] for p in group.positions)
                break
        else:
            pytest.fail("five single-column faults did not pin the key bytes")

    def test_candidates_sit_at_the_faulted_group(self):
        rng = random.Random(44)
        ks = expand_key(bytes(rng.randrange(256) for _ in range(32)))
        pt = bytes(rng.randrange(256) for _ in range(16))
        ref = encrypt_block(pt, ks)
        for pos in (0, 5, 10, 15):  # one state column each
            ct = encrypt_with_faults(pt, ks, [byte_fault(13, pos, 0x3C)])
            (group,) = touched_groups(ref, ct)
            result = single_column_key(ref, [ct])
            assert [c is not None for c in result.candidates] == [g == group for g in DIAGONAL_GROUPS]
            truth = pack(ks.round_keys[14][p] for p in group.positions)
            assert truth in result.candidates[group.index].tuples

    def test_zero_diff_rejected(self):
        ref = bytes(range(16))
        with pytest.raises(ValueError, match="spans 0"):
            single_column_key(ref, [ref])

    def test_multi_group_diff_rejected(self):
        rng = random.Random(42)
        ks, pt, ref, wide = make_pair(rng)  # round 12 fault touches all groups
        with pytest.raises(ValueError, match="spans 4"):
            single_column_key(ref, [wide])

    def test_no_faulty_ciphertext_rejected(self):
        with pytest.raises(ValueError, match="^need at least one faulty ciphertext$"):
            single_column_key(bytes(16), [])

    def test_faults_in_different_groups_rejected(self):
        rng = random.Random(45)
        ks, pt, ref, _ = make_pair(rng)
        # state bytes 0 and 5 sit in columns 0 and 1
        cts = [encrypt_with_faults(pt, ks, [byte_fault(13, pos, 0x3C)]) for pos in (0, 5)]
        assert touched_groups(ref, cts[0]) != touched_groups(ref, cts[1])
        with pytest.raises(ValueError, match="^faulty ciphertexts target different diagonal groups$"):
            single_column_key(ref, cts)

    def test_repeated_fault_adds_nothing(self):
        rng = random.Random(43)
        key = bytes(rng.randrange(256) for _ in range(32))
        ks = expand_key(key)
        pt = bytes(rng.randrange(256) for _ in range(16))
        ref = encrypt_block(pt, ks)
        ct = encrypt_with_faults(pt, ks, [byte_fault(13, 0, 0x3C)])
        once = single_column_key(ref, [ct])
        twice = single_column_key(ref, [ct, ct])
        assert once.candidates == twice.candidates
        assert twice.key is None  # one effective fault rarely pins 4 bytes


def _penultimate(ref, cts):
    return penultimate_round_key(ref, cts, bytes(16))


@pytest.mark.parametrize("solve", [last_round_key, single_column_key, _penultimate])
@pytest.mark.parametrize("length", [15, 17])
@pytest.mark.parametrize("which", ["reference", "faulty"])
def test_block_length_is_checked(solve, length, which):
    # a 15-byte block used to raise IndexError, a 17-byte one to lose its tail
    _, _, ref, ct = make_pair(random.Random(46))
    if which == "reference":
        ref = (ref + ref)[:length]
    else:
        ct = (ct + ct)[:length]
    with pytest.raises(ValueError, match=f"^ciphertext must be 16 bytes, got {length}$"):
        solve(ref, [ct])


class TestPenultimateRoundKey:
    def test_full_two_stage_recovery(self):
        rng = random.Random(51)
        key = bytes(rng.randrange(256) for _ in range(32))
        ks = expand_key(key)
        pt = bytes(rng.randrange(256) for _ in range(16))
        ref = encrypt_block(pt, ks)
        r12 = [
            encrypt_with_faults(pt, ks, [byte_fault(12, rng.randrange(16), rng.randrange(1, 256))])
            for _ in range(3)
        ]
        r11 = [
            encrypt_with_faults(pt, ks, [byte_fault(11, rng.randrange(16), rng.randrange(1, 256))])
            for _ in range(3)
        ]
        stage1 = last_round_key(ref, r12)
        assert stage1.key == ks.round_keys[14]
        stage2 = penultimate_round_key(ref, r11, stage1.key)
        assert stage2.key == ks.round_keys[13]
        assert invert_key_schedule(256, [stage2.key, stage1.key]) == key

    def test_wrong_k14_fails(self):
        rng = random.Random(52)
        key = bytes(rng.randrange(256) for _ in range(32))
        ks = expand_key(key)
        pt = bytes(rng.randrange(256) for _ in range(16))
        ref = encrypt_block(pt, ks)
        r11 = [
            encrypt_with_faults(pt, ks, [byte_fault(11, rng.randrange(16), rng.randrange(1, 256))])
            for _ in range(2)
        ]
        bad = bytearray(ks.round_keys[14])
        bad[0] ^= 1
        try:
            result = penultimate_round_key(ref, r11, bytes(bad))
            assert result.key != ks.round_keys[13]
        except InconsistentPairError:
            pass

    def test_no_faults_insufficient(self):
        result = penultimate_round_key(bytes(16), [], bytes(16))
        assert result.key is None


class TestToyEquivalence:
    def test_solver_matches_exhaustive_enumeration(self):
        rng = random.Random(61)
        for _ in range(50):
            key, ref, faulty = toy_fault_pair(rng)
            g = DIAGONAL_GROUPS[0]
            cand = column_candidates(ref, faulty, g, tables=TOY_TABLES)
            oracle = exhaustive_tuples(ref, faulty)
            assert cand.tuples == oracle
            assert pack(key) in cand.tuples


class TestSoundnessProperties:
    # the true key must survive every update derived from a genuine
    # single-byte fault, whatever its position, value, or the key

    @given(
        pos=st.integers(0, 15),
        value=st.integers(1, 255),
        key_seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_true_key_survives_last_round_update(self, pos, value, key_seed):
        rng = random.Random(key_seed)
        key = bytes(rng.randrange(256) for _ in range(32))
        ks = expand_key(key)
        pt = bytes(rng.randrange(256) for _ in range(16))
        ref = encrypt_block(pt, ks)
        faulty = encrypt_with_faults(pt, ks, [byte_fault(12, pos, value)])
        result = last_round_key(ref, [faulty])
        for col in result.candidates:
            assert pack(ks.round_keys[14][p] for p in col.group.positions) in col.tuples

    @given(
        pos=st.integers(0, 15),
        value=st.integers(1, 255),
        key_seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_true_key_survives_peeled_update(self, pos, value, key_seed):
        from aesdfa.aes import inv_mix_columns, peel_final_round

        rng = random.Random(key_seed)
        key = bytes(rng.randrange(256) for _ in range(32))
        ks = expand_key(key)
        pt = bytes(rng.randrange(256) for _ in range(16))
        ref = encrypt_block(pt, ks)
        faulty = encrypt_with_faults(pt, ks, [byte_fault(11, pos, value)])
        peeled_target = inv_mix_columns(ks.round_keys[13])
        result = last_round_key(
            peel_final_round(ref, ks.round_keys[14]),
            [peel_final_round(faulty, ks.round_keys[14])],
        )
        for col in result.candidates:
            assert pack(peeled_target[p] for p in col.group.positions) in col.tuples


def fault_column(key, state, row, eps):
    """One group's faulty bytes for a genuine fault eps in state row `row`."""
    return [SBOX[s ^ gf_mul(MIX_MATRIX[i][row], eps)] ^ k for i, (k, s) in enumerate(zip(key, state))]


@st.composite
def filter_cases(draw):
    """(ref, fa, fb): fa a genuine fault; fb a second one of the same key,
    random bytes, or a genuine fault with one byte equal to the reference."""
    key, state = draw(group_bytes), draw(group_bytes)
    ref = [SBOX[s] ^ k for k, s in zip(key, state)]
    faults = st.tuples(st.integers(0, 3), st.integers(1, 255))
    fa = fault_column(key, state, *draw(faults))
    kind = draw(st.sampled_from(("in_model", "out_of_model", "equal_byte")))
    if kind == "out_of_model":
        fb = draw(group_bytes)
    else:
        fb = fault_column(key, state, *draw(faults))
        if kind == "equal_byte":
            pos = draw(st.integers(0, 3))
            fb[pos] = ref[pos]
    assume(fb != ref)
    return ref, fa, fb


class TestFilterTuples:
    @given(case=filter_cases())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_intersection_with_the_enumeration(self, case):
        ref, fa, fb = case
        g = DIAGONAL_GROUPS[0]
        first = array("I", column_candidates(ref, fa, g).tuples)
        expected = column_candidates(ref, fb, g).tuples
        assert list(_filter_tuples(first, ref, fb)) == [t for t in first if t in expected]

    def test_toy_filter_of_the_whole_key_space_is_the_exhaustive_set(self):
        every = array("I", (pack(t) for t in product(range(16), repeat=4)))
        rng = random.Random(62)
        for n in range(150):
            _, ref, faulty = toy_fault_pair(rng)
            # and random nibbles, or the genuine fault with one nibble equal to the reference
            other = [rng.randrange(16) for _ in range(4)] if n % 2 else [*faulty[:3], ref[3]]
            for fb in (faulty, other):
                if fb != ref:
                    assert frozenset(_filter_tuples(every, ref, fb, TOY_TABLES)) == exhaustive_tuples(ref, fb)

    def test_identical_bytes_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            _filter_tuples(array("I", [1]), [1, 2, 3, 4], [1, 2, 3, 4])


def intersecting_solve(ref_ct, faulty_cts, groups, on_conflict="raise"):
    """The solver by its first definition: enumerate every usable ciphertext
    in `groups` and intersect the sets. Returns (candidates, keys, used,
    skipped), or ("raised", ciphertext, group index) for the conflict."""
    acc = {g: None for g in groups}
    used, skipped = [], []
    for idx, ct in enumerate(faulty_cts):
        if any(group_of(ref_ct, g) == group_of(ct, g) for g in groups):
            skipped.append((idx, "diff does not cover all 4 groups"))
            continue
        merged = {}
        for g in groups:
            fresh = column_candidates(group_of(ref_ct, g), group_of(ct, g), g).tuples
            merged[g] = fresh if acc[g] is None else acc[g] & fresh
            if not merged[g]:
                if on_conflict == "raise":
                    return "raised", ct, g.index
                skipped.append((idx, f"no joint solution in group {g.index}"))
                break
        else:
            acc = merged
            used.append(idx)
    candidates = tuple(None if acc.get(g) is None else ColumnCandidates(g, acc[g]) for g in DIAGONAL_GROUPS)
    keys = []
    if len(groups) == 4 and all(acc.values()) and prod(len(s) for s in acc.values()) <= 16:
        # each tuple placed at its key positions, sorted as 16-byte little-endian ints
        placed = [
            sorted(sum(((t >> 8 * i) & 0xFF) << 8 * p for i, p in enumerate(g.positions)) for t in acc[g])
            for g in groups
        ]
        keys = [sum(parts).to_bytes(16, "little") for parts in product(*placed)]
    elif len(groups) == 1 and len(acc[groups[0]] or ()) == 1:
        keys = [next(iter(acc[groups[0]])).to_bytes(4, "little")]
    return candidates, keys, used, skipped


def solved(solve, *args, **kwargs):
    try:
        result = solve(*args, **kwargs)
    except InconsistentPairError as err:
        return "raised", err.ct, err.group.index
    return result.candidates, result.keys, result.used, result.skipped


POOL_KINDS = ("in_model", "repeated", "out_of_model", "single_group", "equal_byte")


def mixed_pool(seed, kinds, fault_round):
    """A reference and one faulty ciphertext per kind, all of one key and plaintext."""
    rng = random.Random(seed)
    ks, pt = expand_key(rng.randbytes(32)), rng.randbytes(16)
    ref = encrypt_block(pt, ks)
    target = rng.randrange(16)  # the state byte single-group faults hit
    cts = []
    for kind in kinds:
        if kind == "repeated" and cts:
            cts.append(rng.choice(cts))
        elif kind == "out_of_model":
            if fault_round == 12:
                cts.append(rng.randbytes(16))
            else:  # random bytes confined to the group the pool's faults hit
                g = touched_groups(ref, encrypt_with_faults(pt, ks, [byte_fault(13, target, 1)]))[0]
                junk = bytearray(ref)
                for p in g.positions:
                    junk[p] = rng.randrange(256)
                cts.append(bytes(junk))
        elif kind == "single_group" and fault_round == 12:
            cts.append(encrypt_with_faults(pt, ks, [byte_fault(13, rng.randrange(16), rng.randrange(1, 256))]))
        else:
            pos = target if fault_round == 13 else rng.randrange(16)
            ct = bytearray(encrypt_with_faults(pt, ks, [byte_fault(fault_round, pos, rng.randrange(1, 256))]))
            if kind == "equal_byte":
                p = rng.choice([p for p in range(16) if ct[p] != ref[p]])
                ct[p] = ref[p]
            cts.append(bytes(ct))
    return ref, cts


class TestAgainstIntersectingSolver:
    @given(seed=st.integers(0, 2**32), kinds=st.lists(st.sampled_from(POOL_KINDS), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_last_round_key(self, seed, kinds):
        ref, cts = mixed_pool(seed, kinds, fault_round=12)
        for mode in ("raise", "skip"):
            expected = intersecting_solve(ref, cts, DIAGONAL_GROUPS, on_conflict=mode)
            assert solved(last_round_key, ref, cts, on_conflict=mode) == expected

    @given(seed=st.integers(0, 2**32), kinds=st.lists(st.sampled_from(POOL_KINDS), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_single_column_key(self, seed, kinds):
        ref, cts = mixed_pool(seed, kinds, fault_round=13)
        groups = {tuple(touched_groups(ref, ct)) for ct in cts}
        assume(len(groups) == 1 and len(next(iter(groups))) == 1)
        expected = intersecting_solve(ref, cts, next(iter(groups)))
        assert solved(single_column_key, ref, cts) == expected

    def test_first_ciphertext_is_named_when_it_empties_a_later_group(self):
        # the first leaves no tuple in group 2 by itself, the second none in
        # group 0; a solver that ran group 0 of every ciphertext before group 2
        # would name the second
        rng = random.Random(38)
        ks, pt, ref, first = make_pair(rng)
        second = encrypt_with_faults(pt, ks, [byte_fault(12, 4, 0x6D)])
        first, second = bytearray(first), bytearray(second)
        first[DIAGONAL_GROUPS[2].positions[1]] = ref[DIAGONAL_GROUPS[2].positions[1]]
        second[DIAGONAL_GROUPS[0].positions[3]] = ref[DIAGONAL_GROUPS[0].positions[3]]
        cts = [bytes(first), bytes(second)]
        g0 = DIAGONAL_GROUPS[0]
        assert column_candidates(group_of(ref, g0), group_of(first, g0), g0).tuples
        expected = intersecting_solve(ref, cts, DIAGONAL_GROUPS)
        assert expected == ("raised", cts[0], 2)
        assert solved(last_round_key, ref, cts) == expected
        skipped = last_round_key(ref, cts, on_conflict="skip").skipped
        assert skipped == [(0, "no joint solution in group 2"), (1, "no joint solution in group 0")]
