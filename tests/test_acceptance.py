"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to watch the
criterion lines stream). The opt-in full-width brute-force check is marked
slow; select it with ``-m slow``.
"""

import random
import time
from math import comb

import pytest

from aesdfa.aes import (
    AesOp,
    StepId,
    decrypt_block,
    encrypt_block,
    expand_key,
    invert_key_schedule,
)
from aesdfa.buster import bust
from aesdfa.dfa import DIAGONAL_GROUPS, InconsistentPairError, column_candidates, last_round_key
from aesdfa.engine import KeyslotEngine, run_borrow_chain
from aesdfa.faults import FaultSpec, encrypt_with_faults
from aesdfa.localizer import localize
from aesdfa.orchestrator import recover_key, verify_key
from reference import oracle_encrypt
from simhelpers import fault_campaign, single_byte_fault, spread_fault
from toycipher import TOY_TABLES, exhaustive_tuples, pack, toy_fault_pair

PT = bytes.fromhex("00112233445566778899aabbccddeeff")

FIPS_VECTORS = [
    # key, plaintext, ciphertext per the standard example vectors,
    # revalidated against the independent OpenSSL oracle below
    (
        bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
        PT,
        bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"),
    ),
    (
        bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617"),
        PT,
        bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191"),
    ),
    (
        bytes.fromhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"),
        PT,
        bytes.fromhex("8ea2b7ca516745bfeafc49904b496089"),
    ),
]


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_aes_correctness():
    started = time.perf_counter()
    for key, pt, expected in FIPS_VECTORS:
        assert oracle_encrypt(key, pt) == expected
        ks = expand_key(key)
        assert encrypt_block(pt, ks) == expected
        assert decrypt_block(expected, ks) == pt

    rng = random.Random(2024)
    ok = True
    for i in range(10_000):
        size = (16, 24, 32)[i % 3]
        key = bytes(rng.randrange(256) for _ in range(size))
        block = bytes(rng.randrange(256) for _ in range(16))
        ks = expand_key(key)
        if decrypt_block(encrypt_block(block, ks), ks) != block:
            ok = False
            break
    elapsed = time.perf_counter() - started
    _criterion(
        1,
        "AES correctness",
        ok and elapsed < 10,
        f"3 published vectors + 10000 round-trips in {elapsed:.1f}s",
    )


def _two_fault_trial(rng, n_faults):
    key = bytes(rng.randrange(256) for _ in range(32))
    ks = expand_key(key)
    pt = bytes(rng.randrange(256) for _ in range(16))
    ref = encrypt_block(pt, ks)
    cts = [
        encrypt_with_faults(pt, ks, [single_byte_fault(12, rng.randrange(16), rng.randrange(1, 256))])
        for _ in range(n_faults)
    ]
    try:
        result = last_round_key(ref, cts, on_conflict="skip")
    except InconsistentPairError:
        return False
    return result.key == ks.round_keys[14]


def test_criterion_2_two_fault_recovery():
    started = time.perf_counter()
    rng = random.Random(7)
    two = sum(_two_fault_trial(rng, 2) for _ in range(200))
    three = sum(_two_fault_trial(rng, 3) for _ in range(200))
    elapsed = time.perf_counter() - started
    _criterion(
        2,
        "two-fault last-round-key recovery",
        two >= 180 and three >= 198 and elapsed < 60,
        f"2 faults: {two}/200, 3 faults: {three}/200, {elapsed:.1f}s",
    )


def test_criterion_3_full_aes256_pipeline():
    started = time.perf_counter()
    rng = random.Random(11)
    wins = 0
    for _ in range(50):
        key = bytes(rng.randrange(256) for _ in range(32))
        clean, r2, r3 = fault_campaign(key, PT, rng, n_r2=3, n_r3=3)
        report = recover_key(clean, r2, r3, PT, mode="pairwise")
        if report.recovered_key == key and verify_key(report.recovered_key, PT, clean):
            wins += 1
    elapsed = time.perf_counter() - started
    _criterion(
        3,
        "full AES-256 two-stage recovery",
        wins == 50 and elapsed < 60,
        f"{wins}/50 seeds, {elapsed:.1f}s",
    )


def _static_mask(rng, dyn_pos):
    while True:
        count = rng.randrange(1, 17)
        positions = rng.sample(range(16), count)
        if positions == [dyn_pos]:
            continue  # a lone static byte on the glitch site would not defeat pairwise
        mask = bytearray(16)
        for pos in positions:
            mask[pos] = rng.randrange(1, 256)
        return bytes(mask)


def test_criterion_4_second_order_with_static_faults():
    started = time.perf_counter()
    rng = random.Random(13)
    recovered = failed_pairwise = 0
    for _ in range(25):
        key = bytes(rng.randrange(256) for _ in range(32))
        dyn_pos = rng.randrange(16)
        z = _static_mask(rng, dyn_pos)
        clean, r2, r3 = fault_campaign(
            key, PT, rng, n_r2=5, n_r3=5, static_mask=z, pinned_pos=dyn_pos
        )
        second = recover_key(clean, r2, r3, PT, mode="second_order")
        if (
            second.recovered_key == key
            and second.groupings_attempted["last_round"] <= 3 * comb(5, 3)
            and second.groupings_attempted["penultimate"] <= 3 * comb(5, 3)
        ):
            recovered += 1
        if recover_key(clean, r2, r3, PT, mode="pairwise").recovered_key is None:
            failed_pairwise += 1
    elapsed = time.perf_counter() - started
    _criterion(
        4,
        "second-order search under shared static faults",
        recovered == 25 and failed_pairwise == 25 and elapsed < 300,
        f"second-order {recovered}/25, pairwise negative control {failed_pairwise}/25, {elapsed:.1f}s",
    )


def test_criterion_5_localizer_accuracy():
    started = time.perf_counter()
    rng = random.Random(17)
    ks = expand_key(bytes(rng.randrange(256) for _ in range(32)))
    exact = 0
    trials = 1000
    for _ in range(trials):
        step = StepId(rng.randrange(2, 14), AesOp.MIX_COLUMNS)
        mask = bytearray(16)
        mask[rng.randrange(16)] = 1 << rng.randrange(8)
        faulty = encrypt_with_faults(PT, ks, [FaultSpec(step, bytes(mask))])
        report = localize(ks, PT, faulty)
        if report is not None and report.step == step and report.mask == bytes(mask):
            exact += 1
    elapsed = time.perf_counter() - started
    _criterion(
        5,
        "fault localization accuracy",
        exact >= 990 and elapsed < 30,
        f"{exact}/1000 exact, {elapsed:.1f}s",
    )


def test_criterion_6_pairwise_filtering():
    started = time.perf_counter()
    rng = random.Random(19)
    key = bytes(rng.randrange(256) for _ in range(32))
    clean, r2, r3 = fault_campaign(key, PT, rng, n_r2=6, n_r3=3, multi_byte_r2=6)
    r3 = r3 + [encrypt_with_faults(PT, expand_key(key), [spread_fault(11, rng)]) for _ in range(3)]
    report = recover_key(clean, r2, r3, PT, mode="pairwise")
    elapsed = time.perf_counter() - started
    ok = (
        report.recovered_key == key
        and report.groupings_attempted["last_round"] <= comb(len(r2), 2)
        and report.groupings_attempted["penultimate"] <= comb(len(r3), 2)
        and elapsed < 60
    )
    _criterion(
        6,
        "multi-byte filtering in the pairwise search",
        ok,
        f"{report.groupings_attempted['last_round']} of <= {comb(len(r2), 2)} pairings, {elapsed:.1f}s",
    )


def _engine_chain(hidden, chunk_bits):
    master = bytes(range(32))
    eng = KeyslotEngine()
    eng.add_slot(1, master, master=True)
    hidden_input = encrypt_block(hidden, expand_key(master))
    return run_borrow_chain(eng, 1, 2, hidden_input, bytes(range(16)), chunk_bits=chunk_bits)


def test_criterion_7_borrow_chain_and_buster():
    rng = random.Random(23)
    worst = 0.0
    wins = 0
    for _ in range(100):
        hidden = bytes(rng.randrange(256) for _ in range(16))
        art = _engine_chain(hidden, chunk_bits=16)
        result = bust(art)
        worst = max(worst, result.elapsed)
        if result.hidden == hidden and result.aes_ops <= 8 * (1 << 16):
            wins += 1
    _criterion(
        7,
        "borrow-chain emulation and chunked brute force",
        wins == 100 and worst < 1.0,
        f"{wins}/100 exact, worst set {worst:.2f}s",
    )


@pytest.mark.slow
def test_criterion_7_full_width_bust():
    # full 32-bit chunk machinery on one engine-emulated set. The hidden
    # block is drawn with bounded chunk values so the ascending scans
    # finish in minutes; throughput is reported, no time bound asserted.
    rng = random.Random(29)
    hidden = b"".join(
        [
            rng.randrange(1 << 17).to_bytes(4, "big"),
            rng.randrange(1 << 26).to_bytes(4, "big"),
            rng.randrange(1 << 26).to_bytes(4, "big"),
            rng.randrange(1 << 26).to_bytes(4, "big"),
        ]
    )
    art = _engine_chain(hidden, chunk_bits=32)
    result = bust(art)
    _criterion(
        "7-slow",
        "full-width (2^32 per chunk) bust",
        result.hidden == hidden,
        f"{result.aes_ops} block ops, {result.blocks_per_second:,.0f} blocks/s, {result.elapsed:.1f}s",
    )


def test_criterion_8_static_fault_invariance():
    started = time.perf_counter()
    rng = random.Random(31)
    both_succeeded = violations = 0
    for _ in range(100):
        key = bytes(rng.randrange(256) for _ in range(32))
        ks = expand_key(key)
        pt = bytes(rng.randrange(256) for _ in range(16))
        dyn = [single_byte_fault(12, rng.randrange(16), rng.randrange(1, 256)) for _ in range(2)]
        z = _static_mask(rng, dyn_pos=-1)
        static = FaultSpec(StepId(12, AesOp.MIX_COLUMNS), z)

        def solve(extra):
            ref = encrypt_with_faults(pt, ks, extra)
            cts = [encrypt_with_faults(pt, ks, extra + [d]) for d in dyn]
            try:
                return last_round_key(ref, cts, on_conflict="skip").key
            except InconsistentPairError:
                return None

        plain, masked = solve([]), solve([static])
        if plain is not None and masked is not None:
            both_succeeded += 1
            if plain != masked or plain != ks.round_keys[14]:
                violations += 1
    elapsed = time.perf_counter() - started
    _criterion(
        8,
        "static-fault invariance of the solver",
        violations == 0 and both_succeeded >= 90,
        f"{both_succeeded}/100 trials solved on both sides, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_9_toy_cipher_oracle_equivalence():
    rng = random.Random(37)
    matches = 0
    for _ in range(50):
        key, ref, faulty = toy_fault_pair(rng)
        cand = column_candidates(ref, faulty, DIAGONAL_GROUPS[0], tables=TOY_TABLES)
        oracle = exhaustive_tuples(ref, faulty)
        if cand.tuples == oracle and pack(key) in cand.tuples:
            matches += 1
    _criterion(
        9,
        "solver equals exhaustive enumeration on the reduced cipher",
        matches == 50,
        f"{matches}/50 instances identical",
    )
