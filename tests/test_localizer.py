import random

import pytest

from aesdfa import aes, localizer
from aesdfa.aes import AesOp, StepId, encrypt_block, expand_key
from aesdfa.campaign import CampaignConfig, MaskRule, OffsetBehavior, generate_campaign
from aesdfa.faults import FaultSpec, decrypt_with_faults, encrypt_with_faults
from aesdfa.localizer import LocalizationReport, localize, localize_many

KS = expand_key(bytes(range(32)))
PT = bytes.fromhex("00112233445566778899aabbccddeeff")


def bit_mask(pos: int, bit: int) -> bytes:
    mask = bytearray(16)
    mask[pos] = 1 << bit
    return bytes(mask)


def test_clean_output_reports_no_fault():
    assert localize(KS, PT, encrypt_block(PT, KS)) is None


def test_single_bit_round_13_mix_columns():
    mask = bit_mask(0, 6)
    faulty = encrypt_with_faults(PT, KS, [FaultSpec(StepId(13, AesOp.MIX_COLUMNS), mask)])
    report = localize(KS, PT, faulty)
    assert report.step == StepId(13, AesOp.MIX_COLUMNS)
    assert report.mask == mask
    assert report.hamming == 1
    assert not report.ambiguous


def test_fault_before_sub_bytes_reported_there():
    mask = bit_mask(5, 0)
    faulty = encrypt_with_faults(PT, KS, [FaultSpec(StepId(9, AesOp.SUB_BYTES), mask)])
    report = localize(KS, PT, faulty)
    assert report.step == StepId(9, AesOp.SUB_BYTES)
    assert report.mask == mask


def test_exact_identification_rate_over_mix_columns_faults():
    rng = random.Random(77)
    exact = 0
    trials = 1000
    for _ in range(trials):
        rnd = rng.randrange(2, 14)  # 2..N-1
        mask = bit_mask(rng.randrange(16), rng.randrange(8))
        step = StepId(rnd, AesOp.MIX_COLUMNS)
        faulty = encrypt_with_faults(PT, KS, [FaultSpec(step, mask)])
        report = localize(KS, PT, faulty)
        if report.step == step and report.mask == mask:
            exact += 1
    assert exact >= 0.99 * trials


def test_direction_of_simulation_does_not_matter():
    # the faulty output produced through the inverse dataflow localizes
    # identically once mapped back to the encrypt-direction artifacts
    rng = random.Random(78)
    for _ in range(20):
        step = StepId(rng.randrange(2, 14), AesOp.MIX_COLUMNS)
        fault = FaultSpec(step, bit_mask(rng.randrange(16), rng.randrange(8)))
        via_encrypt = encrypt_with_faults(PT, KS, [fault])
        faulty_pt = decrypt_with_faults(encrypt_block(PT, KS), KS, [fault])
        via_decrypt = encrypt_block(faulty_pt, KS)
        assert via_decrypt == via_encrypt
        assert localize(KS, PT, via_decrypt) == localize(KS, PT, via_encrypt)


def test_mask_matches_injection_when_step_matches():
    rng = random.Random(79)
    for _ in range(100):
        step = StepId(rng.randrange(2, 14), AesOp.MIX_COLUMNS)
        mask = bit_mask(rng.randrange(16), rng.randrange(8))
        report = localize(KS, PT, encrypt_with_faults(PT, KS, [FaultSpec(step, mask)]))
        if report.step == step:
            assert report.mask == mask


def _pinned_config(samples, seed=0, fault_rate=1.0):
    return CampaignConfig(
        key=bytes(range(32)),
        plaintext=PT,
        samples=samples,
        offsets={272.25: OffsetBehavior(((StepId(12, AesOp.MIX_COLUMNS), MaskRule(bits=1), 1.0),))},
        seed=seed,
        fault_rate=fault_rate,
    )


def test_batch_on_pinned_campaign():
    records = generate_campaign(_pinned_config(samples=1000, seed=5))
    reports = [localize(KS, rec.plaintext, rec.ciphertext) for rec in records]
    assert reports[0] is None  # baseline record
    hits = sum(
        1
        for report in reports[1:]
        if report is not None and report.step == StepId(12, AesOp.MIX_COLUMNS)
    )
    assert hits >= 0.99 * 1000


def test_batch_all_clean():
    records = generate_campaign(_pinned_config(samples=10, fault_rate=0.0))
    assert all(localize(KS, rec.plaintext, rec.ciphertext) is None for rec in records)


def reference_inverse_trace(ct, ks):
    """(step, state) pairs in encryption order, from the single inverse
    operations one step at a time, without the batched inverse trace."""
    inverse = {AesOp.SUB_BYTES: aes.inv_sub_bytes, AesOp.SHIFT_ROWS: aes.inv_shift_rows,
               AesOp.MIX_COLUMNS: aes.inv_mix_columns}
    steps = [e.step for e in aes.encrypt_trace(bytes(16), ks)[1]]
    trace = []
    state = ct
    for step in reversed(steps):
        trace.append((step, state))
        op = inverse.get(step.op)
        state = aes.xor_bytes(state, ks.round_keys[step.round]) if op is None else op(state)
    return trace[::-1]


def reference_localize(ks, pt, faulty_ct):
    """The localizer byte by byte: per-byte XOR and popcount over inverse
    traces from the single operations, the clean side decrypted from the
    ciphertext, so no cached or batched trace."""
    clean_ct = encrypt_block(pt, ks)
    if clean_ct == faulty_ct:
        return None
    forward = reference_inverse_trace(clean_ct, ks)
    backward = reference_inverse_trace(faulty_ct, ks)
    diffs = [bytes(x ^ y for x, y in zip(f, b)) for (_, f), (_, b) in zip(forward, backward)]
    weights = [sum(bin(byte).count("1") for byte in d) for d in diffs]
    best = min(weights)
    minima = [i for i, w in enumerate(weights) if w == best]
    pick = minima[-1]
    steps = [step for step, _ in forward]
    return LocalizationReport(
        step=steps[min(pick + 1, len(steps) - 1)],
        mask=diffs[pick],
        hamming=best,
        ambiguous=minima != list(range(minima[0], pick + 1)),
    )


def mixed_config(seed, key_len):
    # offsets that mix steps, ops and bit counts, some of them many bytes wide
    ops = [AesOp.SUB_BYTES, AesOp.SHIFT_ROWS, AesOp.MIX_COLUMNS, AesOp.ADD_ROUND_KEY]
    rng = random.Random(seed)
    n_rounds = aes.ROUNDS_BY_KEY_LEN[key_len]
    offsets = {}
    for n in range(6):
        rnd = rng.randrange(1, n_rounds)
        entries = ((StepId(rnd, rng.choice(ops)), MaskRule(bits=rng.choice([1, 2, 4, 8, 16, 40])), 1.0),)
        offsets[270.0 + n / 4] = OffsetBehavior(entries)
    offsets[275.0] = OffsetBehavior(((StepId(0, AesOp.ADD_ROUND_KEY_INITIAL), MaskRule(bits=3), 1.0),))
    return CampaignConfig(
        key=rng.randbytes(key_len), plaintext=rng.randbytes(16), samples=60,
        offsets=offsets, fault_rate=0.8, seed=seed,
    )


@pytest.mark.parametrize("seed,key_len", [(1, 16), (2, 24), (3, 32), (4, 32)])
def test_matches_reference_on_mixed_campaigns(seed, key_len):
    cfg = mixed_config(seed, key_len)
    ks = expand_key(cfg.key)
    records = generate_campaign(cfg)
    assert any(not rec.faulted for rec in records[1:])  # clean records are covered too
    for rec in records:
        assert localize(ks, rec.plaintext, rec.ciphertext) == reference_localize(ks, rec.plaintext, rec.ciphertext)


@pytest.mark.parametrize("seed,key_len", [(5, 16), (6, 24), (7, 32)])
def test_batch_matches_reference_on_mixed_campaigns(seed, key_len):
    # clean records, round-0 faults and masks of up to 40 bits, in one batch
    cfg = mixed_config(seed, key_len)
    ks = expand_key(cfg.key)
    records = generate_campaign(cfg)
    cts = [rec.ciphertext for rec in records]
    reports = localize_many(ks, cfg.plaintext, cts)
    assert reports == [reference_localize(ks, cfg.plaintext, ct) for ct in cts]
    assert None in reports[1:]
    assert any(rec.faulted and rec.offset_n == 275.0 for rec in records)  # round 0
    assert any(r is not None and r.hamming > 8 for r in reports)


def popcount_reference(ks, pt, cts):
    """localize_many with every step's weight counted bit by bit over
    encrypt_trace and decrypt_traces, none taken over from the step before."""
    clean_ct, forward = aes.encrypt_trace(pt, ks)
    _, backward = aes.decrypt_traces(cts, ks)
    steps = [e.step for e in forward]
    reports = []
    for j, ct in enumerate(cts):
        if ct == clean_ct:
            reports.append(None)
            continue
        diffs = [bytes(x ^ y for x, y in zip(f.state, b.state[16 * j:16 * j + 16])) for f, b in zip(forward, backward)]
        weights = [sum(bin(byte).count("1") for byte in d) for d in diffs]
        best = min(weights)
        minima = [i for i, w in enumerate(weights) if w == best]
        pick = minima[-1]
        reports.append(
            LocalizationReport(
                step=steps[min(pick + 1, len(steps) - 1)],
                mask=diffs[pick],
                hamming=best,
                ambiguous=minima != list(range(minima[0], pick + 1)),
            )
        )
    return reports


@pytest.mark.parametrize("op", [AesOp.SHIFT_ROWS, AesOp.ADD_ROUND_KEY])
@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_shift_rows_and_add_round_key_faults_match_popcount_reference(key_len, op):
    # the batch carries the weight over at these steps instead of counting it
    rng = random.Random(key_len + op)
    ks = expand_key(rng.randbytes(key_len))
    pt = rng.randbytes(16)
    cts = []
    for rnd in range(1, ks.n_rounds + 1):
        for bits in (1, 2, 8, 40):
            mask = bytearray(16)
            for pos in rng.sample(range(128), bits):
                mask[pos // 8] |= 1 << pos % 8
            cts.append(encrypt_with_faults(pt, ks, [FaultSpec(StepId(rnd, op), bytes(mask))]))
    cts.append(encrypt_block(pt, ks))
    reports = localize_many(ks, pt, cts)
    assert reports == popcount_reference(ks, pt, cts)
    single_bit = reports[:-1:4]  # the 1-bit faults: no step differs by fewer bits
    assert all(r.hamming == 1 and sum(b.bit_count() for b in r.mask) == 1 for r in single_bit)


def test_chunks_do_not_change_reports(monkeypatch):
    cfg = mixed_config(8, 32)
    ks = expand_key(cfg.key)
    cts = [rec.ciphertext for rec in generate_campaign(cfg)]
    cts += cts[5:12]  # repeated ciphertexts share their report across chunks
    whole = localize_many(ks, cfg.plaintext, cts)
    monkeypatch.setattr(localizer, "_CHUNK", 3)
    assert localize_many(ks, cfg.plaintext, cts) == whole
    assert whole == [localize(ks, cfg.plaintext, ct) for ct in cts]


def test_empty_batch():
    assert localize_many(KS, PT, []) == []


def test_interleaved_keys_and_plaintexts_match_fresh_reports():
    rng = random.Random(80)
    pairs = [(expand_key(rng.randbytes(32)), rng.randbytes(16)) for _ in range(aes._TRACE_CACHE_SIZE + 8)]
    step = StepId(12, AesOp.MIX_COLUMNS)
    cases = [
        (ks, pt, encrypt_with_faults(pt, ks, [FaultSpec(step, bit_mask(i % 16, i % 8))]))
        for i, (ks, pt) in enumerate(pairs)
    ]
    # more distinct pairs than the cache holds, visited round-robin three times
    for _ in range(3):
        for ks, pt, faulty in rng.sample(cases, len(cases)):
            assert localize(ks, pt, faulty) == reference_localize(ks, pt, faulty)


def test_trace_cache_stays_bounded():
    rng = random.Random(81)
    for _ in range(100):
        pt = rng.randbytes(16)
        localize(KS, pt, rng.randbytes(16))
    info = aes._clean_trace.cache_info()
    assert info.maxsize == aes._TRACE_CACHE_SIZE
    assert info.currsize == aes._TRACE_CACHE_SIZE


def test_wrong_length_blocks_keep_their_errors():
    with pytest.raises(ValueError, match="^plaintext must be 16 bytes, got 15$"):
        localize(KS, PT[:15], encrypt_block(PT, KS))
    with pytest.raises(ValueError, match="^ciphertext must be 16 bytes, got 17$"):
        localize(KS, PT, encrypt_block(PT, KS) + b"x")
    faulty = encrypt_with_faults(PT, KS, [FaultSpec(StepId(12, AesOp.MIX_COLUMNS), bit_mask(0, 0))])
    with pytest.raises(ValueError, match="^plaintext must be 16 bytes, got 15$"):
        localize_many(KS, PT[:15], [faulty])
    with pytest.raises(ValueError, match="^ciphertext must be 16 bytes, got 15$"):
        localize_many(KS, PT, [faulty, faulty[:15]])
