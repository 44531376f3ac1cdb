import random

from aesdfa.aes import AesOp, StepId, encrypt_block, expand_key
from aesdfa.campaign import CampaignConfig, MaskRule, OffsetBehavior, generate_campaign
from aesdfa.faults import FaultSpec, decrypt_with_faults, encrypt_with_faults
from aesdfa.localizer import localize

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
