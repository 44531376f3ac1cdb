import dataclasses

import pytest

from aesdfa import analyze
from aesdfa.aes import AesOp, StepId, expand_key
from aesdfa.analyze import (
    NoViableOffset,
    OffsetStats,
    build_profile,
    localize_records,
    recommend_offsets,
    render_table,
)
from aesdfa.campaign import CampaignConfig, MaskRule, OffsetBehavior, generate_campaign, quantize_offset
from aesdfa.localizer import LocalizationReport, localize

KEY = bytes(range(32))
PT = bytes.fromhex("00112233445566778899aabbccddeeff")
KS = expand_key(KEY)


def step(round_, op=AesOp.MIX_COLUMNS):
    return StepId(round_, op)


def sweep_config(seed=0, samples=150):
    # five labeled offsets, each pinned to a different step
    offsets = {
        270.0: OffsetBehavior(((step(13), MaskRule(1), 1.0),)),
        270.25: OffsetBehavior(((step(12), MaskRule(1), 1.0),)),
        271.5: OffsetBehavior(((step(12, AesOp.SUB_BYTES), MaskRule(1), 1.0),)),
        272.0: OffsetBehavior(((step(11), MaskRule(1), 1.0),)),
        273.5: OffsetBehavior(((step(10), MaskRule(4), 1.0),)),
    }
    return CampaignConfig(key=KEY, plaintext=PT, samples=samples, offsets=offsets, seed=seed)


def test_profile_counts_match_records():
    records = generate_campaign(sweep_config())
    profile = build_profile(KS, records)
    assert sum(s.samples for s in profile.per_offset.values()) == 150  # baseline not profiled
    assert sum(profile.bit_histogram().values()) == sum(
        s.faulted for s in profile.per_offset.values()
    )


def test_profile_counts_ambiguous_reports(monkeypatch):
    # the localizer never reports ambiguity on simulated single faults, so a
    # stub decides it from the ciphertext's first byte
    def stub(ks, pt, cts):
        return [
            None if ct[0] % 3 == 0 else LocalizationReport(step(12), bytes(15) + b"\x01", 1, ambiguous=ct[0] % 3 == 1)
            for ct in cts
        ]

    monkeypatch.setattr(analyze, "localize_many", stub)
    records = generate_campaign(sweep_config())
    profile = build_profile(KS, records)
    for offset, stats in profile.per_offset.items():
        cts = [r.ciphertext for r in records if r.offset_n == offset]
        assert stats.faulted == sum(1 for ct in cts if ct[0] % 3)
        assert stats.ambiguous == sum(1 for ct in cts if ct[0] % 3 == 1)
    assert sum(s.ambiguous for s in profile.per_offset.values()) > 0


def interleaved_records():
    # two plaintexts under one key, their records alternating, baselines included
    first = generate_campaign(sweep_config(seed=1, samples=60))
    other = generate_campaign(dataclasses.replace(sweep_config(seed=2, samples=45), plaintext=bytes(range(16))))
    records = [rec for pair in zip(first, other) for rec in pair] + first[len(other):]
    return records + records[7:19]  # and some records seen twice


def fold_one_by_one(ks, records):
    """build_profile as a fold over per-record `localize` calls."""
    per_offset = {}
    for record in records:
        if record.offset_n is None:
            continue
        stats = per_offset.setdefault(quantize_offset(record.offset_n), OffsetStats())
        stats.samples += 1
        report = localize(ks, record.plaintext, record.ciphertext)
        if report is None:
            continue
        stats.faulted += 1
        stats.ambiguous += report.ambiguous
        stats.step_counts[report.step] += 1
        stats.bit_counts[report.hamming] += 1
        if sum(1 for b in report.mask if b) == 1:
            stats.single_byte_steps[report.step] += 1
    return dict(sorted(per_offset.items()))


def as_rows(per_offset):
    # Counter contents in insertion order, which ties in most_common follow
    return [
        (n, s.samples, s.faulted, s.ambiguous, *(list(c.items()) for c in (s.step_counts, s.bit_counts, s.single_byte_steps)))
        for n, s in per_offset.items()
    ]


def test_profile_of_interleaved_plaintexts_equals_per_record_fold():
    records = interleaved_records()
    assert len({rec.plaintext for rec in records}) == 2
    assert as_rows(build_profile(KS, records).per_offset) == as_rows(fold_one_by_one(KS, records))


def test_labels_that_quantize_alike_share_one_offset():
    # build_profile quantizes each distinct label once; labels equal after
    # quantizing still fold into one offset, in first-seen order
    labels = [271.5, 271.5 + 1e-12, 0.0, -0.0, 271.5]
    records = [
        dataclasses.replace(rec, offset_n=labels[i % len(labels)])
        for i, rec in enumerate(generate_campaign(sweep_config(seed=3, samples=40))[1:])
    ]
    per_offset = build_profile(KS, records).per_offset
    assert list(per_offset) == [0.0, 271.5]
    assert as_rows(per_offset) == as_rows(fold_one_by_one(KS, records))


def test_localize_records_keeps_record_order():
    records = interleaved_records()
    assert localize_records(KS, records) == [localize(KS, r.plaintext, r.ciphertext) for r in records]


def test_profile_localizes_pinned_offsets():
    records = generate_campaign(sweep_config())
    profile = build_profile(KS, records)
    stats = profile.per_offset[270.25]
    assert stats.step_counts.most_common(1)[0][0] == step(12)
    assert stats.single_byte_rate_at(step(12)) > 0.9


def test_recommend_picks_pinned_offsets():
    records = generate_campaign(sweep_config())
    profile = build_profile(KS, records)
    chosen = recommend_offsets(profile, [12, 11])
    assert chosen == {12: 270.25, 11: 272.0}


def test_recommend_single_dominant_offset():
    cfg = CampaignConfig(
        key=KEY,
        plaintext=PT,
        samples=30,
        offsets={281.5: OffsetBehavior(((step(12), MaskRule(1), 1.0),))},
        seed=2,
    )
    profile = build_profile(KS, generate_campaign(cfg))
    assert recommend_offsets(profile, [12]) == {12: 281.5}


def test_recommend_no_viable_offset():
    cfg = sweep_config()
    profile = build_profile(KS, generate_campaign(cfg))
    with pytest.raises(NoViableOffset):
        recommend_offsets(profile, [5])


def test_recommend_empty_profile():
    records = generate_campaign(sweep_config(samples=0))
    profile = build_profile(KS, records)
    with pytest.raises(NoViableOffset):
        recommend_offsets(profile, [12])


def test_bit_histogram_is_single_bit_heavy():
    records = generate_campaign(sweep_config())
    bits = build_profile(KS, records).bit_histogram()
    assert bits.most_common(1)[0][0] == 1


def test_op_histogram_masses_on_pinned_op():
    cfg = CampaignConfig(
        key=KEY,
        plaintext=PT,
        samples=40,
        offsets={271.5: OffsetBehavior(((step(12), MaskRule(1), 1.0),))},
        seed=3,
    )
    ops = build_profile(KS, generate_campaign(cfg)).op_histogram()
    assert ops[AesOp.MIX_COLUMNS] >= 0.95 * sum(ops.values())
    assert AesOp.MIX_COLUMNS.value == 3


def test_render_table():
    text = render_table(["a", "bb"], [[1, "x"], [22, "yy"]])
    lines = text.splitlines()
    assert lines[0].split() == ["a", "bb"]
    assert lines[2].split() == ["1", "x"]
    assert lines[3].split() == ["22", "yy"]
