import io
import random

import pytest

from aesdfa.aes import AesOp, StepId, encrypt_block, expand_key
from aesdfa.campaign import (
    CampaignConfig,
    CiphertextRecord,
    ConfigError,
    MaskRule,
    OffsetBehavior,
    RecordFormatError,
    generate_campaign,
    parse_config,
    quantize_offset,
    read_records,
    records_to_lines,
)

KEY = bytes(range(32))
PT = bytes.fromhex("00112233445566778899aabbccddeeff")


def mc_offsets(round_=12, bits=1, byte=None, n=271.5):
    rule = MaskRule(bits=bits, byte=byte)
    return {n: OffsetBehavior(((StepId(round_, AesOp.MIX_COLUMNS), rule, 1.0),))}


def base_config(**overrides):
    kwargs = dict(key=KEY, plaintext=PT, samples=20, offsets=mc_offsets(), seed=3)
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


class TestGenerateCampaign:
    def test_deterministic(self):
        a = generate_campaign(base_config())
        b = generate_campaign(base_config())
        assert records_to_lines(a) == records_to_lines(b)

    def test_seed_changes_output(self):
        a = generate_campaign(base_config(seed=1))
        b = generate_campaign(base_config(seed=2))
        assert records_to_lines(a) != records_to_lines(b)

    def test_baseline_record_first(self):
        records = generate_campaign(base_config())
        baseline = records[0]
        assert not baseline.faulted
        assert baseline.offset_n is None and baseline.width_m is None
        assert baseline.ciphertext == encrypt_block(PT, expand_key(KEY))

    def test_zero_fault_rate_all_clean(self):
        records = generate_campaign(base_config(fault_rate=0.0))
        clean = encrypt_block(PT, expand_key(KEY))
        assert all(not r.faulted for r in records)
        assert all(r.ciphertext == clean for r in records)

    def test_faulted_records_differ_from_clean(self):
        records = generate_campaign(base_config())
        clean = encrypt_block(PT, expand_key(KEY))
        assert all(r.ciphertext != clean for r in records if r.faulted)
        assert sum(r.faulted for r in records) == 20

    def test_static_mask_marks_every_glitched_sample(self):
        z = bytes([0, 0x80] + [0] * 14)
        records = generate_campaign(base_config(fault_rate=0.0, static_mask=z))
        glitched = records[1:]
        assert all(r.faulted for r in glitched)
        # static only, identical every run
        assert len({r.ciphertext for r in glitched}) == 1

    def test_static_mask_keeps_draws_aligned(self):
        z = bytes([0, 0x80] + [0] * 14)
        plain = generate_campaign(base_config())
        masked = generate_campaign(base_config(static_mask=z))
        assert plain[0].ciphertext == masked[0].ciphertext
        assert all(p.offset_n == m.offset_n for p, m in zip(plain, masked))
        assert all(p.ciphertext != m.ciphertext for p, m in zip(plain[1:], masked[1:]))

    def test_empty_offsets_rejected(self):
        with pytest.raises(ValueError, match="at least one glitch offset"):
            base_config(offsets={})

    def test_byte_pinned_masks_stay_in_byte(self):
        records = generate_campaign(base_config(offsets=mc_offsets(bits=3, byte=4), samples=50))
        ks = expand_key(KEY)
        from aesdfa.localizer import localize

        for rec in records:
            if rec.faulted:
                report = localize(ks, rec.plaintext, rec.ciphertext)
                nonzero = [i for i, b in enumerate(report.mask) if b]
                assert nonzero == [4]


class TestMaskRule:
    def test_bit_count(self):
        rng = random.Random(0)
        for bits in (1, 2, 5, 8, 16):
            rule = MaskRule(bits=bits)
            mask = rule.draw(rng)
            assert sum(b.bit_count() for b in mask) == bits

    def test_validation(self):
        with pytest.raises(ValueError, match="1..128"):
            MaskRule(bits=0)
        with pytest.raises(ValueError, match="at most 8"):
            MaskRule(bits=9, byte=1)
        with pytest.raises(ValueError, match="0..15"):
            MaskRule(bits=1, byte=16)


class TestRecordsIo:
    def test_roundtrip_identity(self):
        records = generate_campaign(base_config())
        text = records_to_lines(records)
        again = read_records(io.StringIO(text))
        assert again == records
        assert records_to_lines(again) == text

    def test_field_names(self):
        import json

        line = generate_campaign(base_config())[0].to_json()
        assert set(json.loads(line)) == {"plaintext", "ciphertext", "n", "m", "slot", "faulted"}

    def test_bad_json_reports_line(self):
        good = generate_campaign(base_config(samples=1))
        text = records_to_lines(good) + "{broken\n"
        with pytest.raises(RecordFormatError) as err:
            read_records(io.StringIO(text))
        assert err.value.line_no == 3

    def test_missing_field_reports_line(self):
        with pytest.raises(RecordFormatError, match="line 1: missing fields: ciphertext"):
            read_records(io.StringIO('{"plaintext": "00", "n": 1, "m": 1, "slot": 0, "faulted": false}\n'))

    def test_bad_hex_reports_line(self):
        with pytest.raises(RecordFormatError, match="^line 1: plaintext is not valid hex$"):
            read_records(
                io.StringIO(
                    '{"plaintext": "zz", "ciphertext": "00", "n": 1, "m": 1, "slot": 0, "faulted": false}\n'
                )
            )

    def test_short_block_reports_line(self):
        line = generate_campaign(base_config(samples=1))[1].to_json()
        short = line.replace('"ciphertext": "', '"ciphertext": "00', 1)
        with pytest.raises(RecordFormatError, match="^line 2: ciphertext must be 16 bytes, got 17$"):
            read_records(io.StringIO(line + "\n" + short + "\n"))

    def test_record_validates_hex(self):
        with pytest.raises(ValueError, match="^plaintext must be 16 bytes, got 1$"):
            CiphertextRecord(b"\0", bytes(16), None, None, 0, False)
        with pytest.raises(ValueError, match="^ciphertext must be 16 bytes, got 17$"):
            CiphertextRecord(bytes(16), bytes(17), None, None, 0, False)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("faulted", "false"),
            ("faulted", 0),
            ("slot", 1.9),
            ("slot", True),
            ("slot", "1"),
            ("n", "271.5"),
            ("n", True),
            ("n", float("nan")),
            ("m", "1.0"),
            ("m", float("inf")),
        ],
    )
    def test_field_types_are_strict(self, field, value):
        import json

        lines = [rec.to_json() for rec in generate_campaign(base_config(samples=2))]
        raw = json.loads(lines[1])
        raw[field] = value
        lines[1] = json.dumps(raw)
        with pytest.raises(RecordFormatError, match=f"line 2: {field} must be"):
            read_records(io.StringIO("\n".join(lines) + "\n"))

    def test_integer_offsets_load_as_floats(self):
        lines = records_to_lines(generate_campaign(base_config(samples=1)))
        rec = read_records(io.StringIO(lines.replace('"n": null', '"n": 271')))[0]
        assert rec.offset_n == 271.0 and isinstance(rec.offset_n, float)


class TestQuantizeOffset:
    def test_quarters_pass(self):
        assert quantize_offset(271.5) == 271.5
        assert quantize_offset(270.75) == 270.75
        assert quantize_offset(282.0) == 282.0

    def test_non_quarter_rejected(self):
        with pytest.raises(ValueError, match="quarter-cycle"):
            quantize_offset(271.3)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            quantize_offset(value)


CONFIG_TEXT = """\
# round-12 single-bit campaign
key = {key}
plaintext = {pt}
samples = 8
seed = 11
slot = 7
offset 271.5 = round=12 op=MixColumns bits=1 byte=0
offset 272.25 = round=11 op=mix_columns bits=1 weight=2
offset 272.25 = round=11 op=sub_bytes bits=2 weight=1
"""


class TestParseConfig:
    def make(self, text=None):
        text = text or CONFIG_TEXT.format(key=KEY.hex(), pt=PT.hex())
        return parse_config(io.StringIO(text))

    def test_full_parse(self):
        cfg = self.make()
        assert cfg.samples == 8 and cfg.seed == 11 and cfg.slot == 7
        assert set(cfg.offsets) == {271.5, 272.25}
        assert len(cfg.offsets[272.25].entries) == 2
        step, rule, weight = cfg.offsets[271.5].entries[0]
        assert step == StepId(12, AesOp.MIX_COLUMNS)
        assert rule == MaskRule(bits=1, byte=0)

    def test_parse_then_generate_matches_direct(self):
        cfg = self.make()
        assert records_to_lines(generate_campaign(cfg)) == records_to_lines(generate_campaign(cfg))

    def test_bad_line_number(self):
        text = CONFIG_TEXT.format(key=KEY.hex(), pt=PT.hex()) + "offset 273 = round=99 op=MixColumns\n"
        with pytest.raises(ConfigError) as err:
            self.make(text)
        assert err.value.line_no == 10

    def test_non_finite_offset_reports_line(self):
        text = CONFIG_TEXT.format(key=KEY.hex(), pt=PT.hex()) + "offset inf = round=12 op=MixColumns\n"
        with pytest.raises(ConfigError, match="finite") as err:
            self.make(text)
        assert err.value.line_no == 10

    def test_unknown_key_rejected(self):
        text = CONFIG_TEXT.format(key=KEY.hex(), pt=PT.hex()) + "bogus = 1\n"
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            self.make(text)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key 'plaintext'"):
            self.make("key = " + KEY.hex() + "\nsamples = 1\noffset 1 = round=12 op=MixColumns\n")

    def test_static_fields_must_pair(self):
        text = CONFIG_TEXT.format(key=KEY.hex(), pt=PT.hex()) + "static_round = 12\n"
        with pytest.raises(ConfigError, match="together"):
            self.make(text)
