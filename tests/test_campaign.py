import hashlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aesdfa import aes, campaign
from aesdfa.aes import _STEPS, ROUNDS_BY_KEY_LEN, AesOp, StepId, encrypt_block, expand_key
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
from aesdfa.faults import FaultSpec
from simhelpers import composed_with_faults

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

    def test_cancelling_masks_leave_an_unfaulted_record(self):
        # where the dynamic mask draws the static mask's one bit, the two cancel
        cfg = base_config(key=bytes(32), offsets=mc_offsets(byte=0), static_mask=bytes([1] + [0] * 15), samples=40)
        records = generate_campaign(cfg)
        clean = records[0].ciphertext
        assert [i for i, r in enumerate(records) if r.ciphertext == clean] == [0, 7, 8, 18, 25, 29, 31, 39]
        assert all(r.faulted == (r.ciphertext != clean) for r in records)
        assert records == reference_campaign(cfg)[0]

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


def reference_campaign(cfg):
    """The campaign one sample at a time: the seeded draws in their
    documented order (offset, weighted entry, whether the dynamic fault
    fires, its mask), each glitched run composed step by step from the
    public single operations. Returns (records, each run's fault list)."""
    rng = random.Random(cfg.seed)
    ks = expand_key(cfg.key)
    clean = composed_with_faults(cfg.plaintext, ks, [])
    records = [CiphertextRecord(cfg.plaintext, clean, None, None, cfg.slot, False)]
    runs = []
    offsets = sorted(cfg.offsets)
    for _ in range(cfg.samples):
        offset = offsets[0] if len(offsets) == 1 else rng.choice(offsets)
        entries = cfg.offsets[offset].entries
        step, rule = rng.choices([(s, r) for s, r, _ in entries], weights=[w for _, _, w in entries])[0]
        faults = []
        if cfg.static_mask is not None:
            faults.append(FaultSpec(cfg.static_step or step, cfg.static_mask))
        if rng.random() < cfg.fault_rate:
            faults.append(FaultSpec(step, rule.draw(rng)))
        runs.append(faults)
        ct = composed_with_faults(cfg.plaintext, ks, faults)
        records.append(CiphertextRecord(cfg.plaintext, ct, offset, cfg.width, cfg.slot, ct != clean))
    return records, runs


mask_rules = st.one_of(
    st.builds(MaskRule, bits=st.integers(1, 8), byte=st.integers(0, 15)),
    st.builds(MaskRule, bits=st.integers(1, 128)),
)


@st.composite
def placed_configs(draw, key_len, placement):
    """A config whose dynamic steps lie, against the static mask's step,
    as `placement` says: no static mask ("none"), the static mask at the
    drawn step ("drawn"), or pinned "earlier", "later" or "equal"."""
    steps = _STEPS[ROUNDS_BY_KEY_LEN[key_len]]
    pivot = draw(st.integers(1, len(steps) - 2))
    pool = {"earlier": steps[pivot + 1:], "later": steps[:pivot], "equal": steps[pivot:pivot + 1]}.get(placement, steps)
    entry = st.tuples(st.sampled_from(pool), mask_rules, st.sampled_from([0.5, 1.0, 2.5]))
    labels = draw(st.lists(st.integers(1080, 1100), min_size=1, max_size=3, unique=True))
    offsets = {n / 4: OffsetBehavior(tuple(draw(st.lists(entry, min_size=1, max_size=3)))) for n in labels}
    static = placement != "none"
    return CampaignConfig(
        key=draw(st.binary(min_size=key_len, max_size=key_len)),
        plaintext=draw(st.binary(min_size=16, max_size=16)),
        samples=draw(st.integers(0, 40)),
        offsets=offsets,
        slot=draw(st.integers(0, 7)),
        width=draw(st.sampled_from([1.0, -0.25])),
        fault_rate=draw(st.sampled_from([0.0, 0.5, 1.0])),
        static_mask=draw(st.binary(min_size=16, max_size=16).filter(any)) if static else None,
        static_step=steps[pivot] if placement in ("earlier", "later", "equal") else None,
        seed=draw(st.integers(0, 2**32)),
    )


@pytest.mark.parametrize("placement", ["none", "drawn", "earlier", "later", "equal"])
@pytest.mark.parametrize("key_len", [16, 24, 32])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_campaign_matches_per_sample_reference(key_len, placement, data):
    cfg = data.draw(placed_configs(key_len, placement))
    records, runs = reference_campaign(cfg)
    assert campaign._draw_samples(cfg) == [
        (record.offset_n, [(f.step, f.mask) for f in faults]) for record, faults in zip(records[1:], runs)
    ]
    assert generate_campaign(cfg) == records


def test_batch_boundaries_do_not_change_records(monkeypatch):
    cfg = base_config(samples=40, fault_rate=0.5, static_mask=bytes([0, 0x80] + [0] * 14))
    whole = generate_campaign(cfg)
    monkeypatch.setattr(aes, "_BATCH", 3)
    assert generate_campaign(cfg) == whole == reference_campaign(cfg)[0]


PINNED_CONFIGS = {
    # the README's example
    "readme": (
        """key = 000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f
plaintext = 00112233445566778899aabbccddeeff
samples = 24
seed = 4
offset 271.5  = round=12 op=MixColumns bits=1
offset 272.25 = round=11 op=MixColumns bits=1
""",
        "43923d1951a78a4bc67743486f895c20a03e3aab3409f835691c896f6d009242",
    ),
    # the sweep config the benchmark's CLI runs simulate
    "sweep": (
        """key = 43d14dab2117ca3bfbead4f1a3e550945590d5641ae90de66808294173a3942a
plaintext = 0431a383d5aba452e2f19c6f88f6138f
samples = 250
seed = 234721185
offset 270.75 = round=12 op=MixColumns bits=1
offset 271.5 = round=12 op=SubBytes bits=1
offset 272.0 = round=13 op=MixColumns bits=1
offset 272.25 = round=10 op=MixColumns bits=1
offset 273.0 = round=11 op=MixColumns bits=1
""",
        "c50471ab001aa1aef420485d7269f87372900591f3eada801f04f143ca42b55e",
    ),
    # a pinned static mask before, at and after the drawn steps, mixtures
    # of byte-pinned and free masks, and clean runs
    "static": (
        """key = 000102030405060708090a0b0c0d0e0f1011121314151617
plaintext = 00112233445566778899aabbccddeeff
samples = 120
seed = 11
fault_rate = 0.5
static_mask = 00800000000000000000000000000400
static_round = 10
static_op = MixColumns
offset 271.5 = round=10 op=MixColumns bits=1 byte=3 weight=2
offset 271.5 = round=9 op=SubBytes bits=4
offset 272.25 = round=11 op=ShiftRows bits=2 byte=7
offset 272.25 = round=12 op=AddRoundKey bits=40 weight=0.5
""",
        "48f591e90997259f8a1aa4a05ca133102e695accbe9da8577cb2b3e75595cf0d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_campaign_files_keep_their_bytes(name):
    # digests of records_to_lines, taken before campaigns ran as packed batches
    text, digest = PINNED_CONFIGS[name]
    lines = records_to_lines(generate_campaign(parse_config(io.StringIO(text))))
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


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
            ("n", 271.3),
            ("n", 271.5001),
            ("n", -0.1),
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

    @pytest.mark.parametrize("n", [2**52, 2**53 + 2, 1e300, -(2.0**60)])
    def test_offsets_from_2_52_load_as_whole_numbers(self, n):
        lines = records_to_lines(generate_campaign(base_config(samples=1)))
        rec = read_records(io.StringIO(lines.replace('"n": 271.5', f'"n": {n!r}')))[1]
        assert rec.offset_n == n

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

    # each case appends its lines to CONFIG_TEXT; the error names the last one
    @pytest.mark.parametrize(
        "extra, message",
        [
            ("width = nan", "width must be finite, got nan"),
            ("width = inf", "width must be finite, got inf"),
            ("width = -inf", "width must be finite, got -inf"),
            ("fault_rate = nan", "fault_rate must be within [0, 1]"),
            ("fault_rate = 2", "fault_rate must be within [0, 1]"),
            ("static_mask = " + "00" * 16, "static_mask must be nonzero"),
            ("offset 273 = round=12 op=MixColumns weight=inf", "entry weights must be positive and finite, got inf"),
            ("offset 273 = round=12 op=MixColumns weight=nan", "entry weights must be positive and finite, got nan"),
            ("offset 273 = round=12 op=MixColumns weight=0", "entry weights must be positive and finite, got 0.0"),
            (
                "offset 273 = round=12 op=MixColumns weight=1e308\noffset 273 = round=11 op=MixColumns weight=1e308",
                "entry weights must have a finite total",
            ),
            ("offset 1e309 = round=12 op=MixColumns", "glitch offsets must be finite, got inf"),
            ("static_op = MixColumns\nstatic_round = 99", "round 99 out of range 0..14"),
            ("static_op = MixColumns\nstatic_round = 14", "the last round has no MixColumns"),
            ("static_round = 12\nstatic_op = Bogus", "unknown AES operation 'Bogus'"),
            ("offset 273 = round=12 op=MixColumns bits", "expected key=value tokens, got 'bits'"),
            ("offset 273 = round=12 op=MixColumns mask=1 flip=2", "unknown offset fields: flip, mask"),
            ("offset 273 = op=MixColumns bits=1", "offset entry needs round="),
            ("samples 8", "expected key = value"),
            ("seed = 12", "duplicate key 'seed'"),
        ],
    )
    def test_malformed_line_is_named(self, extra, message):
        text = CONFIG_TEXT.format(key=KEY.hex(), pt=PT.hex()) + extra + "\n"
        with pytest.raises(ConfigError) as err:
            self.make(text)
        assert str(err.value) == f"line {text.count(chr(10))}: {message}"

    def test_any_finite_width_is_a_label(self):
        cfg = self.make(CONFIG_TEXT.format(key=KEY.hex(), pt=PT.hex()) + "width = -1\n")
        assert cfg.width == -1.0
        assert {rec.width_m for rec in generate_campaign(cfg)[1:]} == {-1.0}


class TestNonFiniteNumbersRejected:
    @pytest.mark.parametrize("width", [float("nan"), float("inf"), float("-inf")])
    def test_config_width(self, width):
        with pytest.raises(ValueError, match="^width must be finite"):
            base_config(width=width)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), 0.0, -1.0])
    def test_offset_weight(self, weight):
        with pytest.raises(ValueError, match="^entry weights must be positive and finite"):
            OffsetBehavior(((StepId(12, AesOp.MIX_COLUMNS), MaskRule(1), weight),))

    def test_record_json(self):
        record = CiphertextRecord(PT, PT, 271.5, float("nan"), 0, True)
        with pytest.raises(ValueError, match="not JSON compliant"):
            record.to_json()

    def test_huge_integer_offset_in_a_record(self):
        line = generate_campaign(base_config(samples=1))[1].to_json()
        huge = line.replace('"n": 271.5', '"n": 1' + "0" * 400)
        with pytest.raises(RecordFormatError, match="^line 1: n must be a finite number or null$"):
            read_records(io.StringIO(huge + "\n"))

    def test_huge_offsets_quantize_to_themselves(self):
        assert quantize_offset(1e308) == 1e308
        assert quantize_offset(-(2.0**60)) == -(2.0**60)


# number texts a hand-written config may hold: non-finite spellings, signed
# zero, exponents and values past a float's range, among plain numbers
_ODD_NUMBERS = ["nan", "NaN", "inf", "-inf", "Infinity", "-0", "-0.0", "+0", "1e308", "1e309", "-1.5e-7",
                "5e-324", "2.5E3", "1" + "0" * 400, "0x10", "1_000", "", "1.", ".5"]


def number_text(plain):
    return st.one_of(plain.map(str), st.sampled_from(_ODD_NUMBERS))


@st.composite
def config_texts(draw):
    lines = [
        f"key = {draw(st.binary(min_size=16, max_size=16)).hex()}{draw(st.sampled_from(['', 'ab' * 8, 'cd' * 16]))}",
        f"plaintext = {draw(st.binary(min_size=16, max_size=16)).hex()}",
        # small, so that a run stays short: odd spellings of samples are ints or errors
        f"samples = {draw(st.one_of(st.integers(0, 4).map(str), st.sampled_from(['-0', '+2', '1e1', 'nan', '-1'])))}",
    ]
    scalars = {
        "seed": number_text(st.integers(-(2**70), 2**70)),
        "slot": number_text(st.integers(-(2**40), 2**40)),
        "width": number_text(st.floats()),
        "fault_rate": number_text(st.floats(0, 1)),
    }
    for name, values in scalars.items():
        if draw(st.booleans()):
            lines.append(f"{name} = {draw(values)}")
    for _ in range(draw(st.integers(1, 3))):
        offset = draw(number_text(st.integers(-(2**20), 2**20).map(lambda q: q / 4)))
        weight = draw(number_text(st.floats(min_value=0, exclude_min=True)))
        op = draw(st.sampled_from(["MixColumns", "SubBytes", "ShiftRows", "AddRoundKey"]))
        lines.append(f"offset {offset} = round={draw(st.integers(1, 10))} op={op} bits={draw(st.integers(1, 8))} weight={weight}")
    return "\n".join(lines) + "\n"


@given(config_texts())
@settings(max_examples=200, deadline=None)
def test_accepted_config_round_trips_through_records(text):
    # parse_config accepts the text or raises ConfigError, nothing else; an
    # accepted campaign reads back from its own file unchanged
    try:
        cfg = parse_config(io.StringIO(text))
    except ConfigError:
        return
    records = generate_campaign(cfg)
    assert read_records(io.StringIO(records_to_lines(records))) == records
