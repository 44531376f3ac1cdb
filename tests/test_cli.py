import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import aesdfa
import aesdfa.analyze
from aesdfa.aes import encrypt_block, expand_key
from aesdfa.cli import main
from aesdfa.engine import KeyslotEngine, artifacts_to_dict, run_borrow_chain
from aesdfa.localizer import localize_many

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
PT = bytes.fromhex("00112233445566778899aabbccddeeff")

CONFIG = f"""\
key = {KEY.hex()}
plaintext = {PT.hex()}
samples = 12
seed = 4
offset 271.5 = round=12 op=MixColumns bits=1
offset 272.25 = round=11 op=MixColumns bits=1
"""


@pytest.fixture
def runner():
    return CliRunner()


def simulate_to(runner, path, config=CONFIG):
    with open(path / "campaign.cfg", "w") as fp:
        fp.write(config)
    result = runner.invoke(
        main, ["simulate", str(path / "campaign.cfg"), "-o", str(path / "campaign.jsonl")]
    )
    assert result.exit_code == 0, result.output
    return path / "campaign.jsonl"


class TestSimulate:
    def test_deterministic_output(self, runner, tmp_path):
        first = simulate_to(runner, tmp_path).read_text()
        second = simulate_to(runner, tmp_path).read_text()
        assert first == second
        assert len(first.splitlines()) == 13

    def test_config_error_has_line_number(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG + "offset 273 = round=99 op=MixColumns\n")
        result = runner.invoke(main, ["simulate", str(cfg)])
        assert result.exit_code == 2
        assert "line 7" in result.output

    @pytest.mark.parametrize(
        "line, message",
        [
            ("width = nan", "width must be finite, got nan"),
            ("width = inf", "width must be finite, got inf"),
            ("offset 273 = round=12 op=MixColumns weight=inf", "entry weights must be positive and finite, got inf"),
            ("offset 273 = round=12 op=MixColumns weight=nan", "entry weights must be positive and finite, got nan"),
        ],
    )
    def test_non_finite_config_number_exits_2(self, runner, tmp_path, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG + line + "\n")
        result = runner.invoke(main, ["simulate", str(cfg), "-o", str(tmp_path / "out.jsonl")])
        assert result.exit_code == 2
        assert result.stderr == f"error: line 7: {message}\n"
        assert not (tmp_path / "out.jsonl").exists()

    def test_config_error_leaves_no_output(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG + "offset 273 = round=99 op=MixColumns\n")
        kept = tmp_path / "kept.jsonl"
        kept.write_text("earlier run\n")
        for dest in (tmp_path / "out.jsonl", kept):
            result = runner.invoke(main, ["simulate", str(cfg), "-o", str(dest)])
            assert result.exit_code == 2
        assert not (tmp_path / "out.jsonl").exists()
        assert kept.read_text() == "earlier run\n"

    def test_line_prefixed_key_is_unknown(self, runner, tmp_path):
        # a key named like internal bookkeeping is still an unknown key
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG + "__line_bogus = 1\n")
        result = runner.invoke(main, ["simulate", str(cfg)])
        assert result.exit_code == 2
        assert "error: line 7: unknown key '__line_bogus'" in result.output

    def test_zero_fault_rate_all_clean(self, runner, tmp_path):
        cfg = CONFIG + "fault_rate = 0\n"
        out = simulate_to(runner, tmp_path, cfg)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(not line["faulted"] for line in lines)
        assert len({line["ciphertext"] for line in lines}) == 1


class TestLocalize:
    def test_table_shape(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(main, ["localize", str(out), "--key", KEY.hex()])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[0].split() == ["output", "m", "n", "mask", "round", "operation"]
        baseline = lines[2].split()
        assert baseline[1] == baseline[2] == "-"
        assert baseline[3] == "0" * 32
        faulted = [l for l in lines[3:] if "MixColumns" in l]
        assert len(faulted) == 12

    def test_wrong_key_refused(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(main, ["localize", str(out), "--key", "00" * 32])
        assert result.exit_code == 2
        assert "does not reproduce" in result.output

    def test_bad_jsonl_line_number(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        with open(out, "a") as fp:
            fp.write("not json\n")
        result = runner.invoke(main, ["localize", str(out), "--key", KEY.hex()])
        assert result.exit_code == 2
        assert "line 14" in result.output


class TestHistogram:
    def test_tables(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(main, ["histogram", str(out), "--key", KEY.hex()])
        assert result.exit_code == 0, result.output
        assert "MixColumns" in result.output
        assert "bits" in result.output

    def test_profile_json(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        dest = tmp_path / "profile.json"
        result = runner.invoke(
            main, ["histogram", str(out), "--key", KEY.hex(), "--profile-json", str(dest)]
        )
        assert result.exit_code == 0
        payload = json.loads(dest.read_text())
        assert set(payload) == {"271.5", "272.25"}
        assert sum(v["samples"] for v in payload.values()) == 12
        assert all(v["ambiguous"] == 0 for v in payload.values())

    def test_profile_json_counts_ambiguous(self, runner, tmp_path, monkeypatch):
        # no simulated fault localizes ambiguously, so every other report is marked so
        out = simulate_to(runner, tmp_path)
        plain = runner.invoke(main, ["histogram", str(out), "--key", KEY.hex()])
        calls = []

        def every_other_ambiguous(ks, pt, cts):
            marked = []
            for report in localize_many(ks, pt, cts):
                calls.append(report)
                marked.append(report if report is None or len(calls) % 2 else dataclasses.replace(report, ambiguous=True))
            return marked

        monkeypatch.setattr(aesdfa.analyze, "localize_many", every_other_ambiguous)
        dest = tmp_path / "profile.json"
        result = runner.invoke(
            main, ["histogram", str(out), "--key", KEY.hex(), "--profile-json", str(dest)]
        )
        assert result.exit_code == 0
        assert result.stdout == plain.stdout  # the tables do not show it
        payload = json.loads(dest.read_text())
        assert sum(v["ambiguous"] for v in payload.values()) == 6
        assert all(v["ambiguous"] <= v["faulted"] for v in payload.values())

    def test_unwritable_profile_json_fails_first(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        dest = tmp_path / "missing" / "profile.json"
        result = runner.invoke(
            main, ["histogram", str(out), "--key", KEY.hex(), "--profile-json", str(dest)]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--profile-json'" in result.stderr
        assert result.stdout == ""  # the tables were not printed

    def test_wrong_key_leaves_no_profile_json(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        dest = tmp_path / "profile.json"
        result = runner.invoke(
            main, ["histogram", str(out), "--key", "00" * 32, "--profile-json", str(dest)]
        )
        assert result.exit_code == 2
        assert not dest.exists()


class TestRecommend:
    def test_default_targets(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(main, ["recommend", str(out), "--key", KEY.hex()])
        assert result.exit_code == 0, result.output
        assert "round 12: offset 271.5" in result.output
        assert "round 11: offset 272.25" in result.output

    def test_no_viable_offset(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(
            main, ["recommend", str(out), "--key", KEY.hex(), "--target-rounds", "5"]
        )
        assert result.exit_code == 1
        assert "no viable offset" in result.output

    @pytest.mark.parametrize(
        "rounds, message",
        [
            ("99", "--target-rounds: round 99 out of range 0..14"),
            ("-3", "--target-rounds: round -3 out of range 0..14"),
            ("12,14", "--target-rounds: the last round has no MixColumns"),
            ("12,x", "--target-rounds takes comma-separated integers"),
        ],
    )
    def test_rounds_without_mix_columns(self, runner, tmp_path, rounds, message):
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(
            main, ["recommend", str(out), "--key", KEY.hex(), "--target-rounds", rounds]
        )
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"
        assert result.stdout == ""


class TestAttack:
    def test_end_to_end_recovery(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "attack", str(out),
                "--r2-offset", "271.5", "--r3-offset", "272.25",
                "-o", str(report_path),
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert report["recovered_key"] == KEY.hex()
        assert "wall_time" not in report

    def test_stdout_report_is_deterministic(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        args = ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.stdout == second.stdout

    def test_split_with_key(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(main, ["attack", str(out), "--split-with-key", KEY.hex()])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["recovered_key"] == KEY.hex()

    @pytest.mark.parametrize(
        "key, message",
        [
            (KEY[:-1] + bytes([KEY[-1] ^ 1]), "the supplied key does not reproduce the campaign's clean ciphertexts"),
            (KEY[:16], "--split-with-key holds a 128-bit key, --key-size is 256"),
        ],
        ids=["wrong-key", "wrong-size"],
    )
    def test_split_key_must_be_the_campaign_key(self, runner, tmp_path, key, message):
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(main, ["attack", str(out), "--split-with-key", key.hex()])
        assert result.exit_code == 2, result.output
        assert result.stderr.splitlines()[-1] == f"error: {message}"
        assert result.stdout == ""

    def test_exhaustion_exit_code(self, runner, tmp_path):
        # every fault spreads over several bytes: no pair can solve
        cfg = CONFIG.replace("bits=1", "bits=5")
        out = simulate_to(runner, tmp_path, cfg)
        result = runner.invoke(
            main, ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25"]
        )
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert report["recovered_key"] is None
        assert report["failure"] is not None
        assert report["groupings_attempted"]["last_round"] >= 1

    def test_empty_pool_exit_code(self, runner, tmp_path):
        cfg = CONFIG.replace("samples = 12", "samples = 1")
        out = simulate_to(runner, tmp_path, cfg)
        result = runner.invoke(
            main, ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25"]
        )
        assert result.exit_code == 1
        assert "pools are too small" in result.output

    def test_malformed_line_exit_code(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        with open(out, "a") as fp:
            fp.write("{}\n")
        result = runner.invoke(
            main, ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25"]
        )
        assert result.exit_code == 2
        assert "line 14" in result.output

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda raw: raw.update(plaintext="ff" * 16),
                "records mix plaintexts; the attack needs a fixed-plaintext campaign",
            ),
            (lambda raw: raw.update(faulted=True), "no clean record found; pass --plaintext and --clean-ct"),
        ],
        ids=["mixed-plaintexts", "no-clean-record"],
    )
    def test_campaign_without_one_clean_reference_exits_2(self, runner, tmp_path, edit, message):
        # the baseline is the campaign's one clean record: it gets another
        # plaintext, or is marked faulted
        out = simulate_to(runner, tmp_path)
        lines = out.read_text().splitlines()
        raw = json.loads(lines[0])
        edit(raw)
        lines[0] = json.dumps(raw)
        out.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25"])
        assert result.exit_code == 2, result.output
        assert result.stderr.splitlines()[-1] == f"error: {message}"
        assert result.stdout == ""

    def test_missing_offsets_usage_error(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(main, ["attack", str(out)])
        assert result.exit_code == 2

    def test_mistyped_record_fields_exit_code(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        lines = out.read_text().splitlines()
        raw = json.loads(lines[2])
        raw.update(faulted="false", slot=1.9, n="271.5")
        lines[2] = json.dumps(raw)
        out.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main, ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25"]
        )
        assert result.exit_code == 2
        assert "line 3" in result.output

    @pytest.mark.parametrize("command", ["histogram", "recommend", "localize", "attack"])
    def test_off_grid_record_offset_exit_code(self, runner, tmp_path, command):
        out = simulate_to(runner, tmp_path)
        lines = out.read_text().splitlines()
        raw = json.loads(lines[2])
        raw["n"] = 271.3
        lines[2] = json.dumps(raw)
        out.write_text("\n".join(lines) + "\n")
        flags = ["--r2-offset", "271.5", "--r3-offset", "272.25"] if command == "attack" else ["--key", KEY.hex()]
        result = runner.invoke(main, [command, str(out), *flags])
        assert result.exit_code == 2
        assert "line 3: n must be on the quarter-cycle grid, got 271.3" in result.output
        assert result.stdout == ""

    @pytest.mark.parametrize("flag", ["--r2-offset", "--r3-offset"])
    @pytest.mark.parametrize("value", ["271.5001", "271.3", "inf", "nan"])
    def test_off_grid_offset_exit_code(self, runner, tmp_path, flag, value):
        out = simulate_to(runner, tmp_path)
        args = {"--r2-offset": "271.5", "--r3-offset": "272.25", flag: value}
        result = runner.invoke(main, ["attack", str(out), *(x for kv in args.items() for x in kv)])
        assert result.exit_code == 2
        assert result.stdout == ""

    @pytest.mark.parametrize("flag", ["--plaintext", "--clean-ct"])
    def test_block_overrides_go_together(self, runner, tmp_path, flag):
        out = simulate_to(runner, tmp_path)
        blocks = {"--plaintext": PT.hex(), "--clean-ct": encrypt_block(PT, expand_key(KEY)).hex()}
        args = ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25"]
        both = runner.invoke(main, [*args, *(x for kv in blocks.items() for x in kv)])
        assert both.exit_code == 0, both.output
        result = runner.invoke(main, [*args, flag, blocks[flag]])
        assert result.exit_code == 2
        assert result.stderr == "error: --plaintext and --clean-ct go together\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one(self, runner, tmp_path, budget):
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(
            main,
            ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25", "--max-groupings", budget],
        )
        assert result.exit_code == 2
        assert f"Invalid value for '--max-groupings': {budget} is not in the range x>=1" in result.stderr
        assert result.stdout == ""

    def test_unwritable_output_fails_before_the_search(self, runner, tmp_path):
        out = simulate_to(runner, tmp_path)
        dest = tmp_path / "missing" / "report.json"
        result = runner.invoke(
            main, ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25", "-o", str(dest)]
        )
        assert result.exit_code == 2
        assert "Invalid value for '-o' / '--output'" in result.stderr
        assert "wall time" not in result.stderr

    def test_early_exits_leave_no_report(self, runner, tmp_path):
        small = simulate_to(runner, tmp_path, CONFIG.replace("samples = 12", "samples = 1"))
        args = ["--r2-offset", "271.5", "--r3-offset", "272.25", "-o", str(tmp_path / "report.json")]
        result = runner.invoke(main, ["attack", str(small), *args])
        assert result.exit_code == 1
        assert "pools are too small" in result.stderr
        with open(small, "a") as fp:
            fp.write("{}\n")
        result = runner.invoke(main, ["attack", str(small), *args])
        assert result.exit_code == 2
        assert not (tmp_path / "report.json").exists()

    def test_offset_within_tolerance_snaps(self, runner, tmp_path):
        # the same quarter-cycle rule as config files: float noise snaps
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(
            main, ["attack", str(out), "--r2-offset", "271.50000000001", "--r3-offset", "272.25"]
        )
        assert result.exit_code == 0, result.output

    def test_record_offset_within_tolerance_snaps(self, runner, tmp_path):
        # records carry the snapped offset that recommend reports, so the flag matches them
        out = simulate_to(runner, tmp_path)
        text = out.read_text()
        assert '"n": 271.5,' in text
        out.write_text(text.replace('"n": 271.5,', '"n": 271.50000000001,'))
        report = tmp_path / "report.json"
        args = ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25", "-o", str(report)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert json.loads(report.read_text())["recovered_key"] == KEY.hex()


def test_import_leaves_out_numpy_and_cryptography():
    # only the bust command needs them; every other command, and the
    # attack search behind `attack`, starts without
    src = str(Path(aesdfa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for module in ("aesdfa.cli", "aesdfa.orchestrator", "aesdfa.analyze", "aesdfa.localizer", "aesdfa.campaign"):
        code = f"import sys, {module}; print(sorted({{'numpy', 'cryptography'}} & set(sys.modules)))"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]", module


def test_import_builds_no_solver_filter_tables():
    # the solver builds its filter tables on first use, so no command pays for them at start-up
    src = str(Path(aesdfa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import aesdfa.cli; from aesdfa.dfa import _AES_TABLES; print('_filter_tables' in _AES_TABLES.__dict__)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def spaced(text):
    """Same length, but two spaces stand in for the last byte, as in
    "6b d5 61..."; bytes.fromhex would skip them and decode one byte short."""
    return f"{text[:2]} {text[2:4]} {text[4:-2]}"


@pytest.mark.parametrize("bad", [spaced, str.upper], ids=["spaced", "upper"])
class TestStrictHex:
    # every hex input is lowercase 0-9a-f pairs, nothing else

    def test_record(self, runner, tmp_path, bad):
        out = simulate_to(runner, tmp_path)
        lines = out.read_text().splitlines()
        raw = json.loads(lines[2])
        raw["ciphertext"] = bad(raw["ciphertext"])
        lines[2] = json.dumps(raw)
        out.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main, ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25"]
        )
        assert result.exit_code == 2
        assert "line 3: ciphertext is not valid hex" in result.output

    def test_key_flag(self, runner, tmp_path, bad):
        out = simulate_to(runner, tmp_path)
        result = runner.invoke(main, ["localize", str(out), "--key", bad(KEY.hex())])
        assert result.exit_code == 2
        assert "error: --key is not valid hex" in result.output

    @pytest.mark.parametrize("flag", ["--plaintext", "--clean-ct"])
    def test_block_flags(self, runner, tmp_path, bad, flag):
        out = simulate_to(runner, tmp_path)
        blocks = {"--plaintext": PT.hex(), "--clean-ct": encrypt_block(PT, expand_key(KEY)).hex()}
        blocks[flag] = bad(blocks[flag])
        result = runner.invoke(
            main,
            ["attack", str(out), "--r2-offset", "271.5", "--r3-offset", "272.25",
             *(x for kv in blocks.items() for x in kv)],
        )
        assert result.exit_code == 2
        assert f"{flag} is not valid hex" in result.output
        assert result.stdout == ""

    def test_config(self, runner, tmp_path, bad):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG.replace(f"plaintext = {PT.hex()}", f"plaintext = {bad(PT.hex())}"))
        result = runner.invoke(main, ["simulate", str(cfg)])
        assert result.exit_code == 2
        assert "line 2: plaintext is not valid hex" in result.output

    def test_artifacts(self, runner, tmp_path, bad):
        path = artifact_file(tmp_path, [bytes(range(16))])
        raw = json.loads(path.read_text())
        raw["c1"] = bad(raw["c1"])
        path.write_text(json.dumps(raw))
        result = runner.invoke(main, ["bust", str(path)])
        assert result.exit_code == 2
        assert "set 0: bad artifact object: c1 is not valid hex" in result.output
        assert result.stdout == ""


def artifact_file(tmp_path, hiddens):
    eng = KeyslotEngine()
    eng.add_slot(1, KEY, master=True)
    fixed = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    sets = []
    for hidden in hiddens:
        hidden_input = encrypt_block(hidden, expand_key(KEY))
        sets.append(
            artifacts_to_dict(
                run_borrow_chain(eng, 1, 2, hidden_input, fixed, chunk_bits=16)
            )
        )
    path = tmp_path / "artifacts.json"
    path.write_text(json.dumps(sets if len(sets) != 1 else sets[0]))
    return path


class TestBust:
    def test_single_set(self, runner, tmp_path):
        hidden = bytes(range(16))
        path = artifact_file(tmp_path, [hidden])
        result = runner.invoke(main, ["bust", str(path)])
        assert result.exit_code == 0, result.output
        assert result.stdout.strip() == hidden.hex()

    def test_multiple_sets_and_failure(self, runner, tmp_path):
        # the tampered set sits between good ones: later sets still run
        hiddens = [bytes(range(16)), bytes(range(16, 32)), bytes(range(32, 48))]
        path = artifact_file(tmp_path, hiddens)
        sets = json.loads(path.read_text())
        sets[1]["c3"] = "00" * 16
        path.write_text(json.dumps(sets))
        result = runner.invoke(main, ["bust", str(path)])
        assert result.exit_code == 1
        assert result.stdout.split() == [hiddens[0].hex(), hiddens[2].hex()]
        assert "set 1" in result.output

    def test_bad_json(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        result = runner.invoke(main, ["bust", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda s: s.update(chunk_bits=16.7), "chunk_bits must be an integer, got 16.7"),
            (lambda s: s.update(chunk_bits="16"), "chunk_bits must be an integer, got '16'"),
            (lambda s: s.update(chunk_bits=True), "chunk_bits must be an integer, got True"),
            (lambda s: [s.update(chunk_bits=24)] + [s.pop(f"c{i}") for i in (6, 7, 8)],
             "chunk_bits must be 8, 16 or 32, got 24"),
            (lambda s: s.update(c9=s.pop("c8")), "blocks must be named c1..c8, got"),
            (lambda s: s.update(c01=s.pop("c1")), "blocks must be named c1..c8, got"),
        ],
        ids=["fractional", "string", "bool", "24-bit", "gap", "leading-zero"],
    )
    def test_malformed_artifacts_name_their_set(self, runner, tmp_path, edit, message):
        # the second of two sets is malformed; nothing is busted
        path = artifact_file(tmp_path, [bytes(range(16)), bytes(range(16, 32))])
        sets = json.loads(path.read_text())
        edit(sets[1])
        path.write_text(json.dumps(sets))
        result = runner.invoke(main, ["bust", str(path)])
        assert result.exit_code == 2
        assert "set 1: " in result.output
        assert message in result.output
        assert result.stdout == ""

    def test_duplicate_block_name(self, runner, tmp_path):
        path = artifact_file(tmp_path, [bytes(range(16))])
        text = path.read_text()
        path.write_text(text.replace('"c1":', '"c1": "' + "00" * 16 + '", "c1":'))
        result = runner.invoke(main, ["bust", str(path)])
        assert result.exit_code == 2
        assert "duplicate key 'c1'" in result.output
        assert result.stdout == ""

    def test_workers_below_one(self, runner, tmp_path):
        path = artifact_file(tmp_path, [bytes(range(16))])
        result = runner.invoke(main, ["bust", str(path), "--workers", "0"])
        assert result.exit_code == 2
        assert result.stdout == ""


ATTACK = ["attack", "{campaign}", "--r2-offset", "271.5", "--r3-offset", "272.25"]

# one malformed value per parameter of every command
MALFORMED = {
    ("simulate", "config"): ["simulate", "{missing}"],
    ("simulate", "output"): ["simulate", "{config}", "-o", "{missing}"],
    ("localize", "records"): ["localize", "{missing}", "--key", KEY.hex()],
    ("localize", "key_hex"): ["localize", "{campaign}", "--key", "zz"],
    ("histogram", "records"): ["histogram", "{missing}", "--key", KEY.hex()],
    ("histogram", "key_hex"): ["histogram", "{campaign}", "--key", KEY.hex()[:-2]],
    ("histogram", "profile_json"): ["histogram", "{campaign}", "--key", KEY.hex(), "--profile-json", "{missing}"],
    ("recommend", "records"): ["recommend", "{missing}", "--key", KEY.hex()],
    ("recommend", "key_hex"): ["recommend", "{campaign}", "--key", KEY.hex().upper()],
    ("recommend", "target_rounds"): ["recommend", "{campaign}", "--key", KEY.hex(), "--target-rounds", "14"],
    ("attack", "records"): ["attack", "{missing}", "--r2-offset", "271.5", "--r3-offset", "272.25"],
    ("attack", "r2_offset"): ["attack", "{campaign}", "--r2-offset", "271.3", "--r3-offset", "272.25"],
    ("attack", "r3_offset"): ["attack", "{campaign}", "--r2-offset", "271.5", "--r3-offset", "nan"],
    ("attack", "split_key_hex"): ["attack", "{campaign}", "--split-with-key", "zz"],
    ("attack", "mode"): [*ATTACK, "--mode", "exhaustive"],
    ("attack", "key_size"): [*ATTACK, "--key-size", "512"],
    ("attack", "plaintext_arg"): [*ATTACK, "--plaintext", "ZZZZ"],
    ("attack", "clean_ct_arg"): [*ATTACK, "--clean-ct", "00"],
    ("attack", "max_groupings"): [*ATTACK, "--max-groupings", "0"],
    ("attack", "output"): [*ATTACK, "-o", "{missing}"],
    ("bust", "artifacts"): ["bust", "{missing}"],
    ("bust", "workers"): ["bust", "{artifacts}", "--workers", "-1"],
    ("bust", "borrow"): ["bust", "{artifacts}", "--borrow", "middle"],
}
PARAMS = {(name, param.name): param for name, command in main.commands.items() for param in command.params}


def test_malformed_table_covers_every_parameter():
    assert sorted(MALFORMED) == sorted(PARAMS)


@pytest.mark.parametrize("command, param", sorted(PARAMS), ids=[f"{c}-{p}" for c, p in sorted(PARAMS)])
def test_malformed_value_exits_2_and_names_its_parameter(runner, tmp_path, command, param):
    if (command, param) not in MALFORMED:
        pytest.fail(f"no malformed value for {command} {param}")
    campaign = simulate_to(runner, tmp_path)
    (tmp_path / "campaign.cfg").write_text(CONFIG)
    paths = {
        "campaign": str(campaign),
        "config": str(tmp_path / "campaign.cfg"),
        "artifacts": str(artifact_file(tmp_path, [bytes(range(16))])),
        "missing": str(tmp_path / "missing" / "file"),
    }
    result = runner.invoke(main, [arg.format(**paths) for arg in MALFORMED[command, param]])
    option = PARAMS[command, param]
    name = max(option.opts, key=len) if isinstance(option, click.Option) else option.human_readable_name
    assert result.exit_code == 2, result.output
    assert name in result.stderr.splitlines()[-1]  # the error line, not click's usage line
    assert result.stdout == ""


class TestHistogramAllClean:
    def test_empty_histograms(self, runner, tmp_path):
        cfg = CONFIG + "fault_rate = 0\n"
        out = simulate_to(runner, tmp_path, cfg)
        result = runner.invoke(main, ["histogram", str(out), "--key", KEY.hex()])
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if l and not set(l) <= {"-", " "}]
        # header rows only: no fault rows in either table
        assert lines == ["op  operation  faults", "bits  faults"]
