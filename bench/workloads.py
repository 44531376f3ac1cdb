"""The benchmark's workloads: seeded inputs, one job each, and ground truth.

Every job's output is checked against values the benchmark generated
itself and against OpenSSL AES through `cryptography`, never against the
code under test. Module functions are always looked up on their module at
call time (`orchestrator.recover_key`, not an imported name), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import NamedTuple

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from aesdfa import aes, analyze, campaign, engine, orchestrator

MIX = aes.AesOp.MIX_COLUMNS
R2_OFFSET, R3_OFFSET = 271.5, 272.25


class Failure(NamedTuple):
    """Why a job or CLI run failed; `wrong` marks an incorrect output, as
    opposed to a missing one (an exhausted search)."""

    reason: str
    wrong: bool


def openssl_encrypt(key: bytes, block: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def key_failure(found: bytes | None, key: bytes, pt: bytes, clean_ct: bytes) -> Failure | None:
    if openssl_encrypt(key, pt) != clean_ct:
        return Failure("clean ciphertext differs from OpenSSL's", True)
    if found is None:
        return Failure("no key recovered", False)
    if found != key:
        return Failure(f"recovered key {found.hex()} is not the generated key", True)
    return None


def report_counts(report) -> dict:
    return {
        "orchestrator.groupings.last_round": report.groupings_attempted.get("last_round", 0),
        "orchestrator.groupings.penultimate": report.groupings_attempted.get("penultimate", 0),
        "orchestrator.groupings_succeeded": report.groupings_succeeded,
    }


def seeded_rng(workload: str, seed, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _exit_zero(run) -> Failure | None:
    if run.returncode != 0:
        return Failure(f"exit code {run.returncode}: {run.stderr.strip()[-200:]}", True)
    return None


def _exact_stdout(run, expected: str) -> Failure | None:
    failure = _exit_zero(run)
    if failure is None and run.stdout != expected:
        failure = Failure(f"stdout was {run.stdout!r}, expected {expected!r}", True)
    return failure


def _report_failure(run, key: bytes, pt: bytes, clean_ct: bytes) -> Failure | None:
    failure = _exit_zero(run)
    if failure:
        return failure
    try:
        found = json.loads(run.stdout)["recovered_key"]
    except (ValueError, KeyError, TypeError):
        return Failure("stdout is not an attack report", True)
    return key_failure(found and bytes.fromhex(found), key, pt, clean_ct)


@dataclass
class AttackInput:
    key: bytes
    pt: bytes
    records: list
    r2: list
    r3: list


class AttackStatic:
    name = "attack-static"
    reports_stages = False
    why = (
        "dfa and orchestrator do nearly all of the work, and candidate inputs repeat "
        "within a search: the case a dfa candidate cache serves"
    )
    setup_subcommand = "attack"
    # one static campaign per offset keeps both pools at 8 faults; a single
    # 16-sample draw can split 13/3 and starve the second stage
    pool_samples = 8

    def make_input(self, seed, index: int) -> AttackInput:
        rng = seeded_rng(self.name, seed, index)
        key, pt = rng.randbytes(32), rng.randbytes(16)
        byte = rng.randrange(16)
        static = bytearray(16)
        for pos in rng.sample(range(16), 3):
            static[pos] = rng.randrange(1, 256)
        records = []
        for offset, rnd in ((R2_OFFSET, 12), (R3_OFFSET, 11)):
            rule = campaign.MaskRule(bits=1, byte=byte)
            cfg = campaign.CampaignConfig(
                key=key,
                plaintext=pt,
                samples=self.pool_samples,
                offsets={offset: campaign.OffsetBehavior(((aes.StepId(rnd, MIX), rule, 1.0),))},
                static_mask=bytes(static),
                seed=rng.randrange(1 << 32),
            )
            generated = campaign.generate_campaign(cfg)
            records.extend(generated[1:] if records else generated)
        faulted = [r for r in records if r.faulted]
        return AttackInput(
            key,
            pt,
            records,
            [r.ciphertext for r in faulted if r.offset_n == R2_OFFSET],
            [r.ciphertext for r in faulted if r.offset_n == R3_OFFSET],
        )

    def run(self, inp: AttackInput, progress=None):
        return orchestrator.recover_key(inp.records[0].ciphertext, inp.r2, inp.r3, inp.pt, mode="auto")

    def check(self, inp: AttackInput, report) -> Failure | None:
        return key_failure(report.recovered_key, inp.key, inp.pt, inp.records[0].ciphertext)

    def counts(self, report) -> dict:
        return report_counts(report)

    def cli_plan(self, outdir):
        """(fixed inputs, [(argv, check)]) for the CLI runs behind cli_s."""
        inp = self.make_input("cli", 0)
        path = outdir / "attack-static.jsonl"
        path.write_text(campaign.records_to_lines(inp.records))
        argv = ["attack", str(path), "--r2-offset", str(R2_OFFSET), "--r3-offset", str(R3_OFFSET)]
        clean = inp.records[0].ciphertext
        return [inp], [(argv, lambda run: _report_failure(run, inp.key, inp.pt, clean))]


@dataclass
class SweepInput:
    key: bytes
    pt: bytes
    cfg: object
    expected: dict  # target round -> offset the generator mapped to its MixColumns


class SweepAttack:
    name = "sweep-attack"
    reports_stages = False
    why = (
        "the paper's full loop: the pure-Python aes core, faults, campaign, localizer "
        "and analyze do the work while dfa is nearly idle and rarely sees a repeated input"
    )
    setup_subcommand = "simulate"
    offsets = (270.75, 271.5, 272.0, 272.25, 273.0)
    steps = (
        aes.StepId(13, MIX),
        aes.StepId(12, MIX),
        aes.StepId(12, aes.AesOp.SUB_BYTES),
        aes.StepId(11, MIX),
        aes.StepId(10, MIX),
    )

    def make_input(self, seed, index: int) -> SweepInput:
        rng = seeded_rng(self.name, seed, index)
        key, pt = rng.randbytes(32), rng.randbytes(16)
        steps = list(self.steps)
        rng.shuffle(steps)  # which offset hits which step is the generator's secret
        mapping = dict(zip(self.offsets, steps))
        cfg = campaign.CampaignConfig(
            key=key,
            plaintext=pt,
            samples=250,
            offsets={
                n: campaign.OffsetBehavior(((step, campaign.MaskRule(bits=1), 1.0),))
                for n, step in mapping.items()
            },
            seed=rng.randrange(1 << 32),
        )
        expected = {step.round: n for n, step in mapping.items() if step.op is MIX and step.round in (12, 11)}
        return SweepInput(key, pt, cfg, expected)

    def run(self, inp: SweepInput, progress=None):
        records = campaign.generate_campaign(inp.cfg)
        profile = analyze.build_profile(aes.expand_key(inp.key), records)
        chosen = analyze.recommend_offsets(profile, [12, 11])
        faulted = [r for r in records if r.faulted]
        r2 = [r.ciphertext for r in faulted if r.offset_n == chosen[12]]
        r3 = [r.ciphertext for r in faulted if r.offset_n == chosen[11]]
        report = orchestrator.recover_key(records[0].ciphertext, r2, r3, inp.pt, mode="pairwise")
        return records[0].ciphertext, chosen, report

    def check(self, inp: SweepInput, out) -> Failure | None:
        clean, chosen, report = out
        if chosen != inp.expected:
            return Failure(f"recommended {chosen}, generator mapped {inp.expected}", True)
        return key_failure(report.recovered_key, inp.key, inp.pt, clean)

    def counts(self, out) -> dict:
        return report_counts(out[2])

    def cli_plan(self, outdir):
        inp = self.make_input("cli", 0)
        lines = [f"key = {inp.key.hex()}", f"plaintext = {inp.pt.hex()}", "samples = 250", f"seed = {inp.cfg.seed}"]
        for n, behavior in inp.cfg.offsets.items():
            step = behavior.entries[0][0]
            lines.append(f"offset {n} = round={step.round} op={step.op.label} bits=1")
        config = outdir / "sweep.cfg"
        config.write_text("\n".join(lines) + "\n")
        records = outdir / "sweep.jsonl"
        clean = openssl_encrypt(inp.key, inp.pt)
        r2_offset, r3_offset = inp.expected[12], inp.expected[11]

        def check_simulate(run):
            failure = _exact_stdout(run, "")
            if failure:
                return failure
            rows = [json.loads(line) for line in records.read_text().splitlines()]
            if len(rows) != 251 or rows[0]["ciphertext"] != clean.hex():
                return Failure("simulated campaign lacks the OpenSSL clean ciphertext or 251 records", True)
            return None

        steps = [
            (["simulate", str(config), "-o", str(records)], check_simulate),
            (
                ["recommend", str(records), "--key", inp.key.hex()],
                lambda run: _exact_stdout(run, f"round 12: offset {r2_offset}\nround 11: offset {r3_offset}\n"),
            ),
            (
                ["attack", str(records), "--r2-offset", str(r2_offset), "--r3-offset", str(r3_offset), "--mode", "pairwise"],
                lambda run: _report_failure(run, inp.key, inp.pt, clean),
            ),
        ]
        return [inp], steps


@dataclass
class BustInput:
    hidden: bytes
    art: object


class Bust16:
    name = "bust-16"
    reports_stages = True  # bust's progress callback splits the data and slave stages
    why = (
        "only buster works, on numpy and OpenSSL: the data stage runs one key over many "
        "blocks and the slave stage many keys over one block"
    )
    setup_subcommand = "bust"
    cli_sets = 3

    def make_input(self, seed, index: int) -> BustInput:
        rng = seeded_rng(self.name, seed, index)
        master, fixed, hidden = rng.randbytes(32), rng.randbytes(16), rng.randbytes(16)
        eng = engine.KeyslotEngine()
        eng.add_slot(1, master, master=True)
        # the master-slot decrypt of E(hidden) leaves exactly `hidden` in the register
        art = engine.run_borrow_chain(eng, 1, 2, openssl_encrypt(master, hidden), fixed, chunk_bits=16)
        return BustInput(hidden, art)

    def run(self, inp: BustInput, progress=None):
        from aesdfa import buster

        return buster.bust(inp.art, workers=1, progress=progress)

    def check(self, inp: BustInput, result) -> Failure | None:
        if result.hidden != inp.hidden:
            return Failure(f"hidden block {result.hidden.hex()} is not the generated one", True)
        return None

    def counts(self, result) -> dict:
        return {"buster.aes_ops": result.aes_ops}

    def cli_plan(self, outdir):
        inputs = [self.make_input("cli", i) for i in range(self.cli_sets)]
        path = outdir / "bust-16.json"
        path.write_text(json.dumps([engine.artifacts_to_dict(inp.art) for inp in inputs]))
        expected = "".join(inp.hidden.hex() + "\n" for inp in inputs)
        return inputs, [(["bust", str(path)], lambda run: _exact_stdout(run, expected))]


class StageClock:
    """bust's progress callback, timestamping the data and slave stages."""

    def __init__(self):
        self.marks: list[tuple[float, str]] = []

    def __call__(self, message: str) -> None:
        self.marks.append((time.perf_counter(), message))

    def stages(self) -> tuple[float, float]:
        """(data stage seconds, slave stage seconds); the last mark is the job's end."""
        slave_at = next(t for t, msg in self.marks if msg.startswith("slave"))
        return slave_at - self.marks[0][0], self.marks[-1][0] - slave_at


WORKLOADS = {wl.name: wl for wl in (AttackStatic(), SweepAttack(), Bust16())}
