"""Command-line front end: simulate, localize, histogram, recommend, attack, bust.

All hex is lowercase without separators. Outputs on stdout are
deterministic given input files and seeds; timings and progress go to
stderr. Exit codes: 0 success, 1 the search or recovery came up empty,
2 malformed input (reported with line numbers where applicable).
"""

from __future__ import annotations

import json
import os
import sys
import time

import click

from .aes import AesOp, ROUNDS_BY_KEY_LEN, StepId, bytes_from_hex, encrypt_trace, expand_key
from .analyze import NoViableOffset, build_profile, localize_records, recommend_offsets, render_table
from .campaign import (
    ConfigError,
    RecordFormatError,
    generate_campaign,
    parse_config,
    quantize_offset,
    read_records,
    records_to_lines,
)
from .engine import artifacts_from_dict
from .orchestrator import DEFAULT_GROUPING_BUDGET, recover_key, verify_key

_WRONG_KEY = "the supplied key does not reproduce the campaign's clean ciphertexts"


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_hex(text: str, name: str, sizes=tuple(ROUNDS_BY_KEY_LEN)) -> bytes:
    try:
        return bytes_from_hex(text, name, sizes)
    except ValueError as err:
        _fail(2, str(err))


def _load_records(fp):
    try:
        return read_records(fp)
    except RecordFormatError as err:
        _fail(2, str(err))


def _unique_keys(pairs):
    # json.load keeps the last of repeated keys; an artifact file must not repeat any
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


class _OutputFile(click.File):
    """Opens at its first write, so a run that stops early leaves no file;
    parsing opens the path once, to fail a bad one before any work."""

    def convert(self, value, param, ctx):
        if value != "-":
            try:
                existed = os.path.exists(value)
                open(value, "a").close()
                if not existed:
                    os.remove(value)
            except OSError as err:
                self.fail(f"'{value}': {err.strerror}", param, ctx)
        return super().convert(value, param, ctx)


def _keyed_records(key_hex, fp):
    """The --key schedule and the records, which the key must reproduce."""
    ks = expand_key(_parse_hex(key_hex, "--key"))
    records = _load_records(fp)
    for record in records:
        if not record.faulted and encrypt_trace(record.plaintext, ks)[0] != record.ciphertext:
            _fail(2, _WRONG_KEY)
    return ks, records


@click.group()
def main():
    """Fault-injection key recovery toolkit for AES."""


@main.command()
@click.argument("config", type=click.File("r"))
@click.option("-o", "--output", type=_OutputFile("w"), default="-", help="JSONL destination.")
def simulate(config, output):
    """Generate a campaign from a flat key=value CONFIG file."""
    try:
        cfg = parse_config(config)
    except ConfigError as err:
        _fail(2, str(err))
    records = generate_campaign(cfg)
    output.write(records_to_lines(records))
    click.echo(f"wrote {len(records)} records", err=True)


@main.command()
@click.argument("records", type=click.File("r"))
@click.option("--key", "key_hex", required=True, help="Campaign key, hex.")
def localize(records, key_hex):
    """Report where each record's fault entered the cipher."""
    ks, recs = _keyed_records(key_hex, records)

    def fmt(value):
        return "-" if value is None else value

    rows = []
    for rec, report in zip(recs, localize_records(ks, recs)):
        if report is None:
            fault = ["0" * 32, "-", "-"]
        else:
            fault = [report.mask.hex(), report.step.round, report.step.op.label]
        rows.append([rec.ciphertext.hex(), fmt(rec.width_m), fmt(rec.offset_n), *fault])
    click.echo(render_table(["output", "m", "n", "mask", "round", "operation"], rows), nl=False)


@main.command()
@click.argument("records", type=click.File("r"))
@click.option("--key", "key_hex", required=True, help="Campaign key, hex.")
@click.option("--profile-json", type=_OutputFile("w"), help="Also dump the per-offset profile.")
def histogram(records, key_hex, profile_json):
    """Distributions of faulted operations and corrupted bit counts."""
    ks, recs = _keyed_records(key_hex, records)
    profile = build_profile(ks, recs)

    ops = profile.op_histogram()
    op_rows = [
        [op.value, op.label, ops.get(op, 0)]
        for op in (AesOp.SUB_BYTES, AesOp.SHIFT_ROWS, AesOp.MIX_COLUMNS, AesOp.ADD_ROUND_KEY)
        if ops.get(op, 0)
    ]
    click.echo(render_table(["op", "operation", "faults"], op_rows), nl=False)
    click.echo("")
    bits = profile.bit_histogram()
    bit_rows = [[n, bits[n]] for n in sorted(bits)]
    click.echo(render_table(["bits", "faults"], bit_rows), nl=False)

    if profile_json is not None:
        payload = {
            str(offset): {
                "samples": stats.samples,
                "faulted": stats.faulted,
                "ambiguous": stats.ambiguous,
                "steps": {str(step): count for step, count in sorted(stats.step_counts.items())},
                "bits": {str(b): c for b, c in sorted(stats.bit_counts.items())},
            }
            for offset, stats in profile.per_offset.items()
        }
        json.dump(payload, profile_json, indent=2)
        profile_json.write("\n")


@main.command()
@click.argument("records", type=click.File("r"))
@click.option("--key", "key_hex", required=True, help="Campaign key, hex.")
@click.option(
    "--target-rounds",
    default=None,
    help="Comma-separated rounds; defaults to the two rounds the attack needs.",
)
def recommend(records, key_hex, target_rounds):
    """Choose the glitch offset with the best usable-fault rate per round."""
    ks, recs = _keyed_records(key_hex, records)
    if target_rounds is not None:
        try:
            rounds = [int(r) for r in target_rounds.split(",")]
        except ValueError:
            _fail(2, "--target-rounds takes comma-separated integers")
        for rnd in rounds:
            try:
                StepId(rnd, AesOp.MIX_COLUMNS).validate(ks.n_rounds)
            except ValueError as err:
                _fail(2, f"--target-rounds: {err}")
    else:
        rounds = [ks.n_rounds - 2, ks.n_rounds - 3]
    profile = build_profile(ks, recs)
    try:
        chosen = recommend_offsets(profile, rounds)
    except NoViableOffset as err:
        _fail(1, f"no viable offset: {err}")
    for rnd in rounds:
        click.echo(f"round {rnd}: offset {chosen[rnd]}")


def _clean_reference(recs, plaintext_arg, clean_ct_arg):
    overrides = {"--plaintext": plaintext_arg, "--clean-ct": clean_ct_arg}
    given = [_parse_hex(text, flag, (16,)) for flag, text in overrides.items() if text is not None]
    if len(given) == 1:
        _fail(2, "--plaintext and --clean-ct go together")
    if given:
        return tuple(given)
    plaintexts = {rec.plaintext for rec in recs}
    if len(plaintexts) != 1:
        _fail(2, "records mix plaintexts; the attack needs a fixed-plaintext campaign")
    clean = [rec for rec in recs if not rec.faulted]
    if not clean:
        _fail(2, "no clean record found; pass --plaintext and --clean-ct")
    baseline = next((rec for rec in clean if rec.offset_n is None), clean[0])
    return baseline.plaintext, baseline.ciphertext


def _quantized(ctx, param, value):
    try:
        return None if value is None else quantize_offset(value)
    except ValueError as err:
        raise click.BadParameter(str(err)) from None


@main.command()
@click.argument("records", type=click.File("r"))
@click.option(
    "--r2-offset", type=float, callback=_quantized, help="Offset whose records feed the last-round stage.",
)
@click.option(
    "--r3-offset", type=float, callback=_quantized, help="Offset whose records feed the earlier stage.",
)
@click.option(
    "--split-with-key",
    "split_key_hex",
    default=None,
    help="Simulation aid: classify records by localizing with this known key.",
)
@click.option("--mode", type=click.Choice(["pairwise", "second_order", "auto"]), default="auto")
@click.option("--key-size", type=click.Choice(["128", "192", "256"]), default="256")
@click.option("--plaintext", "plaintext_arg", default=None, help="Override the campaign plaintext.")
@click.option("--clean-ct", "clean_ct_arg", default=None, help="Override the clean ciphertext.")
@click.option(
    "--max-groupings", type=click.IntRange(min=1), default=DEFAULT_GROUPING_BUDGET, show_default=True,
)
@click.option("-o", "--output", type=_OutputFile("w"), default="-", help="Report destination.")
def attack(records, r2_offset, r3_offset, split_key_hex, mode, key_size, plaintext_arg,
           clean_ct_arg, max_groupings, output):
    """Recover the key from a campaign file; exit 0 only on verified success."""
    recs = _load_records(records)
    key_size = int(key_size)
    pt, clean_ct = _clean_reference(recs, plaintext_arg, clean_ct_arg)
    faulted = [rec for rec in recs if rec.faulted]

    if split_key_hex is not None:
        split_key = _parse_hex(split_key_hex, "--split-with-key")
        if len(split_key) * 8 != key_size:
            _fail(2, f"--split-with-key holds a {len(split_key) * 8}-bit key, --key-size is {key_size}")
        if not verify_key(split_key, pt, clean_ct):
            _fail(2, _WRONG_KEY)
        ks = expand_key(split_key)
        pools = {ks.n_rounds - 2: [], ks.n_rounds - 3: []}
        for rec, report in zip(faulted, localize_records(ks, faulted)):
            if report and report.step.op is AesOp.MIX_COLUMNS and report.step.round in pools:
                pools[report.step.round].append(rec.ciphertext)
        r2_cts, r3_cts = pools[ks.n_rounds - 2], pools[ks.n_rounds - 3]
    else:
        if r2_offset is None or (key_size != 128 and r3_offset is None):
            _fail(2, "pass --r2-offset/--r3-offset, or --split-with-key for simulations")
        r2_cts = [rec.ciphertext for rec in faulted if rec.offset_n == r2_offset]
        r3_cts = [rec.ciphertext for rec in faulted if rec.offset_n == r3_offset]

    if not r2_cts or (key_size != 128 and not r3_cts):
        click.echo(
            f"no key recovered: pools are too small "
            f"(last-round stage: {len(r2_cts)} records, earlier stage: {len(r3_cts)})",
            err=True,
        )
        sys.exit(1)

    started = time.perf_counter()
    try:
        report = recover_key(
            clean_ct, r2_cts, r3_cts, pt,
            key_size=key_size, mode=mode, max_groupings=max_groupings,
        )
    except ValueError as err:
        _fail(2, str(err))
    click.echo(f"wall time: {time.perf_counter() - started:.3f}s", err=True)
    output.write(report.to_json() + "\n")
    if report.recovered_key is None:
        click.echo(f"no key recovered: {report.failure}", err=True)
        sys.exit(1)
    click.echo(f"recovered key: {report.recovered_key.hex()}", err=True)


@main.command()
@click.argument("artifacts", type=click.File("r"))
@click.option(
    "--workers", type=click.IntRange(min=1), default=1, show_default=True,
    help="Keyspace scan processes, at most the CPU count.",
)
@click.option("--borrow", type=click.Choice(["tail", "head"]), default="tail", show_default=True)
def bust(artifacts, workers, borrow):
    """Reconstruct hidden blocks from borrow-chain artifact JSON.

    The file holds one artifact object or a list of them; each object has
    fixed_key, an integer chunk_bits, and hex blocks named exactly c1..cN
    (cN from the slave slot), with no key repeated.
    Hidden blocks print to stdout, one hex line per artifact set.
    """
    # numpy and cryptography load only here: no other command needs them
    from .buster import ArtifactMismatch, bust as bust_artifacts

    try:
        raw = json.load(artifacts, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        _fail(2, f"line {err.lineno}: invalid JSON ({err.msg})")
    except ValueError as err:
        _fail(2, str(err))
    items = raw if isinstance(raw, list) else [raw]
    sets = []
    for index, item in enumerate(items):
        try:
            sets.append(artifacts_from_dict(item))
        except ValueError as err:
            _fail(2, f"set {index}: {err}")

    failures = 0
    for index, art in enumerate(sets):
        def progress(message, _index=index):
            click.echo(f"set {_index}: {message}", err=True)

        try:
            result = bust_artifacts(art, workers=workers, borrow=borrow, progress=progress)
        except ArtifactMismatch as err:
            failures += 1
            click.echo(f"set {index}: {err}", err=True)
            continue
        click.echo(result.hidden.hex())
        click.echo(
            f"set {index}: {result.aes_ops} block ops in {result.elapsed:.3f}s "
            f"({result.blocks_per_second:,.0f}/s)",
            err=True,
        )
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
