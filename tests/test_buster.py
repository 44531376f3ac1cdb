import random
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aesdfa import buster
from aesdfa.aes import encrypt_block, expand_key
from aesdfa.buster import ArtifactMismatch, _ecb_encrypt, _encrypt_block_under_keys, bust
from aesdfa.engine import BorrowArtifacts, KeyslotEngine, run_borrow_chain, slave_key_from_block

FIXED = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def chain_for(hidden: bytes, chunk_bits=16) -> BorrowArtifacts:
    """Engine-emulated artifacts whose hidden block is exactly `hidden`."""
    master = bytes(range(32))
    eng = KeyslotEngine()
    eng.add_slot(1, master, master=True)
    # the master decrypt of E(hidden) leaves exactly `hidden` in the register
    hidden_input = encrypt_block(hidden, expand_key(master))
    return run_borrow_chain(eng, 1, 2, hidden_input, FIXED, chunk_bits=chunk_bits)


def synthetic_artifacts(hidden: bytes, chunk_bits=16, borrow="tail") -> BorrowArtifacts:
    """Artifacts computed straight from the stage definitions, no engine."""
    from aesdfa.buster import _ecb_encrypt, _stage_layout

    chunk = chunk_bits // 8
    stage_cts = []
    for stage in range(16 // chunk - 1):
        chunk_window, _ = _stage_layout(stage, chunk, borrow)
        block = bytearray(16)
        window = slice(chunk_window.start, 16) if borrow == "tail" else slice(0, chunk_window.stop)
        block[window] = hidden[window]
        stage_cts.append(_ecb_encrypt(FIXED, bytes(block)))
    slave_ct = _ecb_encrypt(slave_key_from_block(hidden), bytes(16))
    return BorrowArtifacts(tuple(stage_cts), slave_ct, FIXED, chunk_bits)


def test_engine_chain_roundtrip():
    rng = random.Random(3)
    for _ in range(5):
        hidden = bytes(rng.randrange(256) for _ in range(16))
        assert bust(chain_for(hidden)).hidden == hidden


def test_synthetic_equals_engine_chain():
    hidden = bytes(range(16, 32))
    assert chain_for(hidden) == synthetic_artifacts(hidden)


def test_work_bound():
    hidden = bytes(random.Random(4).randrange(256) for _ in range(16))
    result = bust(chain_for(hidden))
    stages = 16 // (16 // 8) // 1  # 8 scans of 2^16 at the 16-bit width
    assert result.hidden == hidden
    assert result.aes_ops <= 8 * (1 << 16)


def test_worker_partitioning_is_deterministic():
    hidden = bytes(random.Random(5).randrange(256) for _ in range(16))
    art = chain_for(hidden)
    results = [bust(art, workers=w).hidden for w in (1, 2, 3)]
    assert results == [hidden] * 3


@pytest.mark.parametrize("borrow", ["tail", "head"])
def test_scan_over_many_batches(monkeypatch, borrow):
    # at the 16-bit width one batch holds a whole scan; a small odd batch
    # exercises the batch loop, its short last batch and the buffer reuse
    monkeypatch.setattr(buster, "_BATCH", 4099)
    hidden = bytes(random.Random(15).randrange(256) for _ in range(16))
    result = bust(synthetic_artifacts(hidden, borrow=borrow), borrow=borrow)
    assert result.hidden == hidden
    assert result.aes_ops == 8 * (1 << 16)


def test_tampered_stage_two_is_named():
    hidden = bytes(random.Random(6).randrange(256) for _ in range(16))
    art = chain_for(hidden)
    bad = list(art.stage_cts)
    bad[1] = bytes(16)
    tampered = BorrowArtifacts(tuple(bad), art.slave_ct, art.fixed_key, art.chunk_bits)
    with pytest.raises(ArtifactMismatch, match="stage 2 of 7"):
        bust(tampered)


@pytest.mark.parametrize("borrow", ["tail", "head"])
def test_progress_names_each_stage(borrow):
    hidden = bytes(random.Random(16).randrange(256) for _ in range(16))
    messages = []
    bust(synthetic_artifacts(hidden, borrow=borrow), borrow=borrow, progress=messages.append)
    assert messages == [f"stage {i}/7: scanning 65536 chunks" for i in range(1, 8)] + [
        "slave stage: scanning 65536 keys"
    ]


@pytest.mark.parametrize("stage, name", [(0, "stage 1 of 7"), (6, "stage 7 of 7"), (7, "slave")])
def test_second_match_is_ambiguous(monkeypatch, stage, name):
    # a full-range scan that matches twice names its stage, data or slave
    scan = buster._run_partitioned
    calls = []

    def doubled(args, space, workers):
        matches, tried = scan(args, space, workers)
        calls.append(args)
        return (matches + [space - 1] if len(calls) == stage + 1 else matches), tried

    monkeypatch.setattr(buster, "_run_partitioned", doubled)
    hidden = bytes(random.Random(17).randrange(256) for _ in range(16))
    with pytest.raises(ArtifactMismatch, match=rf"^no candidate chunk matches the {name} \(ambiguous\) artifact$"):
        bust(synthetic_artifacts(hidden))
    assert len(calls) == stage + 1


def test_tampered_slave_is_named():
    hidden = bytes(random.Random(7).randrange(256) for _ in range(16))
    art = chain_for(hidden)
    tampered = BorrowArtifacts(art.stage_cts, bytes(16), art.fixed_key, art.chunk_bits)
    with pytest.raises(ArtifactMismatch, match="slave"):
        bust(tampered)


@pytest.mark.parametrize("which", ["stage", "slave"])
def test_first_half_match_is_not_a_match(which):
    # a ciphertext that agrees with the true one in its first 8 bytes only
    # passes the uint64 screen; the 16-byte confirm must still reject it
    hidden = bytes(random.Random(14).randrange(256) for _ in range(16))
    art = synthetic_artifacts(hidden)
    if which == "stage":
        ct = art.stage_cts[0]
        art = BorrowArtifacts((ct[:8] + bytes(8),) + art.stage_cts[1:], art.slave_ct, FIXED, 16)
        expected = "stage 1 of 7"
    else:
        art = BorrowArtifacts(art.stage_cts, art.slave_ct[:8] + bytes(8), FIXED, 16)
        expected = "slave"
    with pytest.raises(ArtifactMismatch) as err:
        bust(art)
    assert err.value.stage == expected


def test_wrong_fixed_key_fails_at_stage_one():
    hidden = bytes(random.Random(8).randrange(256) for _ in range(16))
    art = chain_for(hidden)
    wrong = BorrowArtifacts(art.stage_cts, art.slave_ct, bytes(16), art.chunk_bits)
    with pytest.raises(ArtifactMismatch, match="stage 1"):
        bust(wrong)


def test_head_borrow_variant():
    hidden = bytes(random.Random(10).randrange(256) for _ in range(16))
    art = synthetic_artifacts(hidden, borrow="head")
    assert bust(art, borrow="head").hidden == hidden


def test_eight_bit_chunks():
    hidden = bytes(random.Random(11).randrange(256) for _ in range(16))
    assert bust(chain_for(hidden, chunk_bits=8)).hidden == hidden


def test_throughput_is_reported():
    hidden = bytes(random.Random(12).randrange(256) for _ in range(16))
    result = bust(chain_for(hidden))
    assert result.blocks_per_second > 0


def test_vectorized_key_scan_matches_oracle():
    rng = random.Random(20)
    keys = np.array(
        [[rng.randrange(256) for _ in range(32)] for _ in range(200)], dtype=np.uint8
    )
    block = bytes(rng.randrange(256) for _ in range(16))
    cts = _encrypt_block_under_keys(keys, block)
    for row, ct in zip(keys, cts):
        assert bytes(ct) == _ecb_encrypt(bytes(row), block)


@given(
    n=st.sampled_from([1, 3, 17, 255, 1031]),
    layout=st.sampled_from(["random", "tail", "head"]),
    seed=st.integers(0, 2**32 - 1),
    block=st.one_of(st.just(bytes(16)), st.binary(min_size=16, max_size=16)),
)
@settings(max_examples=40, deadline=None)
def test_key_kernel_matches_openssl(n, layout, seed, block):
    # "tail"/"head" keys look like slave-slot candidates: a zero upper half
    # and one shared known part, with the chunk bytes varying at the head
    # (tail borrow) or the tail (head borrow) of the written half
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 256, (n, 32), dtype=np.uint8)
    if layout != "random":
        chunk = int(rng.integers(1, 5))
        known = slice(chunk, 16) if layout == "tail" else slice(0, 16 - chunk)
        keys[:, known] = keys[0, known]
        keys[:, 16:] = 0
    cts = _encrypt_block_under_keys(keys, block)
    assert cts.shape == (n, 16)
    for row, ct in zip(keys, cts):
        assert bytes(ct) == _ecb_encrypt(bytes(row), block)


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        bust(synthetic_artifacts(bytes(16)), workers=workers)


class _InlinePool:
    """ProcessPoolExecutor stand-in that runs each range in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize("cpus, pool_size", [(None, None), (1, None), (2, 2), (3, 3)])
def test_workers_clamped_to_cpu_count(monkeypatch, cpus, pool_size):
    monkeypatch.setattr(buster.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(buster, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    hidden = bytes(random.Random(13).randrange(256) for _ in range(16))
    assert bust(synthetic_artifacts(hidden), workers=1 << 16).hidden == hidden
    # 7 data stages plus the slave stage, each split over at most the CPU count
    assert _InlinePool.sizes == ([] if pool_size is None else [pool_size] * 8)
