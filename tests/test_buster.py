import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aesdfa import buster
from aesdfa.aes import SBOX, encrypt_block, expand_key
from aesdfa.buster import ArtifactMismatch, _ecb_encrypt, _key_matches, _sbox, bust
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
    # a full-range scan that matches twice names its stage, data or slave;
    # at the 16-bit width one worker scans each stage as one block
    scan = buster._scan
    calls = []

    def doubled(*args):
        matches, tried = scan(*args)
        calls.append(args)
        return (matches + [args[-1].stop - 1] if len(calls) == stage + 1 else matches), tried

    monkeypatch.setattr(buster, "_scan", doubled)
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


def test_sbox_circuit_matches_table():
    # all 256 inputs as the lanes of four words
    lanes = np.arange(64, dtype=np.uint64)
    planes = np.arange(8, dtype=np.uint64)[:, None, None]
    values = np.arange(256, dtype=np.uint64).reshape(4, 64)
    x = np.bitwise_or.reduce((values >> planes & 1) << lanes, axis=-1)[:, None]  # (8, 1, 4)
    out = np.empty_like(x)
    _sbox(x, out, np.empty(45 * x[0].size, dtype=np.uint64))
    bits = (out[..., None] >> lanes & 1).reshape(8, 256)
    assert (bits << planes[:, 0]).sum(axis=0).tolist() == list(SBOX)


@given(
    chunk=st.integers(1, 4),
    at=st.sampled_from(["head", "tail"]),
    length=st.sampled_from([1, 3, 17, 255, 1031, 4099]),
    start=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3),
    known=st.binary(min_size=16, max_size=16),
    upper=st.one_of(st.just(bytes(16)), st.binary(min_size=16, max_size=16)),
    block=st.one_of(st.just(bytes(16)), st.binary(min_size=16, max_size=16)),
)
@example(chunk=2, at="head", length=17, start=0xF8, picks=[8, 7, 9], known=bytes(16), upper=bytes(16), block=bytes(16))
@example(
    chunk=4, at="tail", length=1031, start=0x00FFFE00, picks=[511, 512, 0], known=bytes(range(16)),
    upper=bytes(16), block=bytes(16),
)
@settings(max_examples=40, deadline=None)
def test_key_kernel_matches_openssl(chunk, at, length, start, picks, known, upper, block):
    # slave-stage keys: a known half with a 1-4 byte window at its head (tail
    # borrow) or its tail (head borrow), after it a zero upper half or any
    # other; ranges start and end off the 64-lane grid, and the examples
    # cross a carry between chunk bytes (0x00ff -> 0x0100, 0x00ffffff ->
    # 0x01000000). Each value of a short range is the only match for its own
    # ciphertext, as are the edges and three values of a long one; the values
    # just outside the range share its edge words but are not reported.
    window = slice(0, chunk) if at == "head" else slice(16 - chunk, 16)
    space = 1 << 8 * chunk
    length = min(length, space)
    start %= space - length + 1
    values = range(start, start + length)
    template = known + upper
    edges = {v for v in (values[0] - 1, values[0], values[-1], values[-1] + 1) if 0 <= v < space}
    tested = set(values) if length <= 17 else {values[p % length] for p in picks}
    for value in edges | tested:
        key = bytearray(template)
        key[window] = value.to_bytes(chunk, "big")
        expected = [value] if value in values else []
        assert _key_matches(template, window, block, _ecb_encrypt(bytes(key), block), values) == expected


def test_key_kernel_confirms_all_16_bytes():
    # the kernel screens on the first 8 ciphertext bytes; a target that
    # agrees only there names no key
    template = slave_key_from_block(bytes(range(16)))
    key = (4321).to_bytes(2, "big") + template[2:]
    ct = _ecb_encrypt(key, bytes(16))
    values = range(1 << 16)
    assert _key_matches(template, slice(0, 2), bytes(16), ct, values) == [4321]
    assert _key_matches(template, slice(0, 2), bytes(16), ct[:8] + bytes(8), values) == []


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        bust(synthetic_artifacts(bytes(16)), workers=workers)


class _InlinePool:
    """ProcessPoolExecutor stand-in that runs each block in this process,
    as the reader asks for it. It asserts that at most 2 blocks per worker
    are submitted past the block being read, and records the most."""

    sizes: list = []
    peaks: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        self.window = 2 * max_workers
        self.outstanding = 0  # submitted, neither read nor cancelled
        self.peaks.append(0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        self.outstanding += 1
        assert self.outstanding <= self.window
        self.peaks[-1] = max(self.peaks[-1], self.outstanding)
        return _LazyFuture(self, fn, item)


class _LazyFuture:
    def __init__(self, pool, fn, item):
        self.pool, self.fn, self.item = pool, fn, item

    def result(self):
        self.pool.outstanding -= 1
        return self.fn(self.item)

    def cancel(self):
        self.pool.outstanding -= 1
        return True


@pytest.mark.parametrize("cpus, pool_size", [(None, None), (1, None), (2, 2), (3, 3)])
def test_workers_clamped_to_cpu_count(monkeypatch, cpus, pool_size):
    monkeypatch.setattr(buster.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(buster, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "peaks", [])
    hidden = bytes(random.Random(13).randrange(256) for _ in range(16))
    assert bust(synthetic_artifacts(hidden), workers=1 << 16).hidden == hidden
    # one pool of at most the CPU count serves all 8 stages; one worker needs none
    assert _InlinePool.sizes == ([] if pool_size is None else [pool_size])


def test_first_match_schedule_ignores_worker_count(monkeypatch):
    # small batches, blocks and exhaustive limit make a 16-bit set run
    # first-match over 16 blocks per stage, the schedule of a 32-bit scan
    monkeypatch.setattr(buster, "_BATCH", 256)
    monkeypatch.setattr(buster, "_BLOCK", 4096)
    monkeypatch.setattr(buster, "_EXHAUSTIVE_LIMIT", 8)
    monkeypatch.setattr(buster.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(buster, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "peaks", [])
    scan = buster._scan
    read = []

    def recorded(*args):
        matches, tried = scan(*args)
        read.append((args[-1], matches))
        return matches, tried

    monkeypatch.setattr(buster, "_scan", recorded)
    rng = random.Random(18)
    # every chunk value is above the first block, so each stage reads several
    hidden = b"".join(rng.randrange(4096, 1 << 16).to_bytes(2, "big") for _ in range(8))
    art = synthetic_artifacts(hidden)
    outcomes = []
    for workers in (1, 2, 3):
        read.clear()
        result = bust(art, workers=workers)
        outcomes.append((result.hidden, result.aes_ops))
        # per stage: blocks ascend from 0, and the last one read holds the match
        stages = [[]]
        for block, matches in read:
            stages[-1].append(block)
            if matches:
                stages.append([])
        assert stages.pop() == []
        assert len(stages) == 8
        for blocks in stages:
            assert [b.start for b in blocks] == list(range(0, 4096 * len(blocks), 4096))
            assert len(blocks) > 1
    assert outcomes == [(hidden, outcomes[0][1])] * 3
    assert outcomes[0][1] < 8 * (1 << 16)
    # the pools of 2 and 3 workers filled their windows of 4 and 6 blocks
    assert _InlinePool.peaks == [4, 6]


@pytest.mark.slow
def test_full_width_bust_with_two_workers():
    # the bounded chunk values of the full-width acceptance check; with two
    # workers the slave stage stops at the block that holds its match
    rng = random.Random(29)
    hidden = b"".join(rng.randrange(1 << bits).to_bytes(4, "big") for bits in (17, 26, 26, 26))
    result = bust(chain_for(hidden, chunk_bits=32), workers=2)
    assert result.hidden == hidden
    print(f"{result.aes_ops} block ops in {result.elapsed:.1f}s ({result.blocks_per_second:,.0f}/s)")
