"""Reconstruct a hidden engine output block from borrow-chain artifacts.

Each stage ciphertext is a known-key encryption of a block that is mostly
zeros plus a window of the hidden block, so one chunk at a time falls to a
keyspace scan of 2^chunk_bits candidates; the slave-slot ciphertext pins
the final chunk through the key itself. Worst case is one full scan per
chunk: 4 * 2^32 block operations at the default width, 8 * 2^16 in the
desk-scale test width.

Data-stage scans run on the OpenSSL AES backend with candidate blocks
batched per call. The slave stage varies the key instead, so it runs a
numpy AES-256 over the whole batch of keys: the 32-bit T-table form of
Daemen & Rijmen (The Design of Rijndael, 2002), one uint32 array per state
column. Scans partition cleanly across worker processes; the lowest
matching chunk value wins, so results do not depend on the worker count.
In test widths the whole range is scanned and uniqueness of the match is
asserted.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .aes import SBOX, gf_mul
from .engine import BorrowArtifacts, slave_key_from_block

__all__ = ["ArtifactMismatch", "BustResult", "bust"]

_BATCH = 1 << 16
# full-range scan plus uniqueness assertion at or below this chunk width
_EXHAUSTIVE_LIMIT = 16


class ArtifactMismatch(Exception):
    """No candidate chunk satisfies a stage equation.

    Signals a wrong fixed key, mismatched borrow semantics, or a corrupted
    capture; carries which stage failed.
    """

    def __init__(self, stage: str):
        self.stage = stage
        super().__init__(f"no candidate chunk matches the {stage} artifact")


@dataclass(frozen=True)
class BustResult:
    hidden: bytes
    aes_ops: int
    elapsed: float

    @property
    def blocks_per_second(self) -> float:
        return self.aes_ops / self.elapsed if self.elapsed > 0 else float("inf")


def _ecb_encrypt(key: bytes, data: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(data) + enc.finalize()


# Column words are big-endian: row 0 is the top byte. _S_ROWS[r][x] places
# S[x] in row r; _T[r][x] is the MixColumns image of S[x] entering at row r,
# (2, 1, 1, 3) * S[x] for r = 0 and rotated right one byte per row.
_S32 = np.array(SBOX, dtype=np.uint32)
_S_ROWS = [_S32 << 24 - 8 * r for r in range(4)]
_T0 = np.array([gf_mul(s, 2) << 24 | s << 16 | s << 8 | gf_mul(s, 3) for s in SBOX], dtype=np.uint32)
_T = [_T0] + [_T0 >> 8 * r | _T0 << 32 - 8 * r for r in (1, 2, 3)]


def _lookup(tables: list, a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """XOR of tables[0..3] at row 0 of a, row 1 of b, row 2 of c and row 3 of d."""
    return (
        np.take(tables[0], a >> 24) ^ np.take(tables[1], b >> 16 & 0xFF)
        ^ np.take(tables[2], c >> 8 & 0xFF) ^ np.take(tables[3], d & 0xFF)
    )


def _encrypt_block_under_keys(keys: np.ndarray, block: bytes) -> np.ndarray:
    """AES-256 encrypt one block under many keys at once.

    The slave-stage scan varies the *key* per candidate, which defeats the
    batched-ECB trick used for the data stages. Here each key schedule word
    and state column is one uint32 array over the batch, and a round is 16
    T-table gathers (SubBytes, ShiftRows and MixColumns in one step) plus
    XORs; the final round gathers from S-box tables shifted into each row.
    The schedule is expanded 8 words at a time, as rounds need them.
    keys is (n, 32) uint8; returns the (n, 16) ciphertext array.
    """
    words = np.ascontiguousarray(keys, dtype=np.uint8).view(">u4")
    w = [words[:, i].astype(np.uint32) for i in range(8)]  # the 8 newest schedule words
    state = [w[c] ^ np.uint32(x) for c, x in enumerate(np.frombuffer(block, dtype=">u4"))]
    rcon = 1
    for r in range(1, 15):
        if r % 2 == 0:  # round r takes schedule words 4r .. 4r+3
            for i in range(8):
                t = w[-1]
                if i % 4 == 0:
                    t = _lookup(_S_ROWS, t, t, t, t)
                if i == 0:
                    t = (t << 8 | t >> 24) ^ np.uint32(rcon << 24)
                    rcon = gf_mul(rcon, 2)
                w.append(w[-8] ^ t)
            del w[:8]
        k = w[4 * (r % 2):4 * (r % 2) + 4]
        tables = _T if r < 14 else _S_ROWS
        # ShiftRows: row j of column c comes from column c + j (mod 4)
        state = [_lookup(tables, state[c], state[c - 3], state[c - 2], state[c - 1]) ^ k[c] for c in range(4)]
    return np.stack(state, axis=1).astype(">u4").view(np.uint8)


def _stage_layout(stage: int, chunk: int, borrow: str) -> tuple[slice, slice]:
    """(chunk window, known window) of one stage's plaintext block; the slave
    stage is stage 16 // chunk - 1, its block the first half of the slave key."""
    if borrow == "tail":
        lo = 16 - (stage + 1) * chunk
        return slice(lo, lo + chunk), slice(lo + chunk, 16)
    lo = stage * chunk
    return slice(lo, lo + chunk), slice(0, lo)


def _scan(
    template: bytes,
    window: slice,
    fixed_key: bytes | None,
    target: bytes,
    exhaustive: bool,
    start: int,
    stop: int,
) -> tuple[list[int], int]:
    """Scan chunk values [start, stop); return (matches, candidates tried).

    Each value is written big-endian into window of template. With a
    fixed_key the template is a plaintext block and a batch is one OpenSSL
    ECB call (a data stage); without, it is an AES-256 key that encrypts the
    zero block (the slave stage). A row matches when its first 8 ciphertext
    bytes equal the target's, one uint64 compare, and then all 16 bytes do.
    """
    chunk = window.stop - window.start
    rows = np.tile(np.frombuffer(template, dtype=np.uint8), (_BATCH, 1))
    enc = Cipher(algorithms.AES(fixed_key), modes.ECB()).encryptor() if fixed_key else None
    out = bytearray(16 * _BATCH + 15)  # update_into wants one block of slack
    head = np.frombuffer(target, dtype=np.uint64)[0]
    target_row = np.frombuffer(target, dtype=np.uint8)
    matches: list[int] = []
    tried = 0
    for base in range(start, stop, _BATCH):
        count = min(_BATCH, stop - base)
        batch = rows[:count]
        values = np.arange(base, base + count, dtype=">u4").view(np.uint8).reshape(count, 4)
        batch[:, window] = values[:, 4 - chunk:]
        if enc:
            cts = np.frombuffer(out, dtype=np.uint8, count=enc.update_into(batch, out)).reshape(count, 16)
        else:
            cts = _encrypt_block_under_keys(batch, bytes(16))
        tried += count
        hits = np.flatnonzero(cts.view(np.uint64)[:, 0] == head)
        hits = hits[(cts[hits] == target_row).all(axis=1)]
        if len(hits):
            matches.extend(int(base + h) for h in hits)
            if not exhaustive:
                break
    return matches, tried


def _run_partitioned(args: tuple, space: int, workers: int) -> tuple[list[int], int]:
    """_scan(*args) over [0, space), split into one range per worker process."""
    if workers <= 1:
        return _scan(*args, 0, space)
    bounds = [space * i // workers for i in range(workers + 1)]
    ranges = [(bounds[i], bounds[i + 1]) for i in range(workers) if bounds[i] < bounds[i + 1]]
    matches: list[int] = []
    tried = 0
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [pool.submit(_scan, *args, lo, hi) for lo, hi in ranges]
        for fut in futures:
            got, n = fut.result()
            matches.extend(got)
            tried += n
    return matches, tried


def bust(
    art: BorrowArtifacts,
    workers: int = 1,
    borrow: str = "tail",
    progress: Callable[[str], None] | None = None,
) -> BustResult:
    """Recover the hidden 16-byte block behind a full artifact set.

    Chunks are solved tail-to-head for the default tail-borrow devices
    (``borrow="head"`` mirrors everything for the other hardware reading).
    The reconstruction is re-verified against every artifact before it is
    returned. Raises ArtifactMismatch naming the first stage with no
    solution. workers is capped at the CPU count; below 1 is a ValueError.
    """
    if borrow not in ("tail", "head"):
        raise ValueError(f"borrow must be 'tail' or 'head', got {borrow!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    chunk = art.chunk_bits // 8
    space = 1 << art.chunk_bits
    exhaustive = art.chunk_bits <= _EXHAUSTIVE_LIMIT
    started = time.perf_counter()
    aes_ops = 0

    n_data = len(art.stage_cts)
    known = b""
    for stage, target in enumerate((*art.stage_cts, art.slave_ct)):
        chunk_window, known_window = _stage_layout(stage, chunk, borrow)
        block = bytearray(16)
        block[known_window] = known
        if stage < n_data:
            name, template, fixed_key = f"stage {stage + 1} of {n_data}", bytes(block), art.fixed_key
            if progress:
                progress(f"stage {stage + 1}/{n_data}: scanning {space} chunks")
        else:
            name, template, fixed_key = "slave", slave_key_from_block(bytes(block)), None
            if progress:
                progress(f"slave stage: scanning {space} keys")
        matches, tried = _run_partitioned(
            (template, chunk_window, fixed_key, target, exhaustive), space, workers
        )
        aes_ops += tried
        if not matches or (exhaustive and len(matches) > 1):
            raise ArtifactMismatch(name if not matches else f"{name} (ambiguous)")
        found = min(matches).to_bytes(chunk, "big")
        known = found + known if borrow == "tail" else known + found

    _verify(art, known, borrow)
    return BustResult(hidden=known, aes_ops=aes_ops, elapsed=time.perf_counter() - started)


def _verify(art: BorrowArtifacts, hidden: bytes, borrow: str) -> None:
    chunk = art.chunk_bits // 8
    for stage, target in enumerate(art.stage_cts):
        chunk_window, _ = _stage_layout(stage, chunk, borrow)
        block = bytearray(16)
        window = slice(chunk_window.start, 16) if borrow == "tail" else slice(0, chunk_window.stop)
        block[window] = hidden[window]
        if _ecb_encrypt(art.fixed_key, bytes(block)) != target:
            raise ArtifactMismatch(f"stage {stage + 1} of {len(art.stage_cts)} (verification)")
    if _ecb_encrypt(slave_key_from_block(hidden), bytes(16)) != art.slave_ct:
        raise ArtifactMismatch("slave (verification)")
