"""Reconstruct a hidden engine output block from borrow-chain artifacts.

Each stage ciphertext is a known-key encryption of a block that is mostly
zeros plus a window of the hidden block, so one chunk at a time falls to a
keyspace scan of 2^chunk_bits candidates; the slave-slot ciphertext pins
the final chunk through the key itself. Worst case is one full scan per
chunk: 4 * 2^32 block operations at the default width, 8 * 2^16 in the
desk-scale test width.

Data-stage scans run on the OpenSSL AES backend with candidate blocks
batched per call. The slave stage varies the key instead, so it runs a
bitsliced numpy AES-256 (Käsper & Schwabe, Faster and Timing-Attack
Resistant AES-GCM, CHES 2009): bit b of a state byte for 64 candidate keys
is one uint64 word, and SubBytes is the S-box circuit of Boyar & Peralta
(A New Combinational Logic Minimization Technique with Applications to
Cryptology, SEA 2010; 32 AND and 83 XOR gates) run on those words, with no
table lookups. A scan runs as ascending blocks of chunk
values over at most one process per CPU, with at most 2 blocks per worker
in flight. Above 16 bits it stops at the first block that matches; in test
widths it reads every block and asserts the match is unique. Either way
the lowest match wins, so results do not depend on the worker count.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .aes import SBOX
from .engine import BorrowArtifacts, slave_key_from_block

__all__ = ["ArtifactMismatch", "BustResult", "bust"]

_BATCH = 1 << 16
# a scan runs as ascending blocks of at most this many chunk values
_BLOCK = 1 << 20
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


# Bit planes: an array of shape (8, rows..., words) holds bit b of each byte
# row in plane b, with one candidate key per lane of each uint64 word.
_WORDS = 256  # lane words (64 keys each) per kernel pass
_LANE_BITS = np.array([0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
                       0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000], dtype=np.uint64)
# ShiftRows: output byte i is input byte _SR[i]; _SR_NEXT[i] is the one below it in its column
_SR = np.array([0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11])
_SR_NEXT = _SR.reshape(4, 4)[:, [1, 2, 3, 0]].ravel()
_ROT = [1, 2, 3, 0]  # RotWord


def _const_planes(data: bytes) -> np.ndarray:
    """Bytes as (8, len(data), 1) planes of all-zero or all-one words."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)[None], axis=0, bitorder="little")
    return np.negative(bits.astype(np.uint64))[..., None]


def _sbox(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write SubBytes of planes x to out: the circuit of Boyar & Peralta, in
    the names of BearSSL's br_aes_ct_bitslice_Sbox, where x0 is bit 7 and s0
    is output bit 7. Independent gates run as one call on stacked rows: the
    18 products as two blocks of 9, a pair as the slice a[i::j - i][:2].
    Every temporary is a row of scratch, at least 45 rows of x's row shape,
    because a fresh array this large costs page faults on every call."""
    xor, and_ = np.bitwise_xor, np.bitwise_and
    ws = scratch[:45 * x[0].size].reshape((45,) + x.shape[1:])
    # y[0:9] and y[9:18] are the factors of the 18 products, y[18:22] the
    # addends y21 y18 y20 y19, y[22] t0; t holds t43 t40 t29 t44 t37 t33 t42 t45 t41
    y, t = ws[0:23], ws[34:43]
    y[5] = x[0]  # x7
    xor(x[6], x[5], out=y[22])  # t0
    xor(x[4::3][:2], x[2::-1][:2], out=y[16::-7][:2])  # y14 y13
    xor(x[7], x[4::-2][:2], out=y[15::2][:2])  # y9 y8
    xor(y[9], y[16], out=y[12])  # y12
    xor(x[3], y[12], out=ws[23])  # t1
    xor(ws[23], x[2::4][:2], out=y[3::17][:2])  # y15 y20
    xor(y[20], y[15], out=y[6])  # y11
    xor(y[22], y[5:7], out=y[1::-1][:2])  # y1 y16
    xor(y[3], y[5::17][:2], out=y[4::4][:2])  # y6 y10
    xor(y[6], y[5::3][:2], out=y[2::5][:2])  # y7 y17
    xor(y[1], x[7::-6][:2], out=y[11::-1][:2])  # y2 y5
    xor(y[1], x[4], out=y[14])  # y4
    xor(y[10::-2][:2], y[17], out=y[13::8][:2])  # y3 y19
    xor(y[9], y[0], out=y[18])  # y21
    xor(x[7], y[0], out=y[19])  # y18
    p = and_(y[0:9], y[9:18], out=ws[23:32]).reshape((3, 3) + y.shape[1:])  # t7 t8 t10 t2 t3 t5 t12 t13 t15
    q = xor(p[:, 1:], p[:, :1], out=ws[32:38].reshape((3, 2) + y.shape[1:]))  # t9 t11 t4 t6 t14 t16
    v = y[18:22]
    xor(xor(q[:2], q[2:], out=ws[23:27].reshape(q[:2].shape)).reshape(v.shape), v, out=v)  # t23 t24 t21 t22
    c = xor(v[2::-2][:2], v[3::-2][:2], out=ws[27:29])  # t25 t30
    d = xor(v[1::2], and_(v[2], v[0], out=ws[29]), out=ws[30:32])  # t27 t31
    xor(and_(c, d, out=ws[32:34]), v[3::-2][:2], out=t[2::3][:2])  # t29 t33
    xor(v[0], t[5], out=ws[43])  # t34
    and_(v[1], xor(d[0], t[5], out=ws[44]), out=ws[44])  # t36
    xor(ws[44], ws[43], out=t[4])  # t37
    and_(t[2], xor(d[0], ws[44], out=ws[43]), out=ws[43])  # t39
    xor(c[0], ws[43], out=t[1])  # t40
    xor(t[2::3][:2], t[1::3][:2], out=t[0::3][:2])  # t43 t44
    xor(t[2:0:-1], t[5:3:-1], out=t[6::2][:2])  # t42 t41
    xor(t[6], t[8], out=t[7])  # t45
    z = y[:18]
    and_(t, z.reshape((2,) + t.shape), out=z.reshape((2,) + t.shape))
    # z: z3 z4 z5 z0 z1 z2 z6 z7 z8 z12 z13 z14 z9 z10 z11 z15 z16 z17
    g = ws[23:33]  # t49 t47 t46 t55 t54 t52 t48 t50 t51 t53
    xor(z[12:14], z[13:15], out=g[0:2])
    xor(z[15:17], z[16:18], out=g[2:4])
    xor(z[6:8], z[7:9], out=g[4:6])
    xor(z[2::3][:2], z[10::-1][:2], out=g[6:8])
    xor(z[5::-2][:2], z[2::-2][:2], out=g[8:10])
    h = xor(z[1::-1][:2], g[2::2][:2], out=ws[33:35])  # t58 t59
    u = xor(h[0], g[5::-5][:2], out=ws[35:37])  # t62 t63
    xor(h[1], u[1], out=out[7])  # s0
    xor(z[4], u[1], out=ws[37])  # t66
    xor(ws[37], g[9::-1][:2], out=out[4::-1][:2])  # s3 s4
    xor(z[1], h[1], out=ws[38])  # t64
    xor(ws[38], out[4], out=out[6])  # ~s1
    xor(g[7], g[9], out=ws[39])  # t57
    xor(xor(z[11], ws[39], out=ws[40]), u[0], out=ws[40])  # t65
    xor(g[1], ws[40], out=out[2])  # s5
    xor(ws[38], ws[40], out=out[5])
    xor(out[5], g[3], out=out[5])  # ~s2
    xor(z[9], g[6], out=out[1])
    xor(out[1], u[0], out=out[1])  # ~s6
    xor(g[2], ws[39], out=out[0])
    xor(out[0], g[6], out=out[0])  # ~s7
    np.invert(out[0:2], out=out[0:2])
    np.invert(out[5:7], out=out[5:7])


def _mix_columns(s: np.ndarray, key: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = MixColumns(ShiftRows(s)) ^ key, for s of shape (8, 16 or more, W),
    key of shape (4, 8, 4, W) (column, plane, row) and out of shape (8, 4, 4, W)
    (plane, column, row). With b_r = a_r+1 and d_r = a_r ^ a_r+1, row r of a
    column becomes b_r ^ d_r+2 ^ xtime(d_r)."""
    size = out.size
    b = np.take(s, _SR_NEXT, axis=1, out=scratch[:size].reshape(8, 16, -1), mode="clip").reshape(out.shape)
    d = np.take(s, _SR, axis=1, out=scratch[size:2 * size].reshape(8, 16, -1), mode="clip").reshape(out.shape)
    d ^= b
    halves = (8, 4, 2, -1)  # rows 0-1 and rows 2-3 of each column
    np.bitwise_xor(b.reshape(halves), d.reshape(halves)[:, :, ::-1], out=out.reshape(halves))
    out[1:] ^= d[:7]  # xtime: bit b - 1 moves to bit b, and bit 7 folds
    out[0:2] ^= d[7]  # back in as 0x1b: bits 0, 1, 3 and 4
    out[3:5] ^= d[7]
    out ^= key.transpose(1, 0, 2, 3)


def _key_matches(template: bytes, window: slice, block: bytes, target: bytes, values: range) -> list[int]:
    """The chunk values in values whose key encrypts block to target.

    A value's key is template, a 32-byte AES-256 key, with the value written
    big-endian into window, which lies in the first 16 bytes. Consecutive
    values fill the 64 lanes of each word, so value bits 0-5 are the fixed
    lane masks and higher bits are whole words: the key planes need no
    transposition. Only the window varies in round 1, so its S-box runs on
    the window rows and takes the other rows from the table. Rounds 2-13 add
    the four rows of the next round key's SubWord. The last round computes
    the 8 bytes that screen a key, and OpenSSL confirms all 16 bytes.
    """
    chunk = window.stop - window.start
    bit = 8 * np.arange(chunk - 1, -1, -1) + np.arange(8)[:, None]  # value bit in plane b, window row j
    shift = np.maximum(bit - 6, 0).astype(np.uint64)[..., None]
    plain = bytes(k ^ p for k, p in zip(template, block))
    round1 = _const_planes(bytes(SBOX[x] for x in plain[:16]) + bytes(SBOX[template[28 + i]] for i in _ROT))
    k0, k1 = (_const_planes(template[i:i + 16]).reshape(8, 4, 4, 1).transpose(1, 0, 2, 3) for i in (0, 16))
    screen = _const_planes(target[:8])
    found = []
    stop = -(-values.stop // 64)
    n = 0
    for lo in range(values.start // 64, stop, _WORDS):
        words = np.arange(lo, min(lo + _WORDS, stop), dtype=np.uint64)
        if len(words) != n:
            n = len(words)
            keys = np.empty((2, 4, 8, 4, n), dtype=np.uint64)  # two round keys: word, plane, byte
            state = np.empty((8, 5, 4, n), dtype=np.uint64)  # 4 state columns, then a SubWord input
            sub = np.empty_like(state)
            scratch = np.empty(45 * 20 * n, dtype=np.uint64)
        key_win = np.negative(words >> shift & np.uint64(1))
        key_win[bit < 6] = _LANE_BITS[bit[bit < 6]][:, None]
        keys[0], keys[1] = k0, k1
        for j, i in enumerate(range(window.start, window.stop)):
            keys[0, i // 4, :, i % 4] = key_win[:, j]
        sub.reshape(8, 20, n)[:] = round1
        key_win ^= _const_planes(block[window])
        _sbox(key_win, sub.reshape(8, 20, n)[:, window], scratch)
        for r in range(1, 14):
            if r > 1:
                _sbox(state, sub, scratch)
            k = keys[(r + 1) % 2]  # round key r - 1 becomes round key r + 1
            k[0] ^= sub[:, 4]
            if r % 2:
                np.invert(k[0, r // 2, 0], out=k[0, r // 2, 0])  # rcon
            k[1] ^= k[0]
            k[2] ^= k[1]
            k[3] ^= k[2]
            _mix_columns(sub.reshape(8, 20, n), keys[r % 2], state[:, :4], scratch)
            state[:, 4] = k[3][:, _ROT] if r % 2 == 0 else k[3]
        last = sub.reshape(-1)[:64 * n].reshape(8, 8, n)
        np.take(state.reshape(8, 20, n), _SR[:8], axis=1, out=last, mode="clip")
        _sbox(last, last, scratch)
        last ^= keys[0][:2].transpose(1, 0, 2, 3).reshape(8, 8, n)
        last ^= screen
        miss = np.bitwise_or.reduce(last.reshape(64, n), axis=0)
        for w in np.flatnonzero(~miss):
            hits = int(~miss[w])
            for value in (64 * int(words[w]) + lane for lane in range(64) if hits >> lane & 1):
                key = bytearray(template)
                key[window] = value.to_bytes(chunk, "big")
                if value in values and _ecb_encrypt(bytes(key), block) == target:
                    found.append(value)
    return found


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
    block: range,
) -> tuple[list[int], int]:
    """Scan the chunk values in block; return (matches, candidates tried).

    Each value is written big-endian into window of template. With a
    fixed_key the template is a plaintext block and a batch is one OpenSSL
    ECB call (a data stage): a row matches when its first 8 ciphertext bytes
    equal the target's, one uint64 compare, and then all 16 bytes do.
    Without, it is an AES-256 key that encrypts the zero block (the slave
    stage), and a batch is one call of the bitsliced kernel.
    """
    chunk = window.stop - window.start
    enc = Cipher(algorithms.AES(fixed_key), modes.ECB()).encryptor() if fixed_key else None
    if enc:
        rows = np.tile(np.frombuffer(template, dtype=np.uint8), (_BATCH, 1))
        out = bytearray(16 * _BATCH + 15)  # update_into wants one block of slack
        head = np.frombuffer(target, dtype=np.uint64)[0]
        target_row = np.frombuffer(target, dtype=np.uint8)
    matches: list[int] = []
    tried = 0
    for base in range(block.start, block.stop, _BATCH):
        count = min(_BATCH, block.stop - base)
        if enc:
            batch = rows[:count]
            values = np.arange(base, base + count, dtype=">u4").view(np.uint8).reshape(count, 4)
            batch[:, window] = values[:, 4 - chunk:]
            cts = np.frombuffer(out, dtype=np.uint8, count=enc.update_into(batch, out)).reshape(count, 16)
            hits = np.flatnonzero(cts.view(np.uint64)[:, 0] == head)
            found = [base + int(h) for h in hits[(cts[hits] == target_row).all(axis=1)]]
        else:
            found = _key_matches(template, window, bytes(16), target, range(base, base + count))
        tried += count
        if found:
            matches.extend(found)
            if not exhaustive:
                break
    return matches, tried


def _in_order(pool, fn: Callable, items: list, ahead: int):
    """Yield fn(item) for each item in order. With a pool, at most ahead
    calls are submitted past the one being read; closing the generator
    cancels those not yet started."""
    if pool is None:
        yield from map(fn, items)
        return
    todo = iter(items)
    pending = deque(pool.submit(fn, item) for item in islice(todo, ahead))
    try:
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(todo, 1))
            yield result
    finally:
        for future in pending:
            future.cancel()


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
    step = min(_BLOCK, -(-space // workers))
    blocks = [range(lo, min(lo + step, space)) for lo in range(0, space, step)]
    started = time.perf_counter()
    aes_ops = 0

    n_data = len(art.stage_cts)
    known = b""
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for stage, target in enumerate((*art.stage_cts, art.slave_ct)):
            chunk_window, known_window = _stage_layout(stage, chunk, borrow)
            block = bytearray(16)
            block[known_window] = known
            if stage < n_data:
                name, template, fixed_key = f"stage {stage + 1} of {n_data}", bytes(block), art.fixed_key
                note = f"stage {stage + 1}/{n_data}: scanning {space} chunks"
            else:
                name, template, fixed_key = "slave", slave_key_from_block(bytes(block)), None
                note = f"slave stage: scanning {space} keys"
            if progress:
                progress(note)
            scan = partial(_scan, template, chunk_window, fixed_key, target, exhaustive)
            matches: list[int] = []
            # a window of 2 blocks per worker keeps the pool busy; the
            # blocks past a first match that have not started are cancelled
            with closing(_in_order(pool, scan, blocks, 2 * workers)) as results:
                for got, tried in results:
                    aes_ops += tried
                    matches += got
                    if got and not exhaustive:
                        break
            if not matches or (exhaustive and len(matches) > 1):
                raise ArtifactMismatch(name if not matches else f"{name} (ambiguous)")
            found = min(matches).to_bytes(chunk, "big")
            known = found + known if borrow == "tail" else known + found

    _verify(art, known, borrow)
    return BustResult(hidden=known, aes_ops=aes_ops, elapsed=time.perf_counter() - started)


def _verify(art: BorrowArtifacts, hidden: bytes, borrow: str) -> None:
    chunk = art.chunk_bits // 8
    for stage, target in enumerate(art.stage_cts):
        block = bytearray(16)
        for window in _stage_layout(stage, chunk, borrow):
            block[window] = hidden[window]
        if _ecb_encrypt(art.fixed_key, bytes(block)) != target:
            raise ArtifactMismatch(f"stage {stage + 1} of {len(art.stage_cts)} (verification)")
    if _ecb_encrypt(slave_key_from_block(hidden), bytes(16)) != art.slave_ct:
        raise ArtifactMismatch("slave (verification)")
