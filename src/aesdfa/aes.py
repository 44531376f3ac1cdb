"""Bit-exact AES-128/192/256 with per-operation state tracing.

The cipher state is 16 bytes in FIPS column-major order: flat index i holds
the byte at row i % 4, column i // 4. Blocks cross the public API as
``bytes`` of length 16. Hex belongs to the file formats and flags at the
edges of the toolkit; `bytes_from_hex` is its one decoder, and it accepts
only lowercase digit pairs of an expected length.
The cipher keeps the state as ``bytes`` too: SubBytes is a
``bytes.translate``, ShiftRows and the byte rotation within a column are
masked shifts of the state read as one int, the MixColumns products are
``bytes.translate`` tables, and AddRoundKey is an integer XOR. Each of these
runs on N states packed back to back as readily as on one; the public
single operations are the batch of one.

Rounds are numbered 1..N for the cipher rounds and 0 for the initial
round-key addition. Traces record one entry per operation *output*, from the
initial AddRoundKey through the final AddRoundKey (56 entries for AES-256).
The clean trace of the last few (plaintext, key schedule) pairs is cached:
`encrypt_trace` returns it, and a faulted encryption resumes from it at the
first tapped step instead of rerunning the rounds before the fault.
There are two cipher cores, one per direction, and both are packed: each
runs N blocks back to back in one buffer with a fixed number of operations
per step. The forward core serves `encrypt_block` and the clean trace,
the inverse core `decrypt_block` and the localizer's `decrypt_traces`.
`cipher_with_taps` runs a list of faulted runs on either core, each run in
a lane of its own, so a whole campaign's faulted runs encrypt as a few
packed calls; it alone builds the per-lane tap masks.

Everything here is pure and value-based; results are safe to share across
threads.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "AesOp",
    "StepId",
    "KeySchedule",
    "Trace",
    "TraceEntry",
    "ROUNDS_BY_KEY_LEN",
    "SBOX",
    "INV_SBOX",
    "gf_mul",
    "expand_key",
    "invert_key_schedule",
    "encrypt_block",
    "decrypt_block",
    "encrypt_trace",
    "decrypt_traces",
    "cipher_with_taps",
    "peel_final_round",
    "sub_bytes",
    "inv_sub_bytes",
    "shift_rows",
    "inv_shift_rows",
    "mix_columns",
    "inv_mix_columns",
    "xor_bytes",
    "bytes_from_hex",
]

# Cipher rounds per key length in bytes.
ROUNDS_BY_KEY_LEN = {16: 10, 24: 12, 32: 14}


class AesOp(IntEnum):
    """One AES operation. Values follow the in-round execution order."""

    ADD_ROUND_KEY_INITIAL = 0
    SUB_BYTES = 1
    SHIFT_ROWS = 2
    MIX_COLUMNS = 3
    ADD_ROUND_KEY = 4

    @property
    def label(self) -> str:
        return _OP_LABELS[self]

    @classmethod
    def from_label(cls, text: str) -> "AesOp":
        key = text.replace("_", "").replace("-", "").lower()
        try:
            return _OPS_BY_KEY[key]
        except KeyError:
            raise ValueError(f"unknown AES operation {text!r}") from None


_OP_LABELS = {
    AesOp.ADD_ROUND_KEY_INITIAL: "AddRoundKeyInitial",
    AesOp.SUB_BYTES: "SubBytes",
    AesOp.SHIFT_ROWS: "ShiftRows",
    AesOp.MIX_COLUMNS: "MixColumns",
    AesOp.ADD_ROUND_KEY: "AddRoundKey",
}
_OPS_BY_KEY = {label.lower(): op for op, label in _OP_LABELS.items()}


class StepId(NamedTuple):
    """A (round, operation) position in the cipher dataflow."""

    round: int
    op: AesOp

    def validate(self, n_rounds: int) -> "StepId":
        if not 0 <= self.round <= n_rounds:
            raise ValueError(f"round {self.round} out of range 0..{n_rounds}")
        if (self.round == 0) != (self.op is AesOp.ADD_ROUND_KEY_INITIAL):
            raise ValueError("round 0 admits only AddRoundKeyInitial, later rounds never do")
        if self.round == n_rounds and self.op is AesOp.MIX_COLUMNS:
            raise ValueError("the last round has no MixColumns")
        return self

    def __str__(self) -> str:
        return f"round {self.round} {self.op.label}"


class TraceEntry(NamedTuple):
    step: StepId
    state: bytes


Trace = tuple[TraceEntry, ...]


# ---------------------------------------------------------------------------
# GF(2^8) arithmetic, tables

SBOX = (
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
)

INV_SBOX = tuple(SBOX.index(i) for i in range(256))

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36)


def _build_gf_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    # exp/log over the generator 0x03 of GF(2^8) mod x^8+x^4+x^3+x+1
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11b if x & 0x80 else 0)
        x &= 0xff
    exp[255:510] = exp[0:255]
    return tuple(exp), tuple(log)


_GF_EXP, _GF_LOG = _build_gf_tables()


def gf_mul(a: int, b: int) -> int:
    """Product in the Rijndael field GF(2^8) mod x^8+x^4+x^3+x+1."""
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


_SBOX_BYTES = bytes(SBOX)
_INV_SBOX_BYTES = bytes(INV_SBOX)


def _products(coeffs: tuple[int, ...]) -> tuple[bytes | None, ...]:
    # one `translate` table per coefficient; None for the product by 1
    return tuple(None if c == 1 else bytes(gf_mul(a, c) for a in range(256)) for c in coeffs)


# (Inv)MixColumns' coefficients of a column's rows 3, 2, 1 and 0 in its
# row 0, in the order `_mix_columns_packed` folds them in
_MIX_PRODUCTS = _products((1, 1, 3, 2))
_INV_MIX_PRODUCTS = _products((9, 13, 11, 14))


# ---------------------------------------------------------------------------
# Operations on N states packed back to back in one bytes object, state j
# in bytes 16j..16j+15, with a fixed number of operations whatever N is:
# ShiftRows and the byte rotation within a column are masked shifts of the
# buffer read as one little-endian int, and the MixColumns products are
# `bytes.translate`.


class _LaneMasks(NamedTuple):
    row0: int
    low3: int  # rows 0..2
    # per row r = 1..3: (bytes shifted left, by how much, bytes shifted
    # right, by how much) to rotate row r by r columns
    shift_rows: tuple[tuple[int, int, int, int], ...]
    inv_shift_rows: tuple[tuple[int, int, int, int], ...]


# a few sizes: single blocks, a campaign's batches and the localizer's chunks
@functools.lru_cache(maxsize=4)
def _lane_masks(n: int) -> _LaneMasks:
    """Masks over n packed states, each a 16-byte pattern repeated n times."""

    def repeat(keep) -> int:
        return int.from_bytes(bytes(0xFF if keep(i // 4, i % 4) else 0 for i in range(16)) * n, "little")

    def rotation(r: int, cols: int) -> tuple[int, int, int, int]:
        # row r moves `cols` columns on: columns below 4 - cols move up by
        # 32 * cols bits, the rest wrap round to the first columns
        return (
            repeat(lambda col, row: row == r and col < 4 - cols), 32 * cols,
            repeat(lambda col, row: row == r and col >= 4 - cols), 128 - 32 * cols,
        )

    return _LaneMasks(
        repeat(lambda col, row: row == 0),
        repeat(lambda col, row: row < 3),
        tuple(rotation(r, 4 - r) for r in (1, 2, 3)),
        tuple(rotation(r, r) for r in (1, 2, 3)),
    )


def _shift_rows_packed(state: bytes, n: int, inverse: bool = False) -> bytes:
    masks = _lane_masks(n)
    x = int.from_bytes(state, "little")
    out = x & masks.row0
    for left, up, right, down in masks.inv_shift_rows if inverse else masks.shift_rows:
        out |= (x & left) << up | (x & right) >> down
    return out.to_bytes(len(state), "little")


def _mix_columns_packed(state: bytes, n: int, products) -> bytes:
    # output row r of a column is p_0 a_r ^ p_1 a_{r+1} ^ p_2 a_{r+2} ^ p_3 a_{r+3},
    # computed as P_0 ^ rot(P_1 ^ rot(P_2 ^ rot(P_3))), rot bringing row
    # r + 1 to row r (Horner's rule over the rows)
    masks = _lane_masks(n)
    row0, low3 = masks.row0, masks.low3
    x = 0
    for table in products:
        product = int.from_bytes(state if table is None else state.translate(table), "little")
        x = product ^ ((x >> 8) & low3 | (x & row0) << 24)
    return x.to_bytes(len(state), "little")


# ---------------------------------------------------------------------------
# Single operations on 16-byte states


def sub_bytes(block: bytes) -> bytes:
    return bytes(block).translate(_SBOX_BYTES)


def inv_sub_bytes(block: bytes) -> bytes:
    return bytes(block).translate(_INV_SBOX_BYTES)


def shift_rows(block: bytes) -> bytes:
    return _shift_rows_packed(bytes(block), 1)


def inv_shift_rows(block: bytes) -> bytes:
    return _shift_rows_packed(bytes(block), 1, inverse=True)


def mix_columns(block: bytes) -> bytes:
    return _mix_columns_packed(bytes(block), 1, _MIX_PRODUCTS)


def inv_mix_columns(block: bytes) -> bytes:
    return _mix_columns_packed(bytes(block), 1, _INV_MIX_PRODUCTS)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


_LOWER_HEX = re.compile(r"(?:[0-9a-f]{2})*")


def bytes_from_hex(text: str, name: str, sizes: tuple[int, ...]) -> bytes:
    """Decode `name`, lowercase hex without separators, of one of `sizes` bytes.

    Unlike `bytes.fromhex`, spaces and uppercase digits are rejected.
    """
    if not isinstance(text, str) or not _LOWER_HEX.fullmatch(text):
        raise ValueError(f"{name} is not valid hex")
    if len(text) // 2 not in sizes:
        raise ValueError(f"{name} must be {' or '.join(map(str, sizes))} bytes, got {len(text) // 2}")
    return bytes.fromhex(text)


# ---------------------------------------------------------------------------
# Key schedule


@dataclass(frozen=True)
class KeySchedule:
    """Expanded round keys K_0..K_N, each 16 bytes in FIPS layout."""

    round_keys: tuple[bytes, ...]

    @property
    def n_rounds(self) -> int:
        return len(self.round_keys) - 1

    def __post_init__(self):
        if self.n_rounds not in ROUNDS_BY_KEY_LEN.values():
            raise ValueError(f"AES needs 11, 13 or 15 round keys, got {len(self.round_keys)}")
        if any(len(rk) != 16 for rk in self.round_keys):
            raise ValueError("round keys must be 16 bytes")


def _word_step(prev: list[int], i: int, nk: int) -> list[int]:
    """What the FIPS schedule XORs into word i - nk to make word i, from word
    i - 1: RotWord, SubWord and Rcon every nk words, SubWord alone midway for
    AES-256, and the word unchanged otherwise."""
    if i % nk == 0:
        word = [SBOX[b] for b in prev[1:] + prev[:1]]
        word[0] ^= _RCON[i // nk - 1]
        return word
    if nk > 6 and i % nk == 4:
        return [SBOX[b] for b in prev]
    return prev


def _expand_words(key: bytes) -> list[list[int]]:
    nk = len(key) // 4
    n_rounds = ROUNDS_BY_KEY_LEN[len(key)]
    words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (n_rounds + 1)):
        words.append([a ^ b for a, b in zip(_word_step(words[i - 1], i, nk), words[i - nk])])
    return words


def expand_key(key: bytes) -> KeySchedule:
    """FIPS key expansion for a 16-, 24- or 32-byte cipher key."""
    if len(key) not in ROUNDS_BY_KEY_LEN:
        raise ValueError(f"key must be 16, 24 or 32 bytes, got {len(key)}")
    words = _expand_words(key)
    round_keys = tuple(
        bytes(b for w in words[4 * r:4 * r + 4] for b in w)
        for r in range(len(words) // 4)
    )
    return KeySchedule(round_keys=round_keys)


def invert_key_schedule(key_size: int, trailing_keys: Sequence[bytes]) -> bytes:
    """Recover the cipher key from the trailing round keys.

    AES-128 needs the last round key; AES-192/256 need the last two, in
    schedule order (K_{N-1}, K_N). Raises ValueError on malformed lengths or
    on a trailing pair no key expansion produces (possible only for AES-192,
    where the 8 supplied words are over-determined).
    """
    key_len = key_size // 8
    if key_size % 8 or key_len not in ROUNDS_BY_KEY_LEN:
        raise ValueError(f"key_size must be 128, 192 or 256 bits, got {key_size}")
    nk = key_len // 4
    n_rounds = ROUNDS_BY_KEY_LEN[key_len]
    expected = 1 if key_size == 128 else 2
    if len(trailing_keys) != expected:
        raise ValueError(f"AES-{key_size} inversion needs {expected} trailing round keys, got {len(trailing_keys)}")
    for rk in trailing_keys:
        if len(rk) != 16:
            raise ValueError("round keys must be 16 bytes")

    total = 4 * (n_rounds + 1)
    known = len(trailing_keys) * 4
    words: list[list[int] | None] = [None] * total
    flat = b"".join(trailing_keys)
    for j in range(known):
        words[total - known + j] = list(flat[4 * j:4 * j + 4])

    for i in range(total - known + nk - 1, nk - 1, -1):
        # w[i - nk] = w[i] ^ f_i(w[i - 1]); the known window always spans >= nk words
        words[i - nk] = [a ^ b for a, b in zip(words[i], _word_step(words[i - 1], i, nk))]

    key = bytes(b for w in words[:nk] for b in w)
    tail = expand_key(key).round_keys[-len(trailing_keys):]
    if tuple(bytes(k) for k in trailing_keys) != tail:
        raise ValueError("trailing round keys are not produced by any key of this size")
    return key


# ---------------------------------------------------------------------------
# Cipher cores. Both run N packed states through the operations above,
# (Inv)SubBytes as one `bytes.translate` and AddRoundKey as an XOR with its
# 16 bytes repeated N times. `taps` maps a StepId to a 16N-byte XOR mask,
# lane j's in bytes 16j..16j+15, applied to the state *entering* that
# operation; `trace` collects operation outputs.

# per round count: every valid step in encryption order
_STEPS = {
    n: tuple(StepId(r, op) for r in range(n + 1) for op in AesOp
             if (r == 0) == (op is AesOp.ADD_ROUND_KEY_INITIAL) and (r < n or op is not AesOp.MIX_COLUMNS))
    for n in ROUNDS_BY_KEY_LEN.values()
}
_STEP_INDEX = {n: {step: i for i, step in enumerate(steps)} for n, steps in _STEPS.items()}
# clean traces kept for reuse: a campaign encrypts one plaintext many times
_TRACE_CACHE_SIZE = 32
# faulted runs per packed core call: at most 16 KB of masks per tapped step
_BATCH = 1024


def _cipher(state: bytes, n: int, ks: KeySchedule, start: int = 0, taps=None, trace=None) -> bytes:
    rks = ks.round_keys
    for step in _STEPS[ks.n_rounds][start:]:
        mask = taps.get(step) if taps else None
        if mask is not None:
            state = xor_bytes(state, mask)
        if step.op is AesOp.SUB_BYTES:
            state = state.translate(_SBOX_BYTES)
        elif step.op is AesOp.SHIFT_ROWS:
            state = _shift_rows_packed(state, n)
        elif step.op is AesOp.MIX_COLUMNS:
            state = _mix_columns_packed(state, n, _MIX_PRODUCTS)
        else:
            state = xor_bytes(state, rks[step.round] * n)
        if trace is not None:
            trace.append(TraceEntry(step, state))
    return state


@functools.lru_cache(maxsize=_TRACE_CACHE_SIZE)
def _clean_trace(pt: bytes, ks: KeySchedule) -> tuple[bytes, Trace]:
    entries: list[TraceEntry] = []
    ct = _cipher(pt, 1, ks, trace=entries)
    return ct, tuple(entries)


def _inv_cipher(state: bytes, n: int, ks: KeySchedule, taps=None, trace=None) -> bytes:
    rks = ks.round_keys
    for step in reversed(_STEPS[ks.n_rounds]):
        # the state here is the step's output in encryption direction
        if trace is not None:
            trace.append(TraceEntry(step, state))
        if step.op is AesOp.SUB_BYTES:
            state = state.translate(_INV_SBOX_BYTES)
        elif step.op is AesOp.SHIFT_ROWS:
            state = _shift_rows_packed(state, n, inverse=True)
        elif step.op is AesOp.MIX_COLUMNS:
            state = _mix_columns_packed(state, n, _INV_MIX_PRODUCTS)
        else:
            state = xor_bytes(state, rks[step.round] * n)
        # now at the state entering `step`, where a fault would land
        mask = taps.get(step) if taps else None
        if mask is not None:
            state = xor_bytes(state, mask)
    return state


def decrypt_traces(cts: Sequence[bytes], ks: KeySchedule) -> tuple[bytes, Trace]:
    """Decrypt N ciphertexts and trace them, aligned to encryption StepIds.

    Returns (plaintexts, trace), each block-valued field holding the N
    blocks back to back in input order: lane j (bytes 16j..16j+15) of the
    entry at step s is the state ciphertext j implies at the *output* of s,
    byte-equal to encrypt_trace's for a matching (pt, ct) pair. It runs on
    the one inverse core, which decrypt_block and faulted decrypts share.
    """
    for ct in cts:
        _check_block(ct, "ciphertext")
    entries: list[TraceEntry] = []
    state = _inv_cipher(b"".join(cts), len(cts), ks, trace=entries)
    entries.reverse()
    return state, tuple(entries)


def _check_block(block: bytes, name: str) -> None:
    if len(block) != 16:
        raise ValueError(f"{name} must be 16 bytes, got {len(block)}")


def encrypt_block(pt: bytes, ks: KeySchedule) -> bytes:
    _check_block(pt, "plaintext")
    return _cipher(bytes(pt), 1, ks)


def decrypt_block(ct: bytes, ks: KeySchedule) -> bytes:
    _check_block(ct, "ciphertext")
    return _inv_cipher(bytes(ct), 1, ks)


def encrypt_trace(pt: bytes, ks: KeySchedule) -> tuple[bytes, Trace]:
    """Encrypt and return (ciphertext, per-operation output trace).

    The last few (plaintext, key schedule) pairs keep their result, so
    repeated calls with one campaign's plaintext cost a lookup.
    """
    _check_block(pt, "plaintext")
    return _clean_trace(bytes(pt), ks)


def cipher_with_taps(block: bytes, ks: KeySchedule, runs: Iterable[Iterable[tuple[StepId, bytes]]], *,
                     inverse: bool = False) -> list[bytes]:
    """Encrypt `block`, or decrypt it with `inverse`, once per run, XORing
    each of the run's (step, mask) taps into the state entering its
    encryption-direction step; one run's masks on one step combine by XOR.

    Returns one output per run, in order; an empty run is a clean run.
    Runs go `_BATCH` to one call of the packed core, run j of a call in
    lane j, and forward calls resume from the cached clean trace at the
    call's earliest tapped step, so a fault late in the cipher costs only
    the rounds after it. Every run is checked before any is run: ValueError
    for a tap at a step this cipher lacks, then for the block's length,
    then for a mask that is not 16 bytes.
    """
    runs = [tuple(run) for run in runs]
    every_tap = [tap for run in runs for tap in run]
    for step, _ in every_tap:
        step.validate(ks.n_rounds)
    _check_block(block, "ciphertext" if inverse else "plaintext")
    for _, mask in every_tap:
        if len(mask) != 16:
            raise ValueError(f"tap masks must be 16 bytes, got {len(mask)}")
    block = bytes(block)
    index = _STEP_INDEX[ks.n_rounds]
    outputs = []
    for first in range(0, len(runs), _BATCH):
        batch = runs[first:first + _BATCH]
        n = len(batch)
        lanes: dict[StepId, list[bytes]] = {}
        for j, run in enumerate(batch):
            for step, mask in run:
                if step not in lanes:
                    lanes[step] = [bytes(16)] * n
                lanes[step][j] = xor_bytes(lanes[step][j], mask)
        taps = {step: b"".join(masks) for step, masks in lanes.items()}
        if inverse:
            out = _inv_cipher(block * n, n, ks, taps)
        else:
            start = min(map(index.__getitem__, taps), default=0)
            state = _clean_trace(block, ks)[1][start - 1].state if start else block
            out = _cipher(state * n, n, ks, start, taps)
        outputs += [out[i:i + 16] for i in range(0, len(out), 16)]
    return outputs


def peel_final_round(ct: bytes, k_last: bytes) -> bytes:
    """Undo the final AES round under the given last round key.

    Returns InvMixColumns(InvSubBytes(InvShiftRows(ct xor k_last))): the
    ciphertext of the reduced cipher whose own last round key is
    InvMixColumns of the preceding round key.
    """
    _check_block(ct, "ciphertext")
    _check_block(k_last, "round key")
    return inv_mix_columns(inv_sub_bytes(inv_shift_rows(xor_bytes(ct, k_last))))
