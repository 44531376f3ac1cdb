"""Bit-exact AES-128/192/256 with per-operation state tracing.

The cipher state is 16 bytes in FIPS column-major order: flat index i holds
the byte at row i % 4, column i // 4. Blocks cross the public API as
``bytes`` of length 16; hex strings are lowercase, 32 chars, no separators.

Rounds are numbered 1..N for the cipher rounds and 0 for the initial
round-key addition. Traces record one entry per operation *output*, from the
initial AddRoundKey through the final AddRoundKey (56 entries for AES-256).

Everything here is pure and value-based; results are safe to share across
threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Sequence

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
    "decrypt_trace",
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
    "block_from_hex",
    "block_to_hex",
    "flat_index",
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


def cipher_steps(n_rounds: int) -> list[StepId]:
    """All StepIds in execution order for an n_rounds-round cipher."""
    steps = [StepId(0, AesOp.ADD_ROUND_KEY_INITIAL)]
    for r in range(1, n_rounds + 1):
        steps.append(StepId(r, AesOp.SUB_BYTES))
        steps.append(StepId(r, AesOp.SHIFT_ROWS))
        if r < n_rounds:
            steps.append(StepId(r, AesOp.MIX_COLUMNS))
        steps.append(StepId(r, AesOp.ADD_ROUND_KEY))
    return steps


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


_MUL2 = bytes(gf_mul(i, 2) for i in range(256))
_MUL3 = bytes(gf_mul(i, 3) for i in range(256))
_MUL9 = bytes(gf_mul(i, 9) for i in range(256))
_MUL11 = bytes(gf_mul(i, 11) for i in range(256))
_MUL13 = bytes(gf_mul(i, 13) for i in range(256))
_MUL14 = bytes(gf_mul(i, 14) for i in range(256))

# ShiftRows as a flat-index permutation: output i takes input _SR_PERM[i].
_SR_PERM = tuple(4 * ((i // 4 + i % 4) % 4) + i % 4 for i in range(16))
_INV_SR_PERM = tuple(_SR_PERM.index(i) for i in range(16))


# ---------------------------------------------------------------------------
# Single operations on flat 16-int lists (internal) and bytes (public)


def _sub(s):
    return [SBOX[b] for b in s]


def _inv_sub(s):
    return [INV_SBOX[b] for b in s]


def _shift(s):
    return [s[p] for p in _SR_PERM]


def _inv_shift(s):
    return [s[p] for p in _INV_SR_PERM]


def _mix(s):
    out = [0] * 16
    for c in (0, 4, 8, 12):
        a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
        out[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
        out[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
        out[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
        out[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
    return out


def _inv_mix(s):
    out = [0] * 16
    for c in (0, 4, 8, 12):
        a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
        out[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
        out[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
        out[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
        out[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
    return out


def sub_bytes(block: bytes) -> bytes:
    return bytes(_sub(block))


def inv_sub_bytes(block: bytes) -> bytes:
    return bytes(_inv_sub(block))


def shift_rows(block: bytes) -> bytes:
    return bytes(_shift(block))


def inv_shift_rows(block: bytes) -> bytes:
    return bytes(_inv_shift(block))


def mix_columns(block: bytes) -> bytes:
    return bytes(_mix(block))


def inv_mix_columns(block: bytes) -> bytes:
    return bytes(_inv_mix(block))


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))


def flat_index(row: int, col: int) -> int:
    """FIPS layout: byte at (row, col) lives at flat index 4*col + row."""
    return 4 * col + row


_LOWER_HEX = re.compile(r"(?:[0-9a-f]{2})*")


def bytes_from_hex(text: str) -> bytes:
    """Decode lowercase hex without separators; unlike `bytes.fromhex`, reject spaces and uppercase."""
    if not isinstance(text, str) or not _LOWER_HEX.fullmatch(text):
        raise ValueError(f"invalid hex {text!r}")
    return bytes.fromhex(text)


def block_from_hex(text: str) -> bytes:
    """Decode a 32-char hex block, rejecting anything malformed."""
    if len(text) != 32:
        raise ValueError(f"expected 32 hex chars, got {len(text)}")
    return bytes_from_hex(text)


def block_to_hex(block: bytes) -> str:
    if len(block) != 16:
        raise ValueError(f"expected 16 bytes, got {len(block)}")
    return block.hex()


# ---------------------------------------------------------------------------
# Key schedule


@dataclass(frozen=True)
class KeySchedule:
    """Expanded round keys K_0..K_N, each 16 bytes in FIPS layout."""

    key_size: int  # bits: 128, 192 or 256
    round_keys: tuple[bytes, ...]

    @property
    def n_rounds(self) -> int:
        return len(self.round_keys) - 1

    def __post_init__(self):
        n = ROUNDS_BY_KEY_LEN.get(self.key_size // 8)
        if n is None or self.key_size % 8:
            raise ValueError(f"key_size must be 128, 192 or 256 bits, got {self.key_size}")
        if len(self.round_keys) != n + 1:
            raise ValueError(f"AES-{self.key_size} needs {n + 1} round keys, got {len(self.round_keys)}")
        for rk in self.round_keys:
            if len(rk) != 16:
                raise ValueError("round keys must be 16 bytes")


def _expand_words(key: bytes) -> list[list[int]]:
    nk = len(key) // 4
    n_rounds = ROUNDS_BY_KEY_LEN[len(key)]
    words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (n_rounds + 1)):
        tmp = list(words[i - 1])
        if i % nk == 0:
            tmp = tmp[1:] + tmp[:1]
            tmp = [SBOX[b] for b in tmp]
            tmp[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            tmp = [SBOX[b] for b in tmp]
        words.append([tmp[j] ^ words[i - nk][j] for j in range(4)])
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
    return KeySchedule(key_size=len(key) * 8, round_keys=round_keys)


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
        tmp = list(words[i - 1])
        if i % nk == 0:
            tmp = tmp[1:] + tmp[:1]
            tmp = [SBOX[b] for b in tmp]
            tmp[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            tmp = [SBOX[b] for b in tmp]
        words[i - nk] = [words[i][j] ^ tmp[j] for j in range(4)]

    key = bytes(b for w in words[:nk] for b in w)
    tail = expand_key(key).round_keys[-len(trailing_keys):]
    if tuple(bytes(k) for k in trailing_keys) != tail:
        raise ValueError("trailing round keys are not produced by any key of this size")
    return key


# ---------------------------------------------------------------------------
# Cipher cores. `taps` maps a StepId to a 16-byte XOR mask applied to the
# state *entering* that operation; `trace` collects operation outputs.


def _xor_into(state: list[int], mask: bytes) -> list[int]:
    return [s ^ m for s, m in zip(state, mask)]


def _cipher(pt: bytes, ks: KeySchedule, taps=None, trace=None) -> bytes:
    n = ks.n_rounds
    rks = ks.round_keys
    state = list(pt)
    for step in cipher_steps(n):
        if taps is not None:
            mask = taps.get(step)
            if mask is not None:
                state = _xor_into(state, mask)
        op = step.op
        if op is AesOp.SUB_BYTES:
            state = _sub(state)
        elif op is AesOp.SHIFT_ROWS:
            state = _shift(state)
        elif op is AesOp.MIX_COLUMNS:
            state = _mix(state)
        else:  # either AddRoundKey flavour
            state = _xor_into(state, rks[step.round])
        if trace is not None:
            trace.append(TraceEntry(step, bytes(state)))
    return bytes(state)


def _inv_cipher(ct: bytes, ks: KeySchedule, taps=None, trace=None) -> bytes:
    n = ks.n_rounds
    rks = ks.round_keys
    state = list(ct)
    for step in reversed(cipher_steps(n)):
        # the state here is the step's output in encryption direction
        if trace is not None:
            trace.append(TraceEntry(step, bytes(state)))
        op = step.op
        if op is AesOp.SUB_BYTES:
            state = _inv_sub(state)
        elif op is AesOp.SHIFT_ROWS:
            state = _inv_shift(state)
        elif op is AesOp.MIX_COLUMNS:
            state = _inv_mix(state)
        else:
            state = _xor_into(state, rks[step.round])
        if taps is not None:
            # now at the state entering `step`, where a fault would land
            mask = taps.get(step)
            if mask is not None:
                state = _xor_into(state, mask)
    return bytes(state)


def _check_block(block: bytes, name: str) -> None:
    if len(block) != 16:
        raise ValueError(f"{name} must be 16 bytes, got {len(block)}")


def encrypt_block(pt: bytes, ks: KeySchedule) -> bytes:
    _check_block(pt, "plaintext")
    return _cipher(pt, ks)


def decrypt_block(ct: bytes, ks: KeySchedule) -> bytes:
    _check_block(ct, "ciphertext")
    return _inv_cipher(ct, ks)


def encrypt_trace(pt: bytes, ks: KeySchedule) -> tuple[bytes, Trace]:
    """Encrypt and return (ciphertext, per-operation output trace)."""
    _check_block(pt, "plaintext")
    entries: list[TraceEntry] = []
    ct = _cipher(pt, ks, trace=entries)
    return ct, tuple(entries)


def decrypt_trace(ct: bytes, ks: KeySchedule) -> tuple[bytes, Trace]:
    """Decrypt and return (plaintext, trace aligned to encryption StepIds).

    The entry at StepId s holds the state this ciphertext implies at the
    *output* of s, so for a matching (pt, ct) pair the trace is byte-equal
    to the one from encrypt_trace. Entries are returned in encryption order.
    """
    _check_block(ct, "ciphertext")
    entries: list[TraceEntry] = []
    pt = _inv_cipher(ct, ks, trace=entries)
    return pt, tuple(reversed(entries))


def cipher_with_taps(block: bytes, ks: KeySchedule, taps: dict, *, inverse: bool = False) -> bytes:
    """Encrypt `block`, or decrypt it with `inverse`, XORing each tap mask
    into the state entering its encryption-direction step."""
    _check_block(block, "ciphertext" if inverse else "plaintext")
    return (_inv_cipher if inverse else _cipher)(block, ks, taps=taps or None)


def peel_final_round(ct: bytes, k_last: bytes) -> bytes:
    """Undo the final AES round under the given last round key.

    Returns InvMixColumns(InvSubBytes(InvShiftRows(ct xor k_last))): the
    ciphertext of the reduced cipher whose own last round key is
    InvMixColumns of the preceding round key.
    """
    _check_block(ct, "ciphertext")
    _check_block(k_last, "round key")
    state = _xor_into(list(ct), k_last)
    return bytes(_inv_mix(_inv_shift(_inv_sub(state))))
