"""A 4-bit-wide analog of the AES last rounds for exhaustive solver checks.

Same structure, nibble-sized values: a bijective 4-bit S-box, GF(2^4)
arithmetic mod x^4+x+1, and the usual 2/3/1/1 column coefficients. The key
space of one column is 16^4, small enough to enumerate completely.
"""

import numpy as np

from aesdfa.dfa import CipherTables

TOY_SBOX = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)
TOY_INV_SBOX = tuple(TOY_SBOX.index(i) for i in range(16))

# The AES MixColumns matrix (FIPS-197 5.1.3), row-major: MIX_MATRIX[out_row][in_row].
# A fault in state row r imprints column r on its column's differences.
MIX_MATRIX = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))


def gf16_mul(a: int, b: int) -> int:
    acc = 0
    for _ in range(4):
        if b & 1:
            acc ^= a
        b >>= 1
        carry = a & 0x8
        a = (a << 1) & 0xF
        if carry:
            a ^= 0x3  # x^4 := x + 1
    return acc


TOY_TABLES = CipherTables(inv_sbox=TOY_INV_SBOX, mul=gf16_mul)

_MUL = np.array([[gf16_mul(a, b) for b in range(16)] for a in range(16)], dtype=np.uint8)
# DIV[d, c] = the eps with mul(c, eps) == d, for c != 0
_DIV = np.zeros((16, 16), dtype=np.uint8)
for _c in range(1, 16):
    for _e in range(16):
        _DIV[gf16_mul(_c, _e), _c] = _e


def pack(values) -> int:
    """One group's 4 values as the solver stores them: value i at bits 8i."""
    return sum(v << 8 * i for i, v in enumerate(values))


def toy_fault_pair(rng):
    """One synthetic (key, ref, faulty) column produced by a genuine fault."""
    key = [rng.randrange(16) for _ in range(4)]
    state = [rng.randrange(16) for _ in range(4)]
    row = rng.randrange(4)
    eps = rng.randrange(1, 16)
    coeffs = [MIX_MATRIX[i][row] for i in range(4)]
    ref = [TOY_SBOX[state[i]] ^ key[i] for i in range(4)]
    faulty = [TOY_SBOX[state[i] ^ gf16_mul(coeffs[i], eps)] ^ key[i] for i in range(4)]
    return key, ref, faulty


def exhaustive_tuples(ref, faulty):
    """All key tuples satisfying the fault equations, by direct enumeration.

    Checks the defining predicate for every one of the 16^4 tuples: does
    some (eps, row) make inv_sbox(ref^k) ^ inv_sbox(faulty^k) equal
    coeff*eps on all four positions. Vectorized but definitional; it shares
    no code path with the solver. Tuples come back packed, as `pack` does.
    """
    inv = np.array(TOY_INV_SBOX, dtype=np.uint8)
    ks = np.arange(16, dtype=np.uint8)
    d = [inv[ref[i] ^ ks] ^ inv[faulty[i] ^ ks] for i in range(4)]

    ok = np.zeros((16, 16, 16, 16), dtype=bool)
    for row in range(4):
        coeffs = [MIX_MATRIX[i][row] for i in range(4)]
        eps = _DIV[d[0], coeffs[0]]  # candidate fault value implied by position 0
        cond = (d[0] != 0)[:, None, None, None]
        cond = cond & (_MUL[coeffs[1]][eps][:, None, None, None] == d[1][None, :, None, None])
        cond = cond & (_MUL[coeffs[2]][eps][:, None, None, None] == d[2][None, None, :, None])
        cond = cond & (_MUL[coeffs[3]][eps][:, None, None, None] == d[3][None, None, None, :])
        ok |= cond
    return frozenset(pack(int(v) for v in idx) for idx in np.argwhere(ok))
