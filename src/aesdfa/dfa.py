"""Differential fault analysis of the AES last rounds.

The solver consumes (reference, faulty) ciphertext pairs whose difference
was caused by a single corrupted state byte entering the MixColumns two
rounds before the end. That byte spreads into one full column, and the
column lands on four ciphertext positions (a diagonal group) after the
final ShiftRows. For each group the key bytes satisfy

    inv_sbox(ref ^ k) ^ inv_sbox(faulty ^ k) = coeff * eps

with an unknown fault value eps and a coefficient column (a rotation of
2,1,1,3) selected by the unknown fault row. Candidates are tracked as full
4-byte tuples per group, each packed into one int (byte i at bits 8i):
a byte survives only inside at least one tuple consistent with a single
(eps, row) hypothesis. The first usable faulty ciphertext's tuples are
enumerated; every later one filters them by the same predicate, in bytes
operations, which collapses each group to one tuple with two or three
usable faulty ciphertexts. These per-group tuple sets are the only
candidate representation; keys are the product of the four sets whenever
it has at most _MAX_PRODUCT members, a single key being the product of one.

A second round key is recovered by peeling the final round with the first
one and re-running the same attack on the shortened cipher; the peeled
cipher's last round key is InvMixColumns of the true one, undone here
before returning.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, product
from math import prod
from typing import Callable, Sequence

from .aes import INV_SBOX, gf_mul, mix_columns, peel_final_round

__all__ = [
    "DiagonalGroup",
    "DIAGONAL_GROUPS",
    "CipherTables",
    "ColumnCandidates",
    "DfaResult",
    "InconsistentPairError",
    "column_candidates",
    "last_round_key",
    "single_column_key",
    "penultimate_round_key",
]

# Differential coefficients a fault in state row r imprints on its column:
# column r of the MixColumns matrix, a rotation of (2, 1, 1, 3).
_FAULT_COLUMNS = ((2, 1, 1, 3), (3, 2, 1, 1), (1, 3, 2, 1), (1, 1, 3, 2))

# larger candidate products are left unassembled
_MAX_PRODUCT = 16

# offsets of a packed tuple's bytes 0..3 within one array("I") item
_ITEM = array("I").itemsize
_BYTE_AT = range(4) if sys.byteorder == "little" else range(_ITEM - 1, _ITEM - 5, -1)


@dataclass(frozen=True)
class DiagonalGroup:
    """The 4 ciphertext positions fed by one state column before the final ShiftRows."""

    index: int
    positions: tuple[int, int, int, int]


# column g byte at row i lands at flat position 4*((g - i) % 4) + i
DIAGONAL_GROUPS = tuple(DiagonalGroup(g, tuple(4 * ((g - i) % 4) + i for i in range(4))) for g in range(4))


@dataclass(frozen=True)
class CipherTables:
    """Solver parameters: inverse S-box and field multiply.

    The values range over len(inv_sbox): 256 for AES, 16 for the 4-bit toy
    cipher the tests check the same candidate logic on exhaustively. Both
    column_candidates and _filter_tuples read the one table set `_tables`,
    built on first use.
    """

    inv_sbox: tuple[int, ...]
    mul: Callable[[int, int], int]

    @cached_property
    def _tables(self) -> tuple[list[int], list[bytes], list[tuple[int, int, int]], bytes]:
        """256-byte tables of the fault equation; entries past len(inv_sbox) are 0.

        Per value b, the row k -> inv_sbox[b ^ k] as a little-endian int, so
        rows[r] ^ rows[f] maps each key byte to its differential; one table
        d -> (c / c_0) * d per distinct coefficient ratio, and per fault row
        the indices of its ratios for positions 1..3; and the table that maps
        0 to 1 and every other byte to 0.
        """
        n = len(self.inv_sbox)
        inv = bytes(self.inv_sbox).ljust(256, b"\0")
        identity, ones = int.from_bytes(bytes(range(256)), "little"), int.from_bytes(b"\1" * 256, "little")
        rows = [
            int.from_bytes((identity ^ b * ones).to_bytes(256, "little").translate(inv), "little")
            for b in range(n)
        ]
        index: dict[tuple[int, int], int] = {}
        fault_rows = [tuple(index.setdefault((c, c0), len(index)) for c in rest) for c0, *rest in _FAULT_COLUMNS]
        scales = []
        for c, c0 in index:
            scale = bytearray(256)
            for eps in range(n):
                scale[self.mul(c0, eps)] = self.mul(c, eps)
            scales.append(bytes(scale))
        return rows, scales, fault_rows, b"\1".ljust(256, b"\0")


_AES_TABLES = CipherTables(inv_sbox=INV_SBOX, mul=gf_mul)


@dataclass(frozen=True)
class ColumnCandidates:
    """Surviving key tuples for one diagonal group, packed: group row i's byte at bits 8i."""

    group: DiagonalGroup
    tuples: frozenset[int]


class InconsistentPairError(Exception):
    """A faulty ciphertext admits no solution jointly with the evidence so far.

    This is the filtering signal of the pairwise search: pairs built from a
    corruption outside the single-byte model die here.
    """

    def __init__(self, ct: bytes, group: DiagonalGroup):
        self.ct = ct
        self.group = group
        super().__init__(
            f"faulty ciphertext {ct.hex()} leaves no candidates in group {group.index}"
        )


@dataclass
class DfaResult:
    """Outcome of a last-round-key recovery.

    `candidates` holds one ColumnCandidates per diagonal group, or None
    for a group no usable ciphertext constrained. `keys` lists the product
    of the groups' candidates when it has at most 16 keys; `key` is set
    when it has one. `skipped` lists (index, reason) for faulty
    ciphertexts that were not usable.
    """

    candidates: tuple[ColumnCandidates | None, ...]
    keys: list[bytes] = field(default_factory=list)
    used: list[int] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)

    @property
    def key(self) -> bytes | None:
        return self.keys[0] if len(self.keys) == 1 else None


def column_candidates(
    ref_bytes: Sequence[int],
    faulty_bytes: Sequence[int],
    group: DiagonalGroup,
    tables: CipherTables = _AES_TABLES,
) -> ColumnCandidates:
    """Key tuples for one group consistent with some single-fault hypothesis.

    Keeps the key tuples whose pre-SubBytes differentials match one fault
    row and one nonzero fault value eps on all four positions: with eps
    the first position's differential d_0 over its coefficient c_0,
    position i needs (c_i / c_0) * d_0. Reads the table set _filter_tuples
    reads, CipherTables._tables. Returns an empty set when no hypothesis
    fits; callers treat that as the inconsistent-pair signal.
    """
    if len(ref_bytes) != 4 or len(faulty_bytes) != 4:
        raise ValueError("group candidates need exactly 4 reference and 4 faulty bytes")
    if tuple(ref_bytes) == tuple(faulty_bytes):
        raise ValueError("reference and faulty bytes are identical: no information")

    rows, scales, fault_rows, _ = tables._tables
    n = len(tables.inv_sbox)
    # per position: differential -> key bytes, shifted to the position's bits
    by_diff: list[dict[int, list[int]]] = []
    for i, (r, f) in enumerate(zip(ref_bytes, faulty_bytes)):
        solutions: dict[int, list[int]] = {}
        for k, d in enumerate((rows[r] ^ rows[f]).to_bytes(256, "little")[:n]):
            solutions.setdefault(d, []).append(k << 8 * i)
        by_diff.append(solutions)
    first, second, third, fourth = by_diff
    first.pop(0, None)  # a zero differential is no fault
    tuples: set[int] = set()
    for a, b, c in fault_rows:
        scale1, scale2, scale3 = scales[a], scales[b], scales[c]
        for d0, k0s in first.items():
            k1s, k2s, k3s = second.get(scale1[d0]), third.get(scale2[d0]), fourth.get(scale3[d0])
            if k1s and k2s and k3s:
                tuples.update(k0 | k1 | k2 | k3 for k0 in k0s for k1 in k1s for k2 in k2s for k3 in k3s)
    return ColumnCandidates(group, frozenset(tuples))


def _split_groups(ct: bytes) -> list[tuple[int, ...]]:
    if len(ct) != 16:
        raise ValueError(f"ciphertext must be 16 bytes, got {len(ct)}")
    return [tuple(ct[p] for p in g.positions) for g in DIAGONAL_GROUPS]


def _filter_tuples(
    tuples: array, ref: Sequence[int], fault: Sequence[int], tables: CipherTables = _AES_TABLES
) -> array:
    """The members of `tuples` that column_candidates(ref, fault) enumerates, in their order.

    Tests column_candidates's predicate on each tuple in bytes operations,
    over the same table set, CipherTables._tables: position i's key bytes
    translate through inv_sbox[ref_i ^ k] ^ inv_sbox[fault_i ^ k] to their
    differentials d_i, and a fault row fits where d_0 times each
    coefficient ratio c_i / c_0 equals d_1..d_3. At a position with
    ref_i == fault_i every d_i is 0 and no row fits, as no nonzero eps does.
    """
    if tuple(ref) == tuple(fault):
        raise ValueError("reference and faulty bytes are identical: no information")
    rows, scales, fault_rows, is_zero = tables._tables
    buf, n = tuples.tobytes(), len(tuples)
    d0, *later = (
        buf[at :: tuples.itemsize].translate((rows[r] ^ rows[f]).to_bytes(256, "little"))
        for at, r, f in zip(_BYTE_AT, ref, fault)
    )
    d1, d2, d3 = (int.from_bytes(d, "little") for d in later)
    scaled = [int.from_bytes(d0.translate(scale), "little") for scale in scales]
    fits = 0
    for a, b, c in fault_rows:
        miss = (scaled[a] ^ d1) | (scaled[b] ^ d2) | (scaled[c] ^ d3)
        fits |= int.from_bytes(miss.to_bytes(n, "little").translate(is_zero), "little")
    return array("I", compress(tuples, fits.to_bytes(n, "little")) if fits else ())


def _key_product(columns: Sequence[ColumnCandidates | None]) -> list[bytes]:
    if any(col is None for col in columns) or prod(len(col.tuples) for col in columns) > _MAX_PRODUCT:
        return []
    # each tuple moved to its key positions, as a 16-byte little-endian int
    placed = [
        sorted(sum(((t >> 8 * i) & 0xFF) << 8 * p for i, p in enumerate(col.group.positions)) for t in col.tuples)
        for col in columns
    ]
    return [sum(parts).to_bytes(16, "little") for parts in product(*placed)]


def _solve(ref_ct: bytes, faulty_cts: Sequence[bytes], groups: Sequence[int], on_conflict: str,
           memo: dict) -> DfaResult:
    """last_round_key's narrowing over the diagonal groups in `groups`; `keys` is left empty."""
    ref_groups = _split_groups(ref_ct)
    acc: list[array] = []  # per member of `groups`, once a ciphertext is used
    result = DfaResult(candidates=(None,) * 4)
    for idx, faulty in enumerate(faulty_cts):
        faulty_groups = _split_groups(faulty)
        if any(ref_groups[g] == faulty_groups[g] for g in groups):
            result.skipped.append((idx, "diff does not cover all 4 groups"))
            continue
        merged = []
        for at, g in enumerate(groups):
            ref, fault = ref_groups[g], faulty_groups[g]
            if acc:
                joint = _filter_tuples(acc[at], ref, fault)
            else:
                joint = memo.get((g, ref, fault))
                if joint is None:
                    joint = memo[g, ref, fault] = array("I", column_candidates(ref, fault, DIAGONAL_GROUPS[g]).tuples)
            if not joint:
                break
            merged.append(joint)
        if len(merged) == len(groups):
            acc = merged
            result.used.append(idx)
        elif on_conflict == "raise":
            raise InconsistentPairError(faulty, DIAGONAL_GROUPS[groups[len(merged)]])
        else:
            result.skipped.append((idx, f"no joint solution in group {groups[len(merged)]}"))

    narrowed = {g: ColumnCandidates(DIAGONAL_GROUPS[g], frozenset(tuples)) for g, tuples in zip(groups, acc)}
    result.candidates = tuple(narrowed.get(g) for g in range(4))
    return result


def last_round_key(
    ref_ct: bytes,
    faulty_cts: Sequence[bytes],
    *,
    on_conflict: str = "raise",
    memo: dict | None = None,
) -> DfaResult:
    """Recover the final round key from fault pairs two rounds out.

    Each faulty ciphertext must differ from the reference in all four
    diagonal groups (the propagation signature of a single-byte fault at
    the MixColumns input two rounds before the end); others are skipped
    with a notice. The first usable ciphertext's candidate tuples are
    enumerated per group, and each later usable one keeps only the tuples
    it also admits. single_column_key runs this same loop on its one group.

    A ciphertext that leaves any group without a tuple raises
    InconsistentPairError naming it, or, with on_conflict="skip", is
    dropped and recorded so a batch with enough good samples still
    converges.

    `memo` maps (group index, reference and faulty group bytes) to their
    enumerated tuples, for the first usable ciphertext only: later ones
    filter those tuples and are not enumerated. A search passes one dict to
    every grouping it solves.
    """
    if on_conflict not in ("raise", "skip"):
        raise ValueError(f"on_conflict must be 'raise' or 'skip', got {on_conflict!r}")
    result = _solve(ref_ct, faulty_cts, range(4), on_conflict, {} if memo is None else memo)
    result.keys = _key_product(result.candidates)
    return result


def single_column_key(ref_ct: bytes, faulty_cts: Sequence[bytes]) -> DfaResult:
    """Recover 4 key bytes from faults one round out, confined to one group.

    A single-byte fault at the MixColumns input of the round before the
    last corrupts exactly one diagonal group, so every supplied faulty
    ciphertext must differ from the reference inside one common group;
    anything spanning more is rejected as the wrong fault model. That
    group runs last_round_key's loop, which raises InconsistentPairError
    on a conflict; the other groups' candidates are None. `key` holds
    the group's 4 bytes in group row order once one tuple is left.
    """
    if not faulty_cts:
        raise ValueError("need at least one faulty ciphertext")
    ref_groups = _split_groups(ref_ct)
    group: int | None = None
    for faulty in faulty_cts:
        touched = [g for g, (ref, fault) in enumerate(zip(ref_groups, _split_groups(faulty))) if ref != fault]
        if len(touched) != 1:
            raise ValueError(
                f"difference spans {len(touched)} diagonal groups; "
                "this solver handles single-group faults only"
            )
        if group is None:
            group = touched[0]
        elif touched[0] != group:
            raise ValueError("faulty ciphertexts target different diagonal groups")

    result = _solve(ref_ct, faulty_cts, (group,), "raise", {})
    tuples = result.candidates[group].tuples
    result.keys = [t.to_bytes(4, "little") for t in tuples] if len(tuples) == 1 else []
    return result


def penultimate_round_key(
    ref_ct: bytes,
    faulty_cts: Sequence[bytes],
    k_last: bytes,
    *,
    memo: dict | None = None,
) -> DfaResult:
    """Recover the round key before the last from faults one round earlier.

    Peels the final round off the reference and every faulty ciphertext
    with `k_last`, runs the last-round attack on the shortened cipher, and
    converts its recovered keys (InvMixColumns of the target) back via
    MixColumns. With a wrong `k_last` the peeled differences stop looking
    like single-byte faults, and the attack raises InconsistentPairError.
    `memo` goes to last_round_key; keyed on peeled bytes, it serves every `k_last`.
    """
    peeled_ref = peel_final_round(ref_ct, k_last)
    peeled = [peel_final_round(ct, k_last) for ct in faulty_cts]
    result = last_round_key(peeled_ref, peeled, memo=memo)
    result.keys = [mix_columns(key) for key in result.keys]
    return result
