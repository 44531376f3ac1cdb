"""Differential fault analysis of the AES last rounds.

The solver consumes (reference, faulty) ciphertext pairs whose difference
was caused by a single corrupted state byte entering the MixColumns two
rounds before the end. That byte spreads into one full column, and the
column lands on four ciphertext positions (a diagonal group) after the
final ShiftRows. For each group the key bytes satisfy

    inv_sbox(ref ^ k) ^ inv_sbox(faulty ^ k) = coeff * eps

with an unknown fault value eps and a coefficient column (a rotation of
2,1,1,3) selected by the unknown fault row. Candidates are tracked as full
4-byte tuples per group: a byte survives only inside at least one tuple
consistent with a single (eps, row) hypothesis, and intersecting tuple sets
across independent faults collapses each group to one tuple with two or
three usable faulty ciphertexts. These per-group tuple sets are the only
candidate representation; a key is assembled from them once every group
holds exactly one tuple.

A second round key is recovered by peeling the final round with the first
one and re-running the same attack on the shortened cipher; the peeled
cipher's last round key is InvMixColumns of the true one, undone here
before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

from .aes import INV_SBOX, gf_mul, mix_columns, peel_final_round, xor_bytes

__all__ = [
    "DiagonalGroup",
    "DIAGONAL_GROUPS",
    "CipherTables",
    "AES_TABLES",
    "MIX_COEFFS",
    "column_pattern",
    "ColumnCandidates",
    "DfaResult",
    "InconsistentPairError",
    "column_candidates",
    "last_round_key",
    "single_column_key",
    "penultimate_round_key",
    "group_of_diff",
]

# MixColumns constant matrix, row-major: MIX_COEFFS[out_row][in_row].
MIX_COEFFS = (
    (2, 3, 1, 1),
    (1, 2, 3, 1),
    (1, 1, 2, 3),
    (3, 1, 1, 2),
)


def column_pattern(row: int) -> tuple[int, int, int, int]:
    """Differential coefficients a fault in `row` imprints on its column.

    Column `row` of the MixColumns matrix; always a rotation of (2,1,1,3).
    """
    if not 0 <= row <= 3:
        raise ValueError(f"fault row must be 0..3, got {row}")
    return tuple(MIX_COEFFS[i][row] for i in range(4))


@dataclass(frozen=True)
class DiagonalGroup:
    """The 4 ciphertext positions fed by one state column before the final ShiftRows."""

    index: int
    positions: tuple[int, int, int, int]


def _group_positions(g: int) -> tuple[int, int, int, int]:
    # column g byte at row i lands at flat position 4*((g - i) % 4) + i
    return tuple(4 * ((g - i) % 4) + i for i in range(4))


DIAGONAL_GROUPS = tuple(DiagonalGroup(g, _group_positions(g)) for g in range(4))


def group_of_diff(diff: bytes) -> list[DiagonalGroup]:
    """The diagonal groups a ciphertext difference touches."""
    touched = {i for i, b in enumerate(diff) if b}
    return [g for g in DIAGONAL_GROUPS if touched & set(g.positions)]


@dataclass(frozen=True)
class CipherTables:
    """Solver parameters: inverse S-box, field multiply, value range.

    The defaults describe AES; narrower instances (reduced S-box width)
    plug in here so the same candidate logic can be checked exhaustively.
    """

    inv_sbox: tuple[int, ...]
    mul: Callable[[int, int], int]
    n_values: int = 256


AES_TABLES = CipherTables(inv_sbox=INV_SBOX, mul=gf_mul, n_values=256)


@dataclass(frozen=True)
class ColumnCandidates:
    """Surviving key tuples for one diagonal group, ordered by group row."""

    group: DiagonalGroup
    tuples: frozenset

    def intersect(self, other: "ColumnCandidates") -> "ColumnCandidates":
        if self.group.index != other.group.index:
            raise ValueError("cannot intersect candidates of different groups")
        return ColumnCandidates(self.group, self.tuples & other.tuples)


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
    for a group no usable ciphertext constrained. `key` is set only when
    every group collapsed to a single tuple. `skipped` lists (index,
    reason) for faulty ciphertexts that were not usable.
    """

    key: bytes | None
    candidates: tuple[ColumnCandidates | None, ...]
    used: list[int] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)


def column_candidates(
    ref_bytes: Sequence[int],
    faulty_bytes: Sequence[int],
    group: DiagonalGroup,
    tables: CipherTables = AES_TABLES,
) -> ColumnCandidates:
    """Key tuples for one group consistent with some single-fault hypothesis.

    Enumerates every fault value eps and fault row, and keeps the key
    tuples whose pre-SubBytes differentials match that hypothesis on all
    four positions. Returns an empty set when no hypothesis fits; callers
    treat that as the inconsistent-pair signal.
    """
    if len(ref_bytes) != 4 or len(faulty_bytes) != 4:
        raise ValueError("group candidates need exactly 4 reference and 4 faulty bytes")
    if tuple(ref_bytes) == tuple(faulty_bytes):
        raise ValueError("reference and faulty bytes are identical: no information")

    inv_sbox, mul, n = tables.inv_sbox, tables.mul, tables.n_values
    # per position: observed differential value -> key bytes producing it
    solutions: list[dict[int, list[int]]] = []
    for c, f in zip(ref_bytes, faulty_bytes):
        by_diff: dict[int, list[int]] = {}
        for k in range(n):
            d = inv_sbox[c ^ k] ^ inv_sbox[f ^ k]
            by_diff.setdefault(d, []).append(k)
        solutions.append(by_diff)

    tuples: set[tuple[int, int, int, int]] = set()
    for row in range(4):
        coeffs = column_pattern(row)
        for eps in range(1, n):
            per_pos = []
            for i in range(4):
                ks = solutions[i].get(mul(coeffs[i], eps))
                if not ks:
                    break
                per_pos.append(ks)
            else:
                tuples.update(product(*per_pos))
    return ColumnCandidates(group, frozenset(tuples))


def _split_groups(ct: bytes) -> list[tuple[int, ...]]:
    return [tuple(ct[p] for p in g.positions) for g in DIAGONAL_GROUPS]


def last_round_key(
    ref_ct: bytes,
    faulty_cts: Sequence[bytes],
    *,
    on_conflict: str = "raise",
    tables: CipherTables = AES_TABLES,
) -> DfaResult:
    """Recover the final round key from fault pairs two rounds out.

    Each faulty ciphertext must differ from the reference in all four
    diagonal groups (the propagation signature of a single-byte fault at
    the MixColumns input two rounds before the end); others are skipped
    with a notice. Candidate tuples are intersected per group across the
    usable ciphertexts.

    A ciphertext that empties any group's intersection raises
    InconsistentPairError naming it, or, with on_conflict="skip", is
    dropped and recorded so a batch with enough good samples still
    converges.
    """
    if on_conflict not in ("raise", "skip"):
        raise ValueError(f"on_conflict must be 'raise' or 'skip', got {on_conflict!r}")
    ref_groups = _split_groups(ref_ct)
    acc: list[ColumnCandidates | None] = [None] * 4
    result = DfaResult(key=None, candidates=(None,) * 4)

    for idx, faulty in enumerate(faulty_cts):
        faulty_groups = _split_groups(faulty)
        if any(r == f for r, f in zip(ref_groups, faulty_groups)):
            result.skipped.append((idx, "diff does not cover all 4 groups"))
            continue
        fresh = [
            column_candidates(ref_groups[g], faulty_groups[g], DIAGONAL_GROUPS[g], tables)
            for g in range(4)
        ]
        merged = [f if a is None else a.intersect(f) for a, f in zip(acc, fresh)]
        empty = next((g for g in range(4) if not merged[g].tuples), None)
        if empty is not None:
            if on_conflict == "raise":
                raise InconsistentPairError(faulty, DIAGONAL_GROUPS[empty])
            result.skipped.append((idx, f"no joint solution in group {empty}"))
            continue
        acc = merged
        result.used.append(idx)

    result.candidates = tuple(acc)
    if all(col is not None and len(col.tuples) == 1 for col in acc):
        key = bytearray(16)
        for col in acc:
            for pos, value in zip(col.group.positions, next(iter(col.tuples))):
                key[pos] = value
        result.key = bytes(key)
    return result


def single_column_key(
    ref_ct: bytes,
    faulty_cts: Sequence[bytes],
    *,
    tables: CipherTables = AES_TABLES,
) -> DfaResult:
    """Recover 4 key bytes from faults one round out, confined to one group.

    A single-byte fault at the MixColumns input of the round before the
    last corrupts exactly one diagonal group, so every supplied faulty
    ciphertext must differ from the reference inside one common group;
    anything spanning more is rejected as the wrong fault model. The
    returned candidates are None for every other group.
    """
    if not faulty_cts:
        raise ValueError("need at least one faulty ciphertext")
    group: DiagonalGroup | None = None
    for faulty in faulty_cts:
        touched = group_of_diff(xor_bytes(ref_ct, faulty))
        if len(touched) != 1:
            raise ValueError(
                f"difference spans {len(touched)} diagonal groups; "
                "this solver handles single-group faults only"
            )
        if group is None:
            group = touched[0]
        elif touched[0].index != group.index:
            raise ValueError("faulty ciphertexts target different diagonal groups")

    acc: ColumnCandidates | None = None
    result = DfaResult(key=None, candidates=(None,) * 4)
    ref_bytes = tuple(ref_ct[p] for p in group.positions)
    for idx, faulty in enumerate(faulty_cts):
        cand = column_candidates(
            ref_bytes, tuple(faulty[p] for p in group.positions), group, tables
        )
        merged = cand if acc is None else acc.intersect(cand)
        if not merged.tuples:
            raise InconsistentPairError(faulty, group)
        acc = merged
        result.used.append(idx)

    result.candidates = tuple(acc if g == group else None for g in DIAGONAL_GROUPS)
    if len(acc.tuples) == 1:
        result.key = bytes(next(iter(acc.tuples)))
    return result


def penultimate_round_key(
    ref_ct: bytes,
    faulty_cts: Sequence[bytes],
    k_last: bytes,
    *,
    on_conflict: str = "raise",
) -> DfaResult:
    """Recover the round key before the last from faults one round earlier.

    Peels the final round off the reference and every faulty ciphertext
    with `k_last`, runs the last-round attack on the shortened cipher, and
    converts its recovered key (InvMixColumns of the target) back via
    MixColumns. With a wrong `k_last` the peeled differences stop looking
    like single-byte faults and the attack reports inconsistency instead.
    """
    peeled_ref = peel_final_round(ref_ct, k_last)
    peeled = [peel_final_round(ct, k_last) for ct in faulty_cts]
    result = last_round_key(peeled_ref, peeled, on_conflict=on_conflict)
    if result.key is not None:
        result.key = mix_columns(result.key)
    return result
