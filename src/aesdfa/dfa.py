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
(eps, row) hypothesis, and intersecting tuple sets across independent
faults collapses each group to one tuple with two or three usable faulty
ciphertexts. These per-group tuple sets are the only candidate
representation; keys are the product of the four sets whenever it has at
most _MAX_PRODUCT members, a single key being the product of one.

A second round key is recovered by peeling the final round with the first
one and re-running the same attack on the shortened cipher; the peeled
cipher's last round key is InvMixColumns of the true one, undone here
before returning.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
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


@dataclass(frozen=True)
class DiagonalGroup:
    """The 4 ciphertext positions fed by one state column before the final ShiftRows."""

    index: int
    positions: tuple[int, int, int, int]


# column g byte at row i lands at flat position 4*((g - i) % 4) + i
DIAGONAL_GROUPS = tuple(DiagonalGroup(g, tuple(4 * ((g - i) % 4) + i for i in range(4))) for g in range(4))


@dataclass(frozen=True)
class CipherTables:
    """Solver parameters: inverse S-box, field multiply, value range.

    The defaults describe AES; narrower instances (reduced S-box width)
    plug in here so the same candidate logic can be checked exhaustively.
    """

    inv_sbox: tuple[int, ...]
    mul: Callable[[int, int], int]
    n_values: int = 256

    @cached_property
    def _coeff_tables(self) -> tuple[dict[int, list[int]], dict[int, dict[int, int]]]:
        """Per MixColumns coefficient c: c*eps by eps, and nonzero eps by c*eps."""
        times = {c: [self.mul(c, eps) for eps in range(self.n_values)] for c in (1, 2, 3)}
        return times, {c: {d: eps for eps, d in enumerate(t) if eps} for c, t in times.items()}


_AES_TABLES = CipherTables(inv_sbox=INV_SBOX, mul=gf_mul, n_values=256)


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
    row and one nonzero fault value eps on all four positions, taking eps
    as the first position's differential divided by its coefficient.
    Returns an empty set when no hypothesis fits; callers treat that as
    the inconsistent-pair signal.
    """
    if len(ref_bytes) != 4 or len(faulty_bytes) != 4:
        raise ValueError("group candidates need exactly 4 reference and 4 faulty bytes")
    if tuple(ref_bytes) == tuple(faulty_bytes):
        raise ValueError("reference and faulty bytes are identical: no information")

    inv_sbox, n = tables.inv_sbox, tables.n_values
    times, div = tables._coeff_tables
    # per position: observed differential -> key bytes, shifted to the position's bits
    by_diff: list[dict[int, list[int]]] = []
    for i, (c, f) in enumerate(zip(ref_bytes, faulty_bytes)):
        solutions: dict[int, list[int]] = {}
        for k in range(n):
            solutions.setdefault(inv_sbox[c ^ k] ^ inv_sbox[f ^ k], []).append(k << 8 * i)
        by_diff.append(solutions)
    first, second, third, fourth = by_diff
    tuples: set[int] = set()
    for c0, c1, c2, c3 in _FAULT_COLUMNS:
        eps_of, times1, times2, times3 = div[c0], times[c1], times[c2], times[c3]
        for d0, k0s in first.items():
            eps = eps_of.get(d0)  # None for d0 = 0, which is no fault
            if eps is None:
                continue
            k1s, k2s, k3s = second.get(times1[eps]), third.get(times2[eps]), fourth.get(times3[eps])
            if k1s and k2s and k3s:
                tuples.update(a | b | c | d for a in k0s for b in k1s for c in k2s for d in k3s)
    return ColumnCandidates(group, frozenset(tuples))


def _split_groups(ct: bytes) -> list[tuple[int, ...]]:
    return [tuple(ct[p] for p in g.positions) for g in DIAGONAL_GROUPS]


def _narrow(acc: frozenset[int] | None, g: int, ref: tuple, fault: tuple, memo: dict) -> frozenset[int]:
    """`acc` intersected with group g's tuples for one pair, enumerated once per memo."""
    fresh = memo.get((g, ref, fault))
    if fresh is None:
        fresh = memo[g, ref, fault] = array("I", column_candidates(ref, fault, DIAGONAL_GROUPS[g]).tuples)
    return frozenset(fresh) if acc is None else acc.intersection(fresh)


def _key_product(columns: Sequence[ColumnCandidates | None]) -> list[bytes]:
    if any(col is None for col in columns) or prod(len(col.tuples) for col in columns) > _MAX_PRODUCT:
        return []
    # each tuple moved to its key positions, as a 16-byte little-endian int
    placed = [
        sorted(sum(((t >> 8 * i) & 0xFF) << 8 * p for i, p in enumerate(col.group.positions)) for t in col.tuples)
        for col in columns
    ]
    return [sum(parts).to_bytes(16, "little") for parts in product(*placed)]


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
    with a notice. Candidate tuples are intersected per group across the
    usable ciphertexts.

    A ciphertext that empties any group's intersection raises
    InconsistentPairError naming it, or, with on_conflict="skip", is
    dropped and recorded so a batch with enough good samples still
    converges.

    `memo` maps (group index, reference and faulty group bytes) to their
    enumerated tuples; a search passes one dict to every grouping it solves.
    """
    if on_conflict not in ("raise", "skip"):
        raise ValueError(f"on_conflict must be 'raise' or 'skip', got {on_conflict!r}")
    memo = {} if memo is None else memo
    ref_groups = _split_groups(ref_ct)
    acc: list[frozenset[int] | None] = [None] * 4
    result = DfaResult(candidates=(None,) * 4)

    for idx, faulty in enumerate(faulty_cts):
        faulty_groups = _split_groups(faulty)
        if any(r == f for r, f in zip(ref_groups, faulty_groups)):
            result.skipped.append((idx, "diff does not cover all 4 groups"))
            continue
        merged = []
        for g, (ref, fault) in enumerate(zip(ref_groups, faulty_groups)):
            joint = _narrow(acc[g], g, ref, fault, memo)
            if not joint:
                break
            merged.append(joint)
        if len(merged) == 4:
            acc = merged
            result.used.append(idx)
        elif on_conflict == "raise":
            raise InconsistentPairError(faulty, DIAGONAL_GROUPS[len(merged)])
        else:
            result.skipped.append((idx, f"no joint solution in group {len(merged)}"))

    result.candidates = tuple(
        None if tuples is None else ColumnCandidates(group, tuples)
        for group, tuples in zip(DIAGONAL_GROUPS, acc)
    )
    result.keys = _key_product(result.candidates)
    return result


def single_column_key(ref_ct: bytes, faulty_cts: Sequence[bytes]) -> DfaResult:
    """Recover 4 key bytes from faults one round out, confined to one group.

    A single-byte fault at the MixColumns input of the round before the
    last corrupts exactly one diagonal group, so every supplied faulty
    ciphertext must differ from the reference inside one common group;
    anything spanning more is rejected as the wrong fault model. The
    returned candidates are None for every other group, and `key` holds
    the group's 4 bytes in group row order once one tuple is left.
    """
    if not faulty_cts:
        raise ValueError("need at least one faulty ciphertext")
    ref_groups = _split_groups(ref_ct)
    faulty_groups = [_split_groups(faulty) for faulty in faulty_cts]
    group: int | None = None
    for groups in faulty_groups:
        touched = [g for g, (ref, fault) in enumerate(zip(ref_groups, groups)) if ref != fault]
        if len(touched) != 1:
            raise ValueError(
                f"difference spans {len(touched)} diagonal groups; "
                "this solver handles single-group faults only"
            )
        if group is None:
            group = touched[0]
        elif touched[0] != group:
            raise ValueError("faulty ciphertexts target different diagonal groups")

    acc: frozenset[int] | None = None
    memo: dict = {}
    result = DfaResult(candidates=(None,) * 4)
    for idx, (faulty, groups) in enumerate(zip(faulty_cts, faulty_groups)):
        acc = _narrow(acc, group, ref_groups[group], groups[group], memo)
        if not acc:
            raise InconsistentPairError(faulty, DIAGONAL_GROUPS[group])
        result.used.append(idx)

    result.candidates = tuple(ColumnCandidates(g, acc) if g.index == group else None for g in DIAGONAL_GROUPS)
    if len(acc) == 1:
        result.keys = [next(iter(acc)).to_bytes(4, "little")]
    return result


def penultimate_round_key(
    ref_ct: bytes,
    faulty_cts: Sequence[bytes],
    k_last: bytes,
    *,
    on_conflict: str = "raise",
    memo: dict | None = None,
) -> DfaResult:
    """Recover the round key before the last from faults one round earlier.

    Peels the final round off the reference and every faulty ciphertext
    with `k_last`, runs the last-round attack on the shortened cipher, and
    converts its recovered keys (InvMixColumns of the target) back via
    MixColumns. With a wrong `k_last` the peeled differences stop looking
    like single-byte faults and the attack reports inconsistency instead.
    `memo` goes to last_round_key; keyed on peeled bytes, it serves every `k_last`.
    """
    peeled_ref = peel_final_round(ref_ct, k_last)
    peeled = [peel_final_round(ct, k_last) for ct in faulty_cts]
    result = last_round_key(peeled_ref, peeled, on_conflict=on_conflict, memo=memo)
    result.keys = [mix_columns(key) for key in result.keys]
    return result
