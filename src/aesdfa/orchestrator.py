"""Campaign-level key recovery strategies.

Collected faulty ciphertexts cannot be classified as usable without the
key, so recovery is a search over groupings:

* pairwise: try every pair of faulty ciphertexts against the clean one.
  Pairs violating the single-byte fault model solve to nothing and are
  discarded; the first grouping whose assembled key verifies wins.
* second order: when every output carries a shared static corruption, the
  clean ciphertext is the wrong reference. Instead each faulty ciphertext
  takes a turn as the reference for every pair of the others (3 per
  unordered triple): the shared corruption cancels between samples from the
  same glitch site, and anything spurious is rejected by verification
  against the clean ciphertext.

Full AES-256 recovery chains two stages: faults two rounds from the end
give the last round key, faults three rounds out (after peeling the final
round) give the one before, and inverting the key schedule yields the
cipher key. AES-128 stops after the first stage.

`recover_key` is the one entry point; its `mode` picks pairwise,
second_order, or auto (pairwise, then second order). Both stages solve
their groupings in one place, and every candidate key goes through one
verify step against the clean ciphertext, so a report never carries an
unverified key; the search stops at the first key that verifies. A
grouping that leaves a small product of candidate keys (at most 16) is
set aside and its keys are tried once the stage's single-key groupings
are used up, which keeps their search order. One search shares one
candidate memo across its groupings. The second-order search needs 3
distinct faulty ciphertexts per stage, with the dynamic faults on one
state byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .aes import ROUNDS_BY_KEY_LEN, encrypt_block, expand_key, invert_key_schedule
from .dfa import InconsistentPairError, last_round_key, penultimate_round_key

__all__ = [
    "AttackReport",
    "DEFAULT_GROUPING_BUDGET",
    "verify_key",
    "recover_key",
]

DEFAULT_GROUPING_BUDGET = 1_000_000


def verify_key(key: bytes, pt: bytes, clean_ct: bytes) -> bool:
    """True iff `key` encrypts `pt` to `clean_ct` (the acceptance gate)."""
    return encrypt_block(pt, expand_key(key)) == clean_ct


@dataclass
class AttackReport:
    """Outcome and statistics of one recovery run.

    `recovered_key` is present only when verify_key passed on it, and
    `groupings_succeeded` is then 1: the search stops at the first verified
    key. `groupings_attempted` counts per stage;
    `usable_last_round` / `usable_earlier_round` flag the inputs that were
    part of a grouping whose key verified. `failure` names the stage that
    ran dry: the penultimate one once any last round key reached it.
    """

    mode: str
    recovered_key: bytes | None = None
    round_keys: dict = field(default_factory=dict)
    groupings_attempted: dict = field(default_factory=dict)
    groupings_succeeded: int = 0
    usable_last_round: list[bool] = field(default_factory=list)
    usable_earlier_round: list[bool] = field(default_factory=list)
    failure: str | None = None

    @property
    def total_groupings(self) -> int:
        return sum(self.groupings_attempted.values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode,
                "recovered_key": self.recovered_key.hex() if self.recovered_key else None,
                "round_keys": {name: rk.hex() for name, rk in self.round_keys.items()},
                "groupings_attempted": self.groupings_attempted,
                "groupings_succeeded": self.groupings_succeeded,
                "usable_last_round": self.usable_last_round,
                "usable_earlier_round": self.usable_earlier_round,
                "failure": self.failure,
            },
            indent=2,
        )


class _BudgetExhausted(Exception):
    def __init__(self, stage: str):
        self.stage = stage


def _stage_groupings(cts: Sequence[bytes], clean_ct: bytes | None):
    """Yield (reference, member indices); the pair is the first two members.

    With a clean reference: plain lexicographic pairs. Without: every
    member of every 3-subset takes a turn as the reference (3 per triple),
    and the reference index comes last.
    """
    if clean_ct is not None:
        for pair in combinations(range(len(cts)), 2):
            yield clean_ct, pair
    else:
        for trio in combinations(range(len(cts)), 3):
            for ref in trio:
                yield cts[ref], (*(x for x in trio if x != ref), ref)


def _run_attack(
    mode: str,
    clean_ct: bytes,
    r2_cts: Sequence[bytes],
    r3_cts: Sequence[bytes],
    pt: bytes,
    key_size: int,
    max_groupings: int,
) -> AttackReport:
    two_stage = key_size != 128
    ref_ct = clean_ct if mode == "pairwise" else None
    report = AttackReport(
        mode=mode,
        groupings_attempted={"last_round": 0, "penultimate": 0} if two_stage else {"last_round": 0},
        usable_last_round=[False] * len(r2_cts),
        usable_earlier_round=[False] * len(r3_cts),
    )
    memo: dict = {}
    seen_last_keys: set[bytes] = set()

    def solutions(stage, cts, k_last=None):
        """Yield (round key, members) per grouping that pins a key, then per small-product key."""
        products = []
        for ref, members in _stage_groupings(cts, ref_ct):
            if report.total_groupings >= max_groupings:
                raise _BudgetExhausted(stage)
            report.groupings_attempted[stage] += 1
            pair_cts = [cts[members[0]], cts[members[1]]]
            try:
                if k_last is None:
                    result = last_round_key(ref, pair_cts, memo=memo)
                else:
                    result = penultimate_round_key(ref, pair_cts, k_last, memo=memo)
            except InconsistentPairError:
                continue
            if len(result.keys) == 1:
                yield result.keys[0], members
            elif result.keys:
                products.append((result.keys, members))
        for keys, members in products:
            for key in keys:
                yield key, members

    def chains():
        """Yield (round keys, last-round members, earlier-round members)."""
        for k_last, members in solutions("last_round", r2_cts):
            if k_last in seen_last_keys:
                continue
            seen_last_keys.add(k_last)
            if not two_stage:
                yield {"last": k_last}, members, ()
                continue
            for k_pen, earlier in solutions("penultimate", r3_cts, k_last):
                yield {"last": k_last, "penultimate": k_pen}, members, earlier

    try:
        for round_keys, members, earlier in chains():
            # invert_key_schedule takes the schedule tail, earliest round key first
            try:
                key = invert_key_schedule(key_size, list(round_keys.values())[::-1])
            except ValueError:
                continue  # an AES-192 tail that no key expands to: spurious
            if not verify_key(key, pt, clean_ct):
                continue  # spurious solution; keep searching
            report.groupings_succeeded = 1
            report.recovered_key = key
            report.round_keys = round_keys
            for i in members:
                report.usable_last_round[i] = True
            for i in earlier:
                report.usable_earlier_round[i] = True
            return report
        dry_stage = "penultimate" if two_stage and seen_last_keys else "last_round"
        report.failure = f"stage {dry_stage} exhausted after {report.groupings_attempted[dry_stage]} groupings"
        distinct = len(set(r3_cts if dry_stage == "penultimate" else r2_cts))
        if ref_ct is None and distinct < 3:
            report.failure += f": second order needs 3 distinct faulty ciphertexts, got {distinct}"
    except _BudgetExhausted as err:
        report.failure = f"grouping budget of {max_groupings} exhausted in stage {err.stage}"
    return report


def recover_key(
    clean_ct: bytes,
    r2_cts: Sequence[bytes],
    r3_cts: Sequence[bytes],
    pt: bytes,
    key_size: int = 256,
    mode: str = "auto",
    max_groupings: int = DEFAULT_GROUPING_BUDGET,
) -> AttackReport:
    """Recover the full cipher key from classified fault pools.

    `r2_cts` hold outputs faulted two rounds from the end, `r3_cts` three
    rounds out (unused for AES-128). `pairwise` searches all pairs against
    the clean ciphertext. `second_order` uses faulty references, for
    campaigns with a shared static corruption; it requires the
    fixed-plaintext discipline, because the static contribution is only
    constant across samples of one campaign, and it uses the clean
    ciphertext solely to verify assembled keys. `auto` tries the pairwise
    search and falls back to the second-order one. `max_groupings`, at
    least 1, caps the groupings of one search over both stages.
    """
    if key_size not in (bits * 8 for bits in ROUNDS_BY_KEY_LEN):
        raise ValueError(f"key_size must be 128, 192 or 256, got {key_size}")
    if not r2_cts:
        raise ValueError("no last-round-stage ciphertexts supplied")
    if key_size != 128 and not r3_cts:
        raise ValueError(f"AES-{key_size} needs earlier-round ciphertexts for its second stage")
    if mode not in ("pairwise", "second_order", "auto"):
        raise ValueError(f"mode must be pairwise, second_order or auto, got {mode!r}")
    if max_groupings < 1:
        raise ValueError(f"max_groupings must be at least 1, got {max_groupings}")
    blocks = {"clean_ct": clean_ct, "pt": pt, **{f"r2_cts[{i}]": ct for i, ct in enumerate(r2_cts)},
              **{f"r3_cts[{i}]": ct for i, ct in enumerate(r3_cts)}}
    for name, block in blocks.items():
        if len(block) != 16:
            raise ValueError(f"{name} must be 16 bytes, got {len(block)}")
    args = (clean_ct, r2_cts, r3_cts, pt, key_size, max_groupings)
    if mode != "auto":
        return _run_attack(mode, *args)

    first = _run_attack("pairwise", *args)
    if first.recovered_key is not None:
        first.mode = "auto:pairwise"
        return first
    second = _run_attack("second_order", *args)
    second.mode = "auto:second_order"
    for stage, count in first.groupings_attempted.items():
        second.groupings_attempted[stage] += count
    return second
