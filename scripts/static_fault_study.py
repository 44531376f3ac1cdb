#!/usr/bin/env python3
"""Why the second-order search exists: pairwise vs faulty-reference groupings.

Simulates a glitch site that flips the same state bits in every run (a
static corruption) on top of a per-run single-byte fault. The clean-
reference pairwise search then sees only multi-byte differences and dies;
using each faulty output as the reference cancels the shared corruption
and the key falls out anyway.
"""

import argparse
import random

from aesdfa.aes import AesOp, StepId, expand_key
from aesdfa.campaign import CampaignConfig, MaskRule, OffsetBehavior, generate_campaign
from aesdfa.orchestrator import recover_key

R2_OFFSET, R3_OFFSET = 271.5, 272.25


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--samples", type=int, default=5, help="faulty outputs per round pool")
    parser.add_argument("--static-bytes", type=int, default=3, help="bytes in the shared mask")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    key = bytes(rng.randrange(256) for _ in range(32))
    pt = bytes(rng.randrange(256) for _ in range(16))
    n_rounds = expand_key(key).n_rounds

    z = bytearray(16)
    for pos in rng.sample(range(1, 16), args.static_bytes):
        z[pos] = rng.randrange(1, 256)
    print(f"shared static mask: {bytes(z).hex()}")

    # one campaign per offset, so each pool gets exactly --samples faults;
    # the dynamic fault stays in byte 0, and 4 flipped bits of 8 give 70
    # masks, so two runs rarely repeat a fault
    pools = []
    for offset, rnd in ((R2_OFFSET, n_rounds - 2), (R3_OFFSET, n_rounds - 3)):
        rule = MaskRule(bits=4, byte=0)
        cfg = CampaignConfig(
            key=key,
            plaintext=pt,
            samples=args.samples,
            offsets={offset: OffsetBehavior(((StepId(rnd, AesOp.MIX_COLUMNS), rule, 1.0),))},
            static_mask=bytes(z),
            seed=rng.randrange(1 << 32),
        )
        records = generate_campaign(cfg)
        clean = records[0].ciphertext
        pools.append([r.ciphertext for r in records if r.faulted])
    r2, r3 = pools

    pairwise = recover_key(clean, r2, r3, pt, mode="pairwise")
    print(f"\npairwise vs clean reference: key={pairwise.recovered_key}")
    print(f"  groupings attempted: {pairwise.groupings_attempted}")

    second = recover_key(clean, r2, r3, pt, mode="second_order")
    found = second.recovered_key.hex() if second.recovered_key else None
    print(f"\nfaulty-reference groupings: key={found}")
    print(f"  groupings attempted: {second.groupings_attempted}")
    print(f"  matches target: {second.recovered_key == key}")


if __name__ == "__main__":
    main()
