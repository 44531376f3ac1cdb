#!/usr/bin/env python3
"""Leak a master-slot ciphertext through the borrow quirk and brute it back.

Master slots never reveal ciphertext to memory, but the engine completes
short inputs with the stale tail of its last output block. Chaining short
known-key encryptions plus one slave-slot encryption pins the hidden block
chunk by chunk; this script runs the whole loop against the emulated
engine and reports scan throughput. It exits 1 if any recovered block
differs from the ground truth.
"""

import argparse
import random
import sys

from aesdfa.aes import AesOp, StepId, expand_key
from aesdfa.buster import bust
from aesdfa.engine import KeyslotEngine, run_borrow_chain
from aesdfa.faults import FaultSpec, decrypt_with_faults


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--sets", type=int, default=4, help="hidden blocks to leak and recover")
    parser.add_argument("--chunk-bits", type=int, default=16, choices=[8, 16, 32])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    master_key = bytes(rng.randrange(256) for _ in range(32))
    fixed_key = bytes(rng.randrange(256) for _ in range(16))

    engine = KeyslotEngine()
    engine.add_slot(0x208, master_key, master=True)

    mismatches = 0
    for index in range(args.sets):
        mask = bytearray(16)
        mask[rng.randrange(16)] = 1 << rng.randrange(8)
        glitch = FaultSpec(StepId(12, AesOp.MIX_COLUMNS), bytes(mask))
        # a faulted master-slot decrypt whose output only reaches a slave slot
        ct_in = bytes(rng.randrange(256) for _ in range(16))
        art = run_borrow_chain(
            engine, 0x208, 0x3F0, ct_in, fixed_key,
            faults=(glitch,), chunk_bits=args.chunk_bits,
        )
        # ground truth straight from the fault model; the attack never sees it
        truth = decrypt_with_faults(ct_in, expand_key(master_key), [glitch])

        result = bust(art, workers=args.workers)
        status = "exact" if result.hidden == truth else "MISMATCH"
        mismatches += status == "MISMATCH"
        print(
            f"set {index}: hidden={result.hidden.hex()} [{status}] "
            f"{result.aes_ops} ops in {result.elapsed:.2f}s ({result.blocks_per_second:,.0f}/s)"
        )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
