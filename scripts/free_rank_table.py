#!/usr/bin/env python3
"""Print the equivariant free-rank table.

For each even degree up to the cutoff, compares the computed rank of the
degree slice of the moment-graph ring (as a free module over the invariant
base) with the Poincaré-series prediction.
"""

import argparse
import sys
import time

from flagoct.gkm import free_rank_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--degree-cutoff",
        type=int,
        default=8,
        help="largest even degree to tabulate (0..16)",
    )
    args = parser.parse_args()
    if not 0 <= args.degree_cutoff <= 16:
        parser.error("--degree-cutoff must be between 0 and 16")
    if args.degree_cutoff % 2:
        parser.error("--degree-cutoff must be even")

    start = time.monotonic()
    table = free_rank_check(args.degree_cutoff)
    elapsed = time.monotonic() - start

    print(f"{'degree':>6}  {'computed':>8}  {'predicted':>9}  match")
    all_ok = True
    for degree, computed, predicted in table:
        ok = computed == predicted
        all_ok &= ok
        print(f"{degree:>6}  {computed:>8}  {predicted:>9}  {'yes' if ok else 'NO'}")
    print(f"\nelapsed: {elapsed:.2f} s")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
