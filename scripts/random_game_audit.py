#!/usr/bin/env python3
"""Audit the enumeration, index and grouping machinery on random bimatrix games.

For each sampled game: every enumerated equilibrium must verify exactly, the
count must be odd, the determinant indices must sum to +1, and
`group_components` must give each equilibrium its own component, since a
regular equilibrium is isolated. A draw is skipped when its enumeration is
`degenerate`: some extreme equilibrium is not regular, so it has no
determinant index. Exits nonzero on the first violation.
"""

import argparse
import random
import sys

from sigsolve.catalog import random_bimatrix
from sigsolve.equilibrium import enumerate_extreme_equilibria, group_components, is_equilibrium
from sigsolve.indices import equilibrium_index


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--games", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-size", type=int, default=4)
    args = parser.parse_args()
    if args.max_size < 2:
        parser.error(f"--max-size {args.max_size}: games need at least 2 strategies a side")

    rng = random.Random(args.seed)
    audited = 0
    skipped = 0
    counts: dict[int, int] = {}
    while audited < args.games:
        gamma = random_bimatrix(rng, rng.randint(2, args.max_size), rng.randint(2, args.max_size))
        result = enumerate_extreme_equilibria(gamma)
        if result.degenerate:
            skipped += 1
            continue
        total_index = 0
        for eq in result:
            if not is_equilibrium(gamma, (eq.row_mix, eq.col_mix)).ok:
                print(f"FAIL: non-equilibrium enumerated in game {audited}")
                return 1
            total_index += equilibrium_index(gamma, eq).value
        if len(result) % 2 == 0:
            print(f"FAIL: even equilibrium count {len(result)} in game {audited}")
            return 1
        if total_index != 1:
            print(f"FAIL: index sum {total_index} in game {audited}")
            return 1
        if [comp.extremes for comp in group_components(result, gamma)] != [(eq,) for eq in result]:
            print(f"FAIL: regular equilibria share a component in game {audited}")
            return 1
        counts[len(result)] = counts.get(len(result), 0) + 1
        audited += 1
    print(f"audited {audited} games ({skipped} degenerate draws skipped)")
    for count in sorted(counts):
        print(f"  {counts[count]:>4} games with {count} equilibria")
    print("all equilibria exact, counts odd, index sums +1, one component per equilibrium")
    return 0


if __name__ == "__main__":
    sys.exit(main())
