#!/usr/bin/env python3
"""Label budget of reservoir insertion for a range of memory sizes.

For each memory size M the oracle is called once per reservoir
insertion, so over a stream of N samples the number of calls has mean
M(1 + H_N - H_M) and the standard deviation of a sum of independent
insertions with probability M/t. Prints both, as percentages of N.
"""

import argparse
import sys

from semicon.memory import expected_oracle_calls, oracle_calls_std


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stream-length", type=int, default=50_000)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[200, 500, 1000, 2000, 5000])
    args = ap.parse_args()

    n = args.stream_length
    print(f"stream length N = {n}")
    print(f"{'M':>6} {'expected %':>11} {'std %':>8}")
    for m in args.sizes:
        mean = 100 * expected_oracle_calls(m, n) / n
        std = 100 * oracle_calls_std(m, n) / n
        print(f"{m:>6} {mean:>11.2f} {std:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
