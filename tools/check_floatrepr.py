"""Compare the CSV number kernel with CPython's ``repr`` on random float64s.

Draws ``--count`` random float64s from ``--seed`` (a fresh one when none
is given, printed either way so a failure can be replayed) and checks that
``chansounder._floatrepr.reprs`` writes exactly ``repr`` of each, in chunks
of 65,536 values.  Half are random 64-bit patterns.  The other half have
magnitudes log-uniform over 1e-7 to 1e18 and a random sign: they fall in
the positional layouts (``0.000ddd``, ``ddd.0``) that the CSV tables
mostly hold, which only about 3 % of random bit patterns reach.

    python3 tools/check_floatrepr.py --count 10000000 --seed 7

Exits 0 when every value matches and 1 at the first value that differs,
after printing its bit pattern and both texts.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from chansounder._floatrepr import reprs  # noqa: E402

CHUNK = 1 << 16


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--count", type=int, default=1_000_000, help="random values to check")
    p.add_argument("--seed", type=int, help="seed of the bit patterns (default: a fresh one)")
    args = p.parse_args(argv)
    seed = random.SystemRandom().randrange(2**32) if args.seed is None else args.seed
    print(f"seed {seed}", flush=True)
    rng = np.random.default_rng(seed)
    newlines = np.full(CHUNK, ord("\n"), dtype=np.uint8)
    for start in range(0, args.count, CHUNK):
        n = min(CHUNK, args.count - start)
        values = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
        scaled = values[1::2]
        scaled[:] = rng.choice((-1.0, 1.0), len(scaled)) * 10.0 ** rng.uniform(-7.0, 18.0, len(scaled))
        got = reprs(values, newlines[:n]).decode("ascii")
        want = "".join(f"{v!r}\n" for v in values.tolist())
        if got != want:
            for i, (g, w) in enumerate(zip(got.splitlines(), want.splitlines())):
                if g != w:
                    print(f"value {start + i}, bits {values[i:i + 1].view(np.uint64)[0]:#018x}: kernel {g}, repr {w}")
                    return 1
    print(f"{args.count} values match repr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
