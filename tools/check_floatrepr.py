"""Compare the CSV number kernel with CPython's ``repr`` on random float64s.

Draws ``--count`` random float64s from ``--seed`` (a fresh one when none
is given, printed either way so a failure can be replayed) and checks that
``chansounder._floatrepr.reprs`` writes exactly ``repr`` of each, in chunks
of 65,536 values.  Half are random 64-bit patterns.  The other half have
magnitudes log-uniform over 1e-7 to 1e18 and a random sign: they fall in
the positional layouts (``0.000ddd``, ``ddd.0``) that the CSV tables
mostly hold, which only about 3 % of random bit patterns reach.

Each chunk is also written as CSV tables through
``chansounder.charmetrics._write_csv``, at its real batch size: rows of a
lead column and 200 numbers, and one row wider than the batch; each file
must read as the ``repr`` of its numbers joined by commas.

    python3 tools/check_floatrepr.py --count 10000000 --seed 7

Exits 0 when every value matches and 1 at the first value that differs,
after printing its bit pattern and both texts.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from chansounder import charmetrics  # noqa: E402
from chansounder._floatrepr import reprs  # noqa: E402

CHUNK = 1 << 16
WIDTH = 201  # a lead column and 200 numbers


def _csv_mismatch(values: np.ndarray, texts: list[str], path: str) -> str | None:
    """Write ``values`` through ``_write_csv`` as rows of ``WIDTH`` numbers
    (the remainder dropped), then as one row wider than the batch; the
    first differing line, or None."""
    n_rows = len(values) // WIDTH
    wide = charmetrics._CSV_BATCH + 5
    # each table's lead column, then its rows, are the first of the values
    tables = [(values[:n_rows], values[n_rows : n_rows * WIDTH].reshape(n_rows, WIDTH - 1))]
    tables.append((values[:1], values[1:wide][None]))
    for first, rows in tables:
        charmetrics._write_csv(path, b"", first, rows)
        n, width = len(first), rows.shape[1] + 1
        lines = [",".join([texts[i], *texts[n + i * (width - 1) : n + (i + 1) * (width - 1)]]) for i in range(n)]
        with open(path, encoding="ascii") as f:
            got = f.read().splitlines()
        for i, (g, w) in enumerate(zip(got, lines)):
            if g != w:
                fields = enumerate(itertools.zip_longest(g.split(","), w.split(","), fillvalue=""))
                j, g, w = next((j, g, w) for j, (g, w) in fields if g != w)
                return f"CSV row {i}, column {j} of a {rows.shape[0]} x {width} table: kernel {g!r}, repr {w!r}"
        if len(got) != len(lines):
            return f"CSV table of {len(lines)} rows has {len(got)}"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--count", type=int, default=1_000_000, help="random values to check")
    p.add_argument("--seed", type=int, help="seed of the bit patterns (default: a fresh one)")
    args = p.parse_args(argv)
    seed = random.SystemRandom().randrange(2**32) if args.seed is None else args.seed
    print(f"seed {seed}", flush=True)
    rng = np.random.default_rng(seed)
    newlines = np.full(CHUNK, ord("\n"), dtype=np.uint8)
    with tempfile.TemporaryDirectory() as tmp:
        for start in range(0, args.count, CHUNK):
            n = min(CHUNK, args.count - start)
            values = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
            scaled = values[1::2]
            scaled[:] = rng.choice((-1.0, 1.0), len(scaled)) * 10.0 ** rng.uniform(-7.0, 18.0, len(scaled))
            got = reprs(values, newlines[:n]).decode("ascii")
            texts = [repr(v) for v in values.tolist()]
            if got != "\n".join(texts) + "\n":
                lines = enumerate(itertools.zip_longest(got.splitlines(), texts, fillvalue=""))
                i, g, w = next((i, g, w) for i, (g, w) in lines if g != w)
                print(f"value {start + i}, bits {values.view(np.uint64)[i]:#018x}: kernel {g}, repr {w}")
                return 1
            mismatch = _csv_mismatch(values, texts, os.path.join(tmp, "chunk.csv"))
            if mismatch:
                print(f"chunk at value {start}: {mismatch}")
                return 1
    print(f"{args.count} values match repr, alone and in CSV rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
