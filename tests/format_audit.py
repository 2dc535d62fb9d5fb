"""Audit of the writers' digits: kernels._format_17g against "%.17g" on millions of doubles.

Draws COUNT doubles as seeded random 64-bit patterns, so every exponent, the
subnormals and both zeros come up; NaNs and infinities are dropped.  Adds
every power of ten in the double range and its neighbours one unit in the last
place either side, with both signs.  Each batch is sorted by bits, as
kernels._distinct_strings passes the doubles, and formatted in chunks of the
writers' size.  Prints how many doubles were compared, how many differ from
"%.17g", and the share that _format_17g left to "%.17g" itself.  Exits 1 on any
difference, else 0.

    PYTHONPATH=src python tests/format_audit.py [--count 4000000] [--seed 0]

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from heisenheat import kernels

BATCH = 2**18


def audit(x: np.ndarray) -> tuple[int, int, int]:
    """(doubles, differences from "%.17g", rows left to "%.17g") over the distinct finite doubles of `x`."""
    x = np.unique(x.view(np.int64)).view(float)
    x = x[np.isfinite(x)]
    out = np.zeros((len(x), 24), np.uint8)
    chunk = kernels._WRITE_CHUNK_ROWS
    slow = sum(kernels._format_17g(x[lo:lo + chunk], out[lo:lo + chunk]) for lo in range(0, len(x), chunk))
    # "%.17g" writes no space, so the spaces of "%-24.17g" are all padding
    reference = ("%-24.17g" * len(x) % tuple(x.tolist())).encode("ascii").replace(b" ", b"\0")
    bad = np.flatnonzero(out.view("S24").ravel() != np.frombuffer(reference, "S24"))
    for i in bad[:5]:
        print(f"  {x[i]!r}: {out[i].tobytes().rstrip(bytes(1))!r}, \"%.17g\" gives {b'%.17g' % x[i]!r}")
    return len(x), len(bad), slow


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=4_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    results = {"powers of ten and neighbours": np.array(audit(np.concatenate([edges, -edges])))}
    rng = np.random.default_rng(args.seed)
    random = np.zeros(3, int)
    for lo in range(0, args.count, BATCH):
        random += audit(rng.integers(0, 2**64, min(BATCH, args.count - lo), dtype=np.uint64).view(float))
    results["random bit patterns"] = random
    for name, (count, bad, slow) in results.items():
        print(f"{name}: {count} distinct finite doubles, {bad} differ from \"%.17g\", "
              f"{slow} ({slow / count:.3%}) formatted by \"%.17g\" itself")
    print(f"{time.perf_counter() - start:.1f} s")
    return 1 if any(bad for _, bad, _ in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
