"""Compare the CSV writer's float fields with Python's ``"%.17g" % x`` on 2 x 10**6 doubles.

    PYTHONPATH=src python tests/check_float_fields.py [--count N] [--seed S]

The doubles cover the range that ``csvout._float_fields`` formats without
%, 1e-7 <= |x| < 1e16, and its edges: random sign, decade and mantissa bits;
the 64 doubles on either side of each power of ten from 1e-9 to 1e17, of each
power of two in between, and of the range's ends; exact ties in the 17th
digit; and the values outside the range (zeros, subnormals, infinities,
NaNs).  The tier-1 tests check a few hundred such doubles; this script checks
them by the million, so it runs apart from pytest, which does not collect it.
It exits 1 and prints the first mismatches if any field differs.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from codapol.csvout import _float_fields

CHUNK = 2**16


def edge_values() -> np.ndarray:
    """Doubles near the edges of the exact range and of its decades and binades."""
    centres = [float(f"1e{k}") for k in range(-9, 18)]
    centres += [2.0**e for e in range(-25, 56)] + [5e-324, 2.2250738585072014e-308]
    steps = np.arange(-64, 65)
    bits = np.array(centres).view(np.int64)[:, None] + steps
    near = bits[bits > 0].view(np.float64)
    special = np.array([0.0, math.inf, math.nan, 5e-324, 1e300])
    return np.concatenate([near, special])


def tie_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Odd multiples of 2**-(17 - X) in decade X: x * 10**(16 - X) ends in .5."""
    x = rng.integers(-8, 16, n)
    scale = np.ldexp(1.0, -(17 - x))
    odd = 2 * np.floor(rng.uniform(1.0, 2.0, n) * 10.0**x / scale / 2) + 1
    return odd * scale


def decade_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """A sign, a decade in [-8, 17), a binade that meets it and 52 random mantissa bits."""
    decade = rng.integers(-8, 17, n)
    exponent = np.floor(decade * math.log2(10)).astype(np.int64) + rng.integers(0, 4, n)
    mantissa = rng.integers(0, 2**52, n, dtype=np.int64)
    return np.ldexp((2**52 + mantissa).astype(np.float64), exponent - 52) * rng.choice([-1, 1], n)


def mismatches(values: np.ndarray) -> list[tuple[float, str, str]]:
    """(x, field, "%.17g" % x) for every x whose field differs, in blocks of CHUNK."""
    bad = []
    for i in range(0, len(values), CHUNK):
        chunk = values[i:i + CHUNK]
        got = _float_fields(chunk).tobytes().translate(None, b" ").decode()
        want = "".join("%.17g," % x for x in chunk.tolist())
        if got != want:
            for x, g, w in zip(chunk.tolist(), got.split(","), want.split(",")):
                if g != w:
                    bad.append((x, g, w))
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=2 * 10**6)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    edges = edge_values()
    ties = tie_values(rng, args.count // 10)
    spread = decade_values(rng, args.count - 2 * len(edges) - len(ties))
    values = np.concatenate([edges, -edges, ties, spread])
    rng.shuffle(values)
    bad = mismatches(values)
    size = np.abs(values)
    exact = np.count_nonzero((size >= 1e-7) & (size < 1e16))
    print(f"{len(values)} doubles, {exact} in the exact range: {len(bad)} mismatches")
    for x, got, want in bad[:10]:
        print(f"  {x!r}: got {got!r}, want {want!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
