"""Input generators for the benchmark workloads.

Everything here is derived from the workload seed (or is a fixed
construction), so the same seed gives the same inputs.  The package only
ever sees the generated colorings, vertex sets and files.
"""

from __future__ import annotations

import hashlib

import numpy as np

from stepup import coloring

# The (12, 5) annealing search costs 0.2-1.9 s depending on the base seed,
# exact_alpha at D = 5 costs 10-18 s depending on the coloring, and the peak
# RSS of the D = 7 K5 sweep ranges over 130-160 MB with the coloring (which
# chunks of the sweep skip).  A seed-drawn instance would make run-to-run
# spread a property of the seed, not of the code, so these instances are
# pinned; all other inputs follow the seed.
SEARCH_BASE_SEEDS = (0, 1000, 2000, 3000, 4000, 5000, 6000)
SMALL_COLORING_BASE_SEED = 3000
ALPHA_COLORING_SEED = 2
K5_COLORING_SEED = 1


def derive(seed: int, *labels) -> int:
    """A 63-bit stream seed for one labelled input of one workload seed."""
    key = ":".join(str(x) for x in (seed, *labels)).encode()
    digest = hashlib.blake2s(key, digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


# --- Paley tournament on GF(27) ------------------------------------------------
#
# GF(27) = GF(3)[x] / (x^3 + 2x + 1).  Integer k stands for the element with
# coefficients (k mod 3, k div 3 mod 3, k div 9), constant term first.  Reading
# phi as a tournament a -> b (a < b) iff phi(a, b) = Red, the Paley tournament
# has no transitive subtournament on 6 vertices, so it is certified at n = 6.

def _gf27(k: int) -> tuple[int, int, int]:
    return (k % 3, (k // 3) % 3, k // 9)


def _gf27_mul(a, b) -> tuple[int, int, int]:
    prod = [0] * 5
    for i in range(3):
        for j in range(3):
            prod[i + j] += a[i] * b[j]
    # x^3 = x + 2 over GF(3), so x^d = x^(d-2) + 2 x^(d-3) for d = 4, 3
    for d in (4, 3):
        c, prod[d] = prod[d], 0
        prod[d - 2] += c
        prod[d - 3] += 2 * c
    return tuple(v % 3 for v in prod[:3])


def paley_gf27(D: int) -> coloring.PairColoring:
    """Paley coloring of the first D elements: a < b is Red iff b - a is a square."""
    if not 2 <= D <= 27:
        raise ValueError(f"GF(27) Paley coloring needs 2 <= D <= 27, got {D}")
    squares = {_gf27_mul(_gf27(k), _gf27(k)) for k in range(1, 27)}
    bits = [
        coloring.RED if tuple((x - y) % 3 for x, y in zip(_gf27(b), _gf27(a))) in squares
        else coloring.BLUE
        for a in range(D) for b in range(a + 1, D)
    ]
    return coloring.PairColoring(D, np.array(bits, dtype=np.uint8))


class GateFailed(RuntimeError):
    """A generated input does not have the property the workload relies on."""


def gated_paley(D: int, n: int) -> coloring.PairColoring:
    """Paley coloring checked exactly: Certified at n and Refuted at n - 1."""
    phi = paley_gf27(D)
    at_n = coloring.certify_good_property(phi, n, "exact")
    below = coloring.certify_good_property(phi, n - 1, "exact")
    if not at_n.certified or below.verdict != "Refuted":
        raise GateFailed(
            f"Paley GF(27) coloring cut to D={D}: expected Certified at n={n} "
            f"and Refuted at n={n - 1}, got {at_n.verdict} and {below.verdict}")
    return phi
