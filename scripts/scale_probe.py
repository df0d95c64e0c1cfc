#!/usr/bin/env python3
"""Time reflexivity, depth and Tor_1(M, M) on random linear presentations.

Each row is one module M over k[x,y,z,w]/(xy - zw): `g` rows of `r`
entries a*v1 + b*v2, with v1, v2 = rng.sample(vars, 2) and a, b drawn
from 1..6 by `random.Random(1)`, generators in degree zero, minimized.
The seed and the four (field, g x r) rows are fixed; the script runs
`is_reflexive`, `depth` and `tor(M, M, 1)` on each and prints every
wall time and verdict.  Tor_1(M, M) is reported by the degrees of its
minimal generators, empty exactly when it vanishes.

Usage:
    PYTHONPATH=src python3 scripts/scale_probe.py
"""

import random
import sys
import time

from reflextor import GF, QQ, make_ring, parse_poly
from reflextor.homology import depth, tor
from reflextor.modules import minimize, module_from_rows
from reflextor.serre import is_reflexive

SEED = 1
VARIABLES = ["x", "y", "z", "w"]
RELATION = "x*y - z*w"
ROWS = [("GF(32003)", 2, 3), ("GF(32003)", 3, 4), ("QQ", 2, 3), ("QQ", 3, 4)]
FIELDS = {"GF(32003)": GF(32003), "QQ": QQ}


def probe_module(field_name, g, r):
    """The row's minimized module, built from a fresh `random.Random(SEED)`."""
    ring = make_ring(FIELDS[field_name], VARIABLES, [RELATION])
    rng = random.Random(SEED)
    rows = []
    for _ in range(g):
        row = []
        for _ in range(r):
            v1, v2 = rng.sample(VARIABLES, 2)
            a, b = rng.randrange(1, 7), rng.randrange(1, 7)
            row.append(parse_poly(f"{a}*{v1} + {b}*{v2}", ring.sig))
        rows.append(row)
    return minimize(module_from_rows(ring, rows, (0,) * g))


def probe_row(field_name, g, r):
    """Verdicts and wall times (s) of the three checks on one row's module."""
    m = probe_module(field_name, g, r)
    checks = {
        "reflexive": lambda: is_reflexive(m).reflexive,
        "depth": lambda: depth(m),
        "tor1_degrees": lambda: tor(m, m, 1).module.gen_degrees,
    }
    verdicts, times = {}, {}
    for name, run in checks.items():
        start = time.perf_counter()
        verdicts[name] = run()
        times[name] = time.perf_counter() - start
    return verdicts, times


def main():
    for field_name, g, r in ROWS:
        verdicts, times = probe_row(field_name, g, r)
        cells = "  ".join(f"{k}={verdicts[k]} ({times[k]:.2f} s)" for k in verdicts)
        print(f"{field_name} {g}x{r}: {cells}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
