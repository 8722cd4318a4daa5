#!/usr/bin/env python3
"""Write a golden snapshot of the engine's exact values.

Usage: python scripts/golden.py DEGREE_MAX [--degree-min N]

Writes tests/data/golden_d<DEGREE_MAX>.txt with one line per (base, sigma,
kind) over the catalogs of degree N..DEGREE_MAX on the bases e1f1, e2f1 and
e1f2.  A line reads ``base degree sigma kind sha256``, where the digest is
that of ``symbolic.dumps(value)``; kind is one of rho_q, alpha_q, beta_q and
rho_pt.  tests/test_golden.py recomputes the values and compares them.
"""

import argparse
import hashlib
import pathlib
import sys

from padicdens import engine, symbolic

BASES = {"e1f1": (1, 1), "e2f1": (2, 1), "e1f2": (1, 2)}
KINDS = {
    "rho_q": engine.splitting_density,
    "alpha_q": engine.monic_density,
    "beta_q": engine.centered_monic_density,
    "rho_pt": engine.density_gen_fun,
}
DATA = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"


def digest_lines(base: str, degree: int) -> list:
    """The snapshot lines of every type of this degree over this base."""
    lines = []
    for sigma in engine.degree_slice(degree, *BASES[base]):
        for kind, density in KINDS.items():
            digest = hashlib.sha256(symbolic.dumps(density(sigma)).encode()).hexdigest()
            lines.append(f"{base} {degree} {sigma.display_pairs()} {kind} {digest}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("degree_max", type=int)
    ap.add_argument("--degree-min", type=int, default=1)
    args = ap.parse_args()
    lines = [
        line
        for base in BASES
        for degree in range(args.degree_min, args.degree_max + 1)
        for line in digest_lines(base, degree)
    ]
    out = DATA / f"golden_d{args.degree_max}.txt"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
