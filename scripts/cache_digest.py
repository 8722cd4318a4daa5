#!/usr/bin/env python3
"""Print a digest of every value the engine's memo holds after the catalog.

Usage: python scripts/cache_digest.py --degree-max D

Computes the golden kinds (scripts/golden.py) of every e1f1 splitting type
of degree up to D, then prints one line per kind of engine._CACHE entry: the
kind, the entry count, and the sha256 over the lines
``repr(key) \\t symbolic.dumps(value) \\n`` in ``repr(key)`` order.  Kind
``G`` is disc_gen_fun's entries (keys with no kind name); the others are the
first element of the key: ``branch`` and ``weight`` (the recursion at
(p, t)), ``t_star``, ``t_star_branch`` and ``t_star_weight`` (the recursion
at t = p^(-1/2)), and the densities ``rho_q``, ``alpha_q``, ``beta_q`` and
``rho_pt``.  The memo holds e1f1 values only, so other bases add no entry.
Two builds that print the same lines hold the same exact values under the
same keys.
"""

import argparse
import hashlib
import sys
from collections import defaultdict

from golden import KINDS
from padicdens import engine, symbolic


def digest_lines(degree_max: int) -> list:
    """The digest lines of the memo after the catalog, sorted by kind."""
    engine.clear_memo()
    for sigma in engine.catalog(degree_max):
        for value in KINDS.values():
            value(sigma)
    by_kind = defaultdict(list)
    for key, value in engine._CACHE.items():
        kind = key[0] if isinstance(key[0], str) else "G"
        by_kind[kind].append((repr(key), symbolic.dumps(value)))
    lines = []
    for kind in sorted(by_kind):
        h = hashlib.sha256()
        for rkey, dumped in sorted(by_kind[kind]):
            h.update(f"{rkey}\t{dumped}\n".encode())
        lines.append(f"{kind} {len(by_kind[kind])} {h.hexdigest()}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degree-max", type=int, required=True)
    args = ap.parse_args()
    print("\n".join(digest_lines(args.degree_max)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
