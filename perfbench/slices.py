"""Reference figures for cold per-degree slices (not a workload: d = 6 alone
takes about a minute and a half).

    python3 perfbench/slices.py

For each relative degree d over the base e1f1, two fresh interpreters (so the
memo starts cold) time:

  rho_s      ``splitting_density`` over every type of the slice,
  ab_s       then ``monic_density`` and ``centered_monic_density`` (the
             recursion memo is warm from rho by then),
  rho_pt_s   in the second interpreter, ``density_gen_fun`` over the slice.

and report each interpreter's peak resident set.  Run from the root of a
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

DEGREE_MAX = 6


def measure(d: int, kind: str) -> dict:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from padicdens import engine

    sl = engine.degree_slice(d)
    out = {"types": len(sl)}
    t0 = time.perf_counter()
    if kind == "univariate":
        for s in sl:
            engine.splitting_density(s)
        t1 = time.perf_counter()
        for s in sl:
            engine.monic_density(s)
            engine.centered_monic_density(s)
        out.update(rho_s=t1 - t0, ab_s=time.perf_counter() - t1)
    else:
        for s in sl:
            engine.density_gen_fun(s)
        out.update(rho_pt_s=time.perf_counter() - t0)
    out[f"{kind}_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--one", nargs=2, metavar=("D", "KIND"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(json.dumps(measure(int(args.one[0]), args.one[1])))
        return 0

    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PADICDENS_MEMO_CAP", None)
    print(f"{'d':>2s} {'types':>5s} {'rho_s':>8s} {'ab_s':>8s} {'rho_pt_s':>9s} "
          f"{'rss_uni_mb':>10s} {'rss_biv_mb':>10s}")
    for d in range(2, DEGREE_MAX + 1):
        row = {}
        for kind in ("univariate", "bivariate"):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--one", str(d), kind],
                capture_output=True, text=True, env=env, check=True,
            )
            row.update(json.loads(out.stdout.strip().splitlines()[-1]))
        print(f"{d:2d} {row['types']:5d} {row['rho_s']:8.2f} {row['ab_s']:8.2f} "
              f"{row['rho_pt_s']:9.2f} {row['univariate_rss_mb']:10.1f} "
              f"{row['bivariate_rss_mb']:10.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
