"""Steadiness of the benchmark: two sets of runs of the same code, compared.

    python3 perfbench/steadiness.py

Runs the command of BENCHMARK.json ``RUNS`` times per workload for set A
(seeds 1..10), then again for set B (seeds 11..20), each with the benchmark's
``run_seconds``.  For every workload and end-to-end metric it prints each
set's median, the spread of each set (distance between the first and third
quartile as a share of the median), and the change of B's median against
A's, next to the metric's bound; the share of failed operations must match
exactly.  A row reads ``ok`` when the change and the spreads (but the
spread of ``setup_s``) are within the bound, and ``steady`` when they are
within a third of it.  The raw figures go to ``perfbench/results/``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(bench, workload: str, seed: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def report(bench, runs: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    all_ok = True
    print(f"{'workload':14s} {'metric':12s} {'median A':>10s} {'median B':>10s} "
          f"{'change':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for workload, sets in runs.items():
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        for name, bound in bounds.items():
            vals = [[r["metrics"][name]["value"] for r in s] for s in sets]
            med = [statistics.median(v) for v in vals]
            spr = [spread(v) for v in vals]
            change = med[1] / med[0] - 1
            worst = max([abs(change)] + (spr if name != "setup_s" else []))
            ok = worst <= bound and shares[0] == shares[1]
            verdict = ("steady" if worst <= bound / 3 else "ok") if ok else "OUT OF BOUND"
            all_ok &= ok
            print(f"{workload:14s} {name:12s} {med[0]:10.4f} {med[1]:10.4f} {change:+8.1%} "
                  f"{spr[0]:9.1%} {spr[1]:9.1%} {bound:6.2f}  {verdict}")
        print(f"{workload:14s} failed share A {shares[0]:.4g}, B {shares[1]:.4g}")
    return all_ok


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    names = [w["name"] for w in bench["workloads"]]
    runs = {w: [[], []] for w in names}
    for k in range(2):
        for w in names:
            for i in range(RUNS):
                seed = k * RUNS + i + 1
                runs[w][k].append(one_run(bench, w, seed))
                m = runs[w][k][-1]["metrics"]
                print(f"set {'AB'[k]} {w} seed {seed}: "
                      + ", ".join(f"{n}={v['value']:.4f}" for n, v in m.items())
                      + f", wall {runs[w][k][-1]['wall_s']:.1f} s",
                      file=sys.stderr, flush=True)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump({"runs_per_set": RUNS, "runs": runs}, fh, indent=1)
    print(f"raw figures: {os.path.relpath(path, ROOT)}")
    return 0 if report(bench, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
