"""Benchmark of the padicdens CLI jobs, run from the root of a source checkout.

    python3 perfbench/run.py --workload table-d5 --seed 1 --seconds 30 --trace 0

Each pass is one fresh interpreter (``child.py``) that imports the package
from ``src/``, builds the workload's inputs from the seed, runs the jobs with
a cold memo and checks their reports after the timed region.  Passes repeat
until ``--seconds`` of wall time have gone by, always as whole passes.

With ``--trace 0`` the last stdout line reports the medians over passes of
``setup_s`` (interpreter start and imports until the inputs are ready; every
pass gives one sample, and set-up-only interpreters top the count up to
``SETUP_SAMPLES``), ``run_s`` (wall time of the jobs) and ``peak_rss_mb``
(the pass's peak resident set, read before the checks run).

The two times are calibrated to a nominal machine speed: this process, which
never imports the package, times a fixed stdlib reference job before every
interpreter it spawns and after the last, and both medians are scaled by
``REF_NOMINAL_S`` over the run's median reference time.  On a shared VM the
speed of the whole machine drifts by 20-30% over minutes, and a run of 35 s
can sit inside one such phase; the reference moves with it.  The raw medians
and the scale are printed and kept in the results file.

With ``--trace 1`` every pass runs with the per-layer tracer installed and
the line reports the per-layer metrics instead (raw medians over passes).

Per-pass figures go to ``perfbench/results/``; a traced run also writes the
spans of its first pass there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import METRICS  # noqa: E402

SETUP_SAMPLES = 11
# a round figure near the median of reference_s() (0.13-0.15 s) on the
# 2-vCPU Xeon VM the bounds were set on; it only fixes the unit of the scale
REF_NOMINAL_S = 0.15
CHILD_DEADLINE_S = 170.0  # a run must end within 180 s


def reference_s() -> float:
    """Wall time of a fixed stdlib job (Fraction arithmetic into a tuple-keyed
    dict, the shape of the engine's inner loops) that never calls the package.
    It times how fast the machine runs Python at this moment."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, 9000):
        k = (Fraction(i % 17, 3), Fraction(i % 5))
        acc[k] = acc.get(k, 0) + Fraction(i, i + 1) * Fraction(7, 3)
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PADICDENS_MEMO_CAP", None)  # measure the default, uncapped memo
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root: str, args, extra: list, deadline: float):
    """Run one child; returns (setup seconds or None, parsed JSON or None)."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--root", root,
        "--workload", args.workload, "--seed", str(args.seed),
    ] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=root)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup_s = time.perf_counter() - t0 if ready else None
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or "--setup-only" in extra:
        return setup_s, None
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "padicdens", "__init__.py")):
        print(f"error: no padicdens sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.perf_counter() + CHILD_DEADLINE_S
    operations = workloads.build(args.workload, args.seed).operations

    spawn(root, args, ["--setup-only"], deadline)  # untimed: bytecode and file cache
    refs = [reference_s()]

    def spawn_then_ref(extra):
        """spawn(), then a reference timing before whatever comes next."""
        out = spawn(root, args, extra, deadline)
        refs.append(reference_s())
        return out

    setups, passes, attempted, failed, problems = [], [], 0, 0, []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        extra = ["--trace"] if args.trace else []
        if args.trace and not passes:
            extra += ["--trace-out", os.path.join(results_dir, f"spans-{tag}.json")]
        setup_s, res = spawn_then_ref(extra)
        attempted += operations
        if res is None:
            failed += operations
            print("error: a pass ended without a result", file=sys.stderr)
            break
        failed += res["failed"]
        problems += res["problems"]
        passes.append(res)
        if setup_s is not None:
            setups.append(setup_s)
    if not args.trace:
        while len(setups) < SETUP_SAMPLES and time.perf_counter() < deadline - 10:
            setup_s, _ = spawn_then_ref(["--setup-only"])
            if setup_s is not None:
                setups.append(setup_s)
    if not passes:
        print("error: no pass completed", file=sys.stderr)
        return 1

    if args.trace:
        samples = {n: [p["layers"][n] for p in passes] for n in METRICS}
        metrics = {n: {"value": statistics.median(v), "unit": METRICS[n]} for n, v in samples.items()}
    else:
        samples = {
            "setup_s": setups,
            "run_s": [p["run_s"] for p in passes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
            "ref_s": refs,
        }
        scale = REF_NOMINAL_S / statistics.median(refs)
        print(f"raw medians: setup_s {statistics.median(setups):.6g} s, "
              f"run_s {statistics.median(samples['run_s']):.6g} s; speed scale {scale:.4f}")
        metrics = {
            "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
            "run_s": {"value": statistics.median(samples["run_s"]) * scale, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(samples["peak_rss_mb"]), "unit": "MB"},
        }

    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "passes": len(passes), "samples": samples, "problems": problems}, fh, indent=1)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for n, m in metrics.items():
        print(f"{n} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
