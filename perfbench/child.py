"""One pass of a workload in a fresh interpreter, so the engine's memo is cold.

    python3 perfbench/child.py --root ROOT --workload NAME --seed N
        [--trace] [--setup-only] [--trace-out PATH]

Protocol on stdout: the line ``ready`` once the package is imported and the
inputs are built (the parent times interpreter start up to that line as
set-up), then, unless ``--setup-only``, one JSON line with the pass's
figures.  The jobs' own reports are captured, not printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

def run_jobs(cli, engine, inputs):
    """The timed region: every job of the pass, each through ``cli.main``.
    Returns each job's captured report and exit code (None if it raised)."""
    outputs, codes, run_s = [], [], 0.0
    for argv in inputs.jobs:
        if inputs.cold_each_job:
            engine.clear_memo()  # each CLI call starts in a new process
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
        run_s += time.perf_counter() - t0
        outputs.append(buf.getvalue())
        codes.append(rc)
    return outputs, codes, run_s


def verify_pass(inputs, outputs, codes):
    """Check the captured reports; returns (failed operations, problems).

    A job that raised or printed nothing fails all its operations.  Every
    other report is checked, whatever the exit code: the CLI exits non-zero
    when its own verification fails (a FAIL verdict, an oracle mismatch), and
    such an exit is a problem in itself, so ``correct`` turns false."""
    import checks
    from padicdens import cli, engine
    from workloads import CONJECTURE_DEGREE_MAX, TABLE_DEGREE_MAX, sigmas

    failed_jobs = [i for i, (o, rc) in enumerate(zip(outputs, codes)) if rc is None or not o]
    problems = [
        f"{' '.join(inputs.jobs[i])}: exit code {rc}"
        for i, rc in enumerate(codes)
        if rc not in (0, None) and i not in failed_jobs
    ]
    if inputs.workload == "table-d5":
        if failed_jobs:
            return inputs.operations, problems
        report = checks.parse_table_report(outputs[0])
        return 0, problems + checks.check_table(report, TABLE_DEGREE_MAX, inputs.points)
    if inputs.workload == "conjecture-d4":
        if failed_jobs:
            return inputs.operations, problems
        expected = [s for base in inputs.bases for s in sigmas(CONJECTURE_DEGREE_MAX, base)]
        verdicts, overall = checks.parse_conjecture_report(outputs[0])
        biv, uni = {}, {}
        for s in expected:
            sigma = cli.parse_sigma(s.name)
            g = engine.density_gen_fun(sigma)
            biv[s.name] = (g.num_terms, g.den_terms)
            r = engine.splitting_density(sigma)  # univariate path, after the timed region
            uni[s.name] = (r.num_terms, r.den_terms)
        return 0, problems + checks.check_conjecture(verdicts, overall, expected, biv, uni)
    for i, (cell, text) in enumerate(zip(inputs.cells, outputs)):
        if i in failed_jobs:
            continue
        records, overall = checks.parse_oracle_report(text)
        problems += checks.check_oracle_cell(cell, records, overall)
    return len(failed_jobs), problems


def write_trace(args, tracer, layers) -> None:
    with open(args.trace_out, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "layers": layers,
                "by_name": {
                    k: dict(calls=v[0], total_s=v[1], self_s=v[2])
                    for k, v in sorted(tracer.self_times().items())
                },
                "span_fields": ["id", "parent", "name", "start_s", "end_s"],
                "spans": [
                    [i, parent, name, start, end]
                    for i, (name, parent, start, end) in enumerate(tracer.spans)
                ],
            },
            fh,
        )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    from padicdens import cli, engine
    import workloads

    inputs = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    outputs, codes, run_s = run_jobs(cli, engine, inputs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "run_s": run_s,
        "peak_rss_mb": rss_mb,
        "attempted": inputs.operations,
    }
    if tracer is not None:
        # derived before the checks, which call into the package again
        output_bytes = sum(len(o.encode()) for o in outputs)
        result["layers"] = tracer.metrics(run_s, output_bytes)
        if args.trace_out:
            write_trace(args, tracer, result["layers"])
    result["failed"], result["problems"] = verify_pass(inputs, outputs, codes)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
