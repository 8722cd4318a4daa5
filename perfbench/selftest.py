"""Self-test of the benchmark's correctness checks: none of them is vacuous.

    python3 perfbench/selftest.py      # from the root of a checkout

Runs each workload's job on a small instance, requires every check to pass on
the real reports, then corrupts one value at a time (a density scaled by 2, a
factor q or p breaking a symmetry, a dropped catalog entry, an oracle mass
doubled, a verdict flipped) and requires the matching check to report it.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
from workloads import CONJECTURE_BASES, OracleCell, SigmaSpec, sigmas  # noqa: E402

ONE = (Fraction(0),)
Q = {(Fraction(1),): Fraction(1)}
TWO = {ONE: Fraction(2)}
P = {(Fraction(1), Fraction(0)): Fraction(1)}


def cli_report(argv) -> str:
    from padicdens import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"padicdens {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def table_cases():
    degree_max, points = 3, [Fraction(7, 3), Fraction(11, 5)]
    report = checks.parse_table_report(cli_report(["table", "--degree-max", str(degree_max)]))

    def run(rep):
        return checks.check_table(rep, degree_max, points)

    def corrupt(name, qty, factor):
        rep = copy.deepcopy(report)
        rep[name][qty] = checks.scaled(rep[name][qty], factor)
        return rep

    dropped = copy.deepcopy(report)
    del dropped["e1f3"]
    yield "table: real report", run(report), None
    yield "table: rho(e2f1) times q", run(corrupt("e2f1", "rho", Q)), "rho(q) != rho(1/q)"
    yield "table: alpha(e1f2) times 2", run(corrupt("e1f2", "alpha", TWO)), "alpha(1/q) != beta(q)"
    yield "table: rho(e1f1,e1f2) times 2", run(corrupt("e1f1,e1f2", "rho", TWO)), "paper's value"
    yield "table: rho(e1f3) times 2", run(corrupt("e1f3", "rho", TWO)), "rho/asymptotic - 1"
    yield "table: asymptotic(e2f1) times 2", run(corrupt("e2f1", "asymptotic", TWO)), "asymptotic differs"
    yield "table: rho(e1f1,e2f1) times 2", run(corrupt("e1f1,e2f1", "rho", TWO)), "sum of rho"
    yield "table: beta(e1f1,e1f1) times 2", run(corrupt("e1f1,e1f1", "beta_monic", TWO)), "sum of beta_monic"
    yield "table: alpha(e3f1) times 2", run(corrupt("e3f1", "alpha", TWO)), "sum of alpha"
    yield "table: e1f3 dropped", run(dropped), "catalog mismatch"


def conjecture_cases():
    from padicdens import cli, engine

    degree_max = 2
    expected = [s for base in CONJECTURE_BASES for s in sigmas(degree_max, base)]
    bases = ",".join(f"e{e}f{f}" for e, f in CONJECTURE_BASES)
    text = cli_report(["conjecture", "--degree-max", str(degree_max), "--bases", bases])
    biv, uni = {}, {}
    for s in expected:
        sigma = cli.parse_sigma(s.name)
        g, r = engine.density_gen_fun(sigma), engine.splitting_density(sigma)
        biv[s.name], uni[s.name] = (g.num_terms, g.den_terms), (r.num_terms, r.den_terms)

    def run(text=text, biv=biv, uni=uni):
        verdicts, overall = checks.parse_conjecture_report(text)
        return checks.check_conjecture(verdicts, overall, expected, biv, uni)

    target = "e2f2@e2f1"
    yield "conjecture: real report", run(), None
    yield (f"conjecture: rho(p,t) of {target} times p",
           run(biv={**biv, target: checks.scaled(biv[target], P)}), "rho(p,t) != rho(1/p,1/t)")
    yield (f"conjecture: rho(q) of {target} times 2",
           run(uni={**uni, target: checks.scaled(uni[target], TWO)}), "!= rho(q)")
    flipped = text.replace(f"{target}: PASS", f"{target}: FAIL")
    yield f"conjecture: verdict of {target} flipped", run(text=flipped), "does not PASS"


def oracle_cases():
    cell = OracleCell(SigmaSpec(((1, 1), (1, 2))), (0, 1), 3)
    records, overall = checks.parse_oracle_report(cli_report(cell.argv()))
    doubled = copy.deepcopy(records)
    doubled[0]["exact_mass"] = str(2 * Fraction(doubled[0]["exact_mass"]))
    yield "oracle: real report", checks.check_oracle_cell(cell, records, overall), None
    yield "oracle: one exact mass times 2", checks.check_oracle_cell(cell, doubled, overall), "vs engine"
    yield "oracle: overall FAIL", checks.check_oracle_cell(cell, records, False), "not PASS"


def main() -> int:
    bad = 0
    for group in (table_cases, conjecture_cases, oracle_cases):
        for label, problems, want in group():
            if want is None:
                ok = not problems
                verdict = "passes" if ok else f"FAILS on real output: {problems[:3]}"
            else:
                ok = any(want in p for p in problems)
                verdict = f"caught ({want!r})" if ok else f"NOT caught (got {problems[:3]})"
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}")
    print("selftest:", "PASS" if not bad else f"FAIL ({bad} cases)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
