"""Correctness checks on what the CLI printed, made apart from the engine.

Rational functions are read back from the text reports and compared with
exact arithmetic of this module's own (sparse Laurent polynomials as
{exponent tuple: Fraction} dicts); nothing here calls the package's symbolic
algebra.  Identities between rational functions are decided exactly by
cross-multiplication; sums over a degree slice are tested exactly at rational
points picked from the seed (a nonzero rational function vanishes at only
finitely many points).

Each ``check_*`` function returns a list of problems, each a short string
naming the splitting type; an empty list means the check passed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from workloads import SigmaSpec, sigmas

Laurent = Dict[Tuple[Fraction, ...], Fraction]
RatFn = Tuple[Laurent, Laurent]  # (numerator, denominator)

QUANTITIES = ("rho", "alpha", "beta_monic", "asymptotic")

# The paper's values in degrees 2 and 3, written as (numerator, denominator)
# coefficient lists in q, lowest degree first.
GOLDEN = {
    "e1f1,e1f1": ([1], [2]),
    "e1f2": ([2, -2, 2], [4, 4, 4]),
    "e2f1": ([0, 1], [1, 1, 1]),
    "e1f1,e1f1,e1f1": ([1, 0, 2, 0, 1], [6, 6, 6, 6, 6]),
    "e1f1,e1f2": ([1, 0, 0, 0, 1], [2, 2, 2, 2, 2]),
}


# ---------------------------------------------------------------------------
# exact sparse Laurent arithmetic
# ---------------------------------------------------------------------------

def _from_coeffs(coeffs: List[int]) -> Laurent:
    return {(Fraction(k),): Fraction(c) for k, c in enumerate(coeffs) if c}


def lmul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def linv(a: Laurent) -> Laurent:
    """x -> 1/x in every variable."""
    return {tuple(-e for e in k): c for k, c in a.items()}


def same(f: RatFn, g: RatFn) -> bool:
    """f == g as rational functions, by cross-multiplication."""
    return lmul(f[0], g[1]) == lmul(g[0], f[1])


def inverted(f: RatFn) -> RatFn:
    return linv(f[0]), linv(f[1])


def evaluate(f: RatFn, x: Fraction) -> Fraction:
    """Exact value of a univariate function with integer exponents."""
    def ev(terms: Laurent) -> Fraction:
        return sum((c * x ** int(k[0]) for k, c in terms.items()), Fraction(0))

    return ev(f[0]) / ev(f[1])


def scaled(f: RatFn, factor: Laurent) -> RatFn:
    return lmul(f[0], factor), f[1]


# ---------------------------------------------------------------------------
# reading the CLI's rendering back
# ---------------------------------------------------------------------------

_EXP = re.compile(r"^([a-z])(?:\^\(?(-?\d+(?:/\d+)?)\)?)?$")


def _parse_monomial(text: str, names: Tuple[str, ...]) -> Tuple[Fraction, ...]:
    exps = dict.fromkeys(names, Fraction(0))
    for factor in text.split("*"):
        m = _EXP.match(factor)
        if not m or m.group(1) not in exps:
            raise ValueError(f"bad monomial factor {factor!r}")
        exps[m.group(1)] += Fraction(m.group(2) or 1)
    return tuple(exps[n] for n in names)


def _parse_term(text: str, names: Tuple[str, ...]) -> Tuple[Tuple[Fraction, ...], Fraction]:
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    head, _, rest = text.partition("*")
    if head[0].isdigit():
        coeff = Fraction(head)
        mono = rest
    else:
        coeff, mono = Fraction(1), text
    exps = _parse_monomial(mono, names) if mono else (Fraction(0),) * len(names)
    return exps, sign * coeff


def parse_poly(text: str, names: Tuple[str, ...]) -> Laurent:
    out: Laurent = {}
    sign = 1
    for tok in text.split(" "):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        k, c = _parse_term(tok, names)
        out[k] = out.get(k, 0) + sign * c
        sign = 1
    return {k: c for k, c in out.items() if c}


def parse_ratfn(text: str, names: Tuple[str, ...] = ("q",)) -> RatFn:
    text = text.strip()
    if text.startswith("(") and ") / (" in text and text.endswith(")"):
        num, _, den = text[1:-1].partition(") / (")
        return parse_poly(num, names), parse_poly(den, names)
    return parse_poly(text, names), {(Fraction(0),) * len(names): Fraction(1)}


_SIGMA_LINE = re.compile(r"^sigma (\S+)\s")
_QTY_LINE = re.compile(r"^  (\w+)\s+= (.*)$")


def parse_table_report(text: str) -> Dict[str, Dict[str, RatFn]]:
    out: Dict[str, Dict[str, RatFn]] = {}
    current = None
    for line in text.splitlines():
        m = _SIGMA_LINE.match(line)
        if m:
            current = out.setdefault(m.group(1), {})
            continue
        m = _QTY_LINE.match(line)
        if m and current is not None:
            current[m.group(1)] = parse_ratfn(m.group(2))
    return out


# ---------------------------------------------------------------------------
# table-d5
# ---------------------------------------------------------------------------

def asymptotic_value(s: SigmaSpec) -> RatFn:
    """1 / (perm * prod f_rel * q^(sum (e_rel - 1) f_rel)), from the definition."""
    perm = 1
    for comp in set(s.rel):
        perm *= math.factorial(s.rel.count(comp))
    prod_f = math.prod(f for _, f in s.rel)
    exp = sum((e - 1) * f for e, f in s.rel)
    return {(Fraction(0),): Fraction(1)}, {(Fraction(exp),): Fraction(perm * prod_f)}


def check_table(
    report: Dict[str, Dict[str, RatFn]],
    degree_max: int,
    points: Iterable[Fraction],
    q_big: int = 10**4,
    tol_num: int = 10,
) -> List[str]:
    problems: List[str] = []
    expected = sigmas(degree_max)
    names = [s.name for s in expected]
    if sorted(report) != sorted(names):
        missing = sorted(set(names) - set(report))
        extra = sorted(set(report) - set(names))
        problems.append(f"catalog mismatch: missing {missing}, extra {extra}")
    complete = [s for s in expected if set(QUANTITIES) <= set(report.get(s.name, {}))]
    for s in expected:
        if s.name in report and s not in complete:
            problems.append(f"{s.name}: quantities missing")

    for s in complete:
        v = report[s.name]
        rho, alpha, beta = v["rho"], v["alpha"], v["beta_monic"]
        if not same(rho, inverted(rho)):
            problems.append(f"{s.name}: rho(q) != rho(1/q)")
        if not same(inverted(alpha), beta):
            problems.append(f"{s.name}: alpha(1/q) != beta(q)")
        if s.name in GOLDEN:
            num, den = GOLDEN[s.name]
            if not same(rho, (_from_coeffs(num), _from_coeffs(den))):
                problems.append(f"{s.name}: rho differs from the paper's value")
        asym = asymptotic_value(s)
        if not same(v["asymptotic"], asym):
            problems.append(f"{s.name}: asymptotic differs from 1/(perm prod f q^...)")
        dev = abs(evaluate(rho, Fraction(q_big)) / evaluate(asym, Fraction(q_big)) - 1)
        if dev > Fraction(tol_num, q_big):
            problems.append(f"{s.name}: rho/asymptotic - 1 = {float(dev):.3g} at q={q_big}")

    for d in range(1, degree_max + 1):
        slice_ = [s for s in complete if s.degree == d]
        for qty in ("rho", "alpha", "beta_monic"):
            for x in points:
                total = sum((evaluate(report[s.name][qty], x) for s in slice_), Fraction(0))
                if total != 1:
                    problems.append(f"degree {d}: sum of {qty} at q={x} is {total}, not 1")
    return problems


# ---------------------------------------------------------------------------
# conjecture-d4
# ---------------------------------------------------------------------------

_CONJ_LINE = re.compile(r"^rho\(p,t\)=rho\(1/p,1/t\) (\S+): (PASS|FAIL)")


def parse_conjecture_report(text: str) -> Tuple[Dict[str, bool], bool]:
    verdicts: Dict[str, bool] = {}
    overall = False
    for line in text.splitlines():
        m = _CONJ_LINE.match(line)
        if m:
            verdicts[m.group(1)] = m.group(2) == "PASS"
        elif line.startswith("overall: "):
            overall = line == "overall: PASS"
    return verdicts, overall


def specialized(biv: RatFn, r: Fraction) -> RatFn:
    """t -> p^r on a (p, t) function, giving a function of p."""
    def collapse(terms: Laurent) -> Laurent:
        out: Laurent = {}
        for (pe, te), c in terms.items():
            k = (pe + te * r,)
            out[k] = out.get(k, 0) + c
        return {k: c for k, c in out.items() if c}

    return collapse(biv[0]), collapse(biv[1])


def in_p(univ: RatFn, f_base: int) -> RatFn:
    """A function of q read as one of p, q = p^f_base."""
    conv = lambda terms: {(k[0] * f_base,): c for k, c in terms.items()}
    return conv(univ[0]), conv(univ[1])


def check_conjecture(
    verdicts: Dict[str, bool],
    overall: bool,
    expected: List[SigmaSpec],
    bivariate: Dict[str, RatFn],
    univariate: Dict[str, RatFn],
) -> List[str]:
    """rho(p,t) = rho(1/p,1/t), and rho(p, p^(-e f/2)) = rho(q) at q = p^f."""
    problems: List[str] = []
    names = [s.name for s in expected]
    if sorted(verdicts) != sorted(names):
        problems.append("conjecture report does not list the catalog")
    if not overall or not all(verdicts.get(n, False) for n in names):
        problems.append("conjecture report does not PASS every type")
    for s in expected:
        biv = bivariate.get(s.name)
        if biv is None:
            problems.append(f"{s.name}: no bivariate value")
            continue
        if not same(biv, inverted(biv)):
            problems.append(f"{s.name}: rho(p,t) != rho(1/p,1/t)")
        eb, fb = s.base
        if not same(specialized(biv, Fraction(-eb * fb, 2)), in_p(univariate[s.name], fb)):
            problems.append(f"{s.name}: rho(p, p^(-e f/2)) != rho(q)")
    return problems


# ---------------------------------------------------------------------------
# oracle-grid
# ---------------------------------------------------------------------------

_FIELD = re.compile(r"(\w+)=(\[[^\]]*\]|\S+)")


def parse_oracle_report(text: str) -> Tuple[List[Dict[str, str]], bool]:
    records = []
    overall = False
    for line in text.splitlines():
        if line.startswith("overall: "):
            overall = line == "overall: PASS"
        elif line:
            records.append(dict(_FIELD.findall(line)))
    return records, overall


def check_oracle_cell(cell, records: List[Dict[str, str]], overall: bool) -> List[str]:
    """Every exact oracle mass equals the engine's mass for this cell.

    The report lists every c <= c_max at which either side is nonzero, so a
    cell whose first mass lies beyond c_max has no records."""
    tag = f"{cell.sigma.name} b={list(cell.b)} p={cell.p}"
    if not overall:
        return [f"{tag}: report is not PASS"]
    problems = []
    want = {"sigma": cell.sigma.name, "p": str(cell.p), "b": str(list(cell.b))}
    for r in records:
        if any(r.get(k) != v for k, v in want.items()):
            problems.append(f"{tag}: record for another cell {r}")
            continue
        exact, eng = Fraction(r["exact_mass"]), Fraction(r["engine_value"])
        if exact != eng or exact < 0:
            problems.append(f"{tag} c={r['c']}: oracle {exact} vs engine {eng}")
    return problems
