"""Cross-checks tying the engine, the oracle, and the closed-form targets together.

These are the checks that the verify, oracle and conjecture commands run.
Every function returns plain data (lists of record dicts or (name, ok, note)
triples) so the CLI can render them as text, JSON, or CSV; nothing here
prints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import perm
from typing import Dict, Iterable, List, Set, Tuple

from . import engine, oracle
from .errors import VerificationError
from .splitting import SplittingType
from .symbolic import FracPoly, GenFun, check_inversion_symmetry, sum_of_products

Check = Tuple[str, bool, str]

GOLDEN = (
    (SplittingType(((1, 1), (1, 1))), FracPoly(1, 2)),
    (SplittingType(((1, 2),)), FracPoly({2: 1, 1: -1, 0: 1}, {2: 2, 1: 2, 0: 2})),
    (
        SplittingType(((1, 1), (1, 1), (1, 1))),
        FracPoly({4: 1, 2: 2, 0: 1}, {4: 6, 3: 6, 2: 6, 1: 6, 0: 6}),
    ),
    (
        SplittingType(((1, 1), (1, 2))),
        FracPoly({4: 1, 0: 1}, {4: 2, 3: 2, 2: 2, 1: 2, 0: 2}),
    ),
)

def golden_value_checks() -> List[Check]:
    out = []
    for sigma, expected in GOLDEN:
        got = engine.splitting_density(sigma)
        out.append(
            (
                f"golden rho{sigma.display_superscript()}",
                got == expected,
                f"{got}",
            )
        )
    return out


def _by_base_and_degree(
    sigmas: Iterable[SplittingType],
) -> Dict[Tuple[str, int], Set[SplittingType]]:
    """The types by (base, degree), in first-seen order, each base named by
    the suffix of its check names: "" on e1f1, " @e{eb}f{fb}" on the others.
    A base listed twice adds its types once."""
    groups: Dict[Tuple[str, int], Set[SplittingType]] = {}
    for s in sigmas:
        where = "" if (s.e_base, s.f_base) == (1, 1) else f" @e{s.e_base}f{s.f_base}"
        groups.setdefault((where, s.degree), set()).add(s)
    return groups


def partition_of_unity_checks(sigmas: Iterable[SplittingType]) -> List[Check]:
    """rho, alpha and beta each sum to 1 over the types of one degree and base."""
    groups = _by_base_and_degree(sigmas)
    out = []
    for name, density in (
        ("rho", engine.splitting_density),
        ("alpha", engine.monic_density),
        ("beta", engine.centered_monic_density),
    ):
        for (where, d), group in groups.items():
            total = sum_of_products(((1, [density(s)]) for s in group), FracPoly(0))
            out.append((f"sum_{name} degree {d}{where} = 1", total == FracPoly(1), f"{total}"))
    return out


def root_moment_checks(sigmas: Iterable[SplittingType]) -> List[Check]:
    """The factorial moments of the number r of components equal to the
    base, the roots in P^1 (Bhargava, Cremona, Fisher and Gajovic, Proc. LMS
    2022): M_k(n) is the sum over the degree-n types of r(r-1)...(r-k+1) rho.
    M_1(n) = 1, and M_k(n) = M_k(2k - 1) for 2k - 1 < n, k <= 4, on every
    base; no per-type check or partition of unity implies them."""
    bases: Dict[str, Dict[int, Set[SplittingType]]] = {}
    for (where, n), group in _by_base_and_degree(sigmas).items():
        bases.setdefault(where, {})[n] = group
    out = []
    for where, by_degree in bases.items():

        def moment(n: int, k: int) -> FracPoly:
            terms = (
                (perm(s.components.count((s.e_base, s.f_base)), k), [engine.splitting_density(s)])
                for s in by_degree[n]
            )
            return sum_of_products(terms, FracPoly(0))

        for n in sorted(by_degree):
            m1 = moment(n, 1)
            out.append((f"M_1({n}) = 1{where}", m1 == FracPoly(1), f"{m1}"))
        for k in range(2, 5):
            low = 2 * k - 1
            if low not in by_degree:
                continue
            m_low = moment(low, k)
            for n in sorted(d for d in by_degree if d > low):
                mk = moment(n, k)
                out.append((f"M_{k}({n}) = M_{k}({low}){where}", mk == m_low, f"{mk}"))
    return out


@lru_cache(maxsize=None)
def _partitions(k: int, m: int) -> int:
    """p(k, m): the partitions of k into at most m parts."""
    if k == 0:
        return 1
    if m == 0:
        return 0
    return _partitions(k, m - 1) + (_partitions(k - m, m) if k >= m else 0)


def mass_formula_checks(sigmas: Iterable[SplittingType]) -> List[Check]:
    """Bhargava's mass formula (IMRN 2007): summed over the degree-n types of
    one base, density_asymptotic is sum_{k<n} p(k, n-k) q^(-k), with p(k, m)
    the partitions of k into at most m parts.  The asymptotic reads the
    relative pairs only, so the sum does not depend on the base."""
    out = []
    for (where, n), group in _by_base_and_degree(sigmas).items():
        total = sum_of_products(((1, [engine.density_asymptotic(s)]) for s in group), FracPoly(0))
        mass = FracPoly({-k: _partitions(k, n - k) for k in range(n)})
        out.append((f"mass formula degree {n}{where}", total == mass, f"{total}"))
    return out


def functional_equation_checks(
    sigmas: Iterable[SplittingType],
) -> List[Check]:
    out = []
    for sigma in sigmas:
        rho = engine.splitting_density(sigma)
        holds, witness = check_inversion_symmetry(rho)
        out.append(
            (
                f"rho(q)=rho(1/q) {sigma.display_pairs()}",
                holds,
                "0" if holds else f"witness {witness}",
            )
        )
    return out


def duality_checks(sigmas: Iterable[SplittingType]) -> List[Check]:
    """alpha(1/q) = beta(q), and its two-variable form
    G(sigma, 0)(1/p, 1/t) = p^F G(sigma, 1)(p, t) with F = f_base sum f_rel."""
    out = []
    for sigma in sigmas:
        a = engine.monic_density(sigma)
        b = engine.centered_monic_density(sigma)
        ok = a.subs_inverse() == b
        out.append((f"alpha(1/q)=beta(q) {sigma.display_pairs()}", ok, f"{b}"))
        big_f = sigma.f_base * sum(sigma.f_rel)
        g0 = engine.disc_gen_fun(sigma, (0,) * sigma.m)
        g1 = engine.disc_gen_fun(sigma, (1,) * sigma.m)
        ok = g0.subs_inverse() == GenFun.monomial(p_exp=big_f) * g1
        out.append((f"G0(1/p,1/t)=p^F G1(p,t) {sigma.display_pairs()}", ok, f"F={big_f}"))
    return out


def asymptotic_checks(sigmas: Iterable[SplittingType]) -> List[Check]:
    """rho(q) * perm * prod f_rel * q^(sum (e_rel-1) f_rel) tends to 1 as
    q grows, exactly: the numerator and denominator of this ratio have the
    same top exponent and the same leading coefficient."""
    out = []
    for sigma in sigmas:
        r = engine.splitting_density(sigma) / engine.density_asymptotic(sigma)
        # a zero ratio has no numerator term; its (0, 0) fails the check
        top = [max(terms.items(), default=((0,), 0)) for terms in (r.num_terms, r.den_terms)]
        note = "top terms " + " / ".join(f"{c} q^{e}" for (e,), c in top)
        out.append((f"asymptotic {sigma.display_pairs()}", top[0] == top[1], note))
    return out


def min_disc_checks(sigmas: Iterable[SplittingType]) -> List[Check]:
    """Minimal discriminant valuation vs the generating function's lowest
    exponent."""
    out = []
    for sigma in sigmas:
        try:
            c0 = engine.min_disc_valuation(sigma)
            ok = True
            note = f"c0={c0}"
        except VerificationError as exc:  # carries the mismatch
            ok = False
            note = str(exc)
        out.append((f"min_disc {sigma.display_pairs()}", ok, note))
    return out


def bivariate_symmetry_checks(sigmas: Iterable[SplittingType]) -> List[Check]:
    """The conjectured two-variable symmetry rho(p,t) = rho(1/p, 1/t)."""
    out = []
    for sigma in sigmas:
        biv = engine.density_gen_fun(sigma)
        holds, _ = check_inversion_symmetry(biv)
        out.append((f"rho(p,t)=rho(1/p,1/t) {sigma.display_pairs()}", holds, ""))
    return out


# ---------------------------------------------------------------------------
# oracle vs engine
# ---------------------------------------------------------------------------

def engine_masses_at(
    sigma: SplittingType, b: Tuple[int, ...], c_max: int, p: int
) -> Dict[int, Fraction]:
    """The engine's series coefficients at a concrete tame prime."""
    out: Dict[int, Fraction] = {}
    for c, v in engine.disc_gen_fun(sigma, b).series_coefficients(c_max, p).items():
        if c.denominator != 1:
            raise VerificationError(
                f"non-integer valuation {c} of {sigma.display_pairs()} at b = {list(b)}"
            )
        out[int(c)] = v
    return out


def oracle_records(
    sigma: SplittingType,
    b: Tuple[int, ...],
    p: int,
    c_max: int,
    samples: int = 0,
    seed: int = 0,
) -> List[dict]:
    """Comparison records {sigma, b, p, c, exact_mass | estimate, stderr,
    engine_value, match} for every c up to c_max.

    The oracle runs first: it checks the arguments (oracle._layout), and its
    bounds on the common slots and on the entries of b bound c_max and b,
    which the engine does not bound."""
    records: List[dict] = []
    if samples:
        est = oracle.sampled_disc_masses(sigma, b, c_max, p, samples, seed)
        eng = engine_masses_at(sigma, b, c_max, p)
        for c in range(c_max + 1):
            ev = eng.get(c, Fraction(0))
            e = est.get(c)
            point = e.estimate if e else 0.0
            err = e.stderr if e else 0.0
            ok = abs(point - float(ev)) <= 3 * err if err else point == float(ev)
            records.append(
                dict(c=c, estimate=point, stderr=err, engine_value=str(ev), match=bool(ok))
            )
    else:
        exact = oracle.exact_disc_masses(sigma, b, c_max, p)
        eng = engine_masses_at(sigma, b, c_max, p)
        for c in sorted(set(exact) | set(eng)):
            ev = eng.get(c, Fraction(0))
            ov = exact.get(c, Fraction(0))
            records.append(dict(c=c, exact_mass=str(ov), engine_value=str(ev), match=ov == ev))
    head = dict(sigma=sigma.display_pairs(), b=list(b), p=p)
    return [head | r for r in records]
