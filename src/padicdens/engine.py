"""Memoized generating-function recursion and density assembly.

The central object is the generating function in t attached to a splitting
type sigma and a depth vector b: its t^c coefficient is the (class-averaged)
measure of tuples, one element per component drawn from the b_i-th power of
the maximal ideal, whose minimal-polynomial discriminant has valuation
exactly c.  A single recursion step splits off the minimal-slope Teichmuller
coefficient, branching over partition plans; a rescaling identity closes the
resulting geometric tail in closed form.

From that generating function the module assembles:

  * the density of degree-d polynomials with the given splitting type among
    all polynomials (as an exact rational function of q, and as a bivariate
    rational function of (p, t) with t left free),
  * the corresponding densities among monic polynomials and among monic
    polynomials congruent to x^d,
  * its large-q asymptotic and the minimal discriminant valuation.

The engine is prime-symbolic: tameness cannot be checked symbolically, so the
output is valid at every prime not dividing any relative ramification index;
concrete primes are validated wherever one is supplied.

Concurrency: the memo table is shared; concurrent calls may duplicate a
bounded amount of work on cache races but always produce value-identical
results.  All returned values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, prod
from typing import Dict, Iterator, Tuple

from .errors import RecursionGuardError, VerificationError
from .splitting import (
    BVector,
    SplittingType,
    base_ram_factor,
    bump_argmin,
    enumerate_plans,
    head_plan,
    is_prime,
    perm_factor,
    plan_weight,
    slope_data,
)
from .symbolic import FracPoly, GenFun, check_inversion_symmetry, rewrite_in_q

_CACHE: Dict[tuple, object] = {}


def clear_memo() -> None:
    _CACHE.clear()


def _cached(key: tuple, build):
    """The cached value for key, built on a miss.  Recursion and assembly
    values share the cache."""
    hit = _CACHE.get(key)
    if hit is None:
        hit = build()
        _CACHE[key] = hit
    return hit


def leading_coeff_weight(d: int) -> FracPoly:
    """Weight of the leading-coefficient distribution for degree-d inputs:
    (q^(d+1) - q^d)/(q^(d+1) - 1), with the degree-0 convention of 1."""
    if d == 0:
        return FracPoly(1, var="q")
    return FracPoly({d + 1: 1, d: -1}, {d + 1: 1, 0: -1}, var="q")


def _q_as_p(f: FracPoly, f_base: int) -> FracPoly:
    """Interpret a rational function of q as one of p via q = p^f_base: the
    lattice exponents stretch by f_base, and the pair stays coprime."""
    conv = lambda terms: {(k * f_base,): c for (k,), c in terms}
    return FracPoly._make(("p",), f._scale, conv(f._num), conv(f._den), reduced=True)


def _p_to_genfun(f: FracPoly) -> GenFun:
    """A function of p as a t-free GenFun."""
    conv = lambda terms: {(k, 0): c for (k,), c in terms}
    return GenFun._make(GenFun.VARS, f._scale + (1,), conv(f._num), conv(f._den), reduced=True)


def _recursion_key(sigma: SplittingType, b: BVector) -> tuple:
    parts = tuple(sorted(zip(sigma.components, b)))
    return (sigma.e_base, sigma.f_base, parts)


def disc_gen_fun(
    sigma: SplittingType,
    b: BVector,
    _depth: int = 0,
    _limit: int | None = None,
) -> GenFun:
    """Generating function of discriminant-valuation masses for (sigma, b).

    Memoized on a canonical key, so results are independent of call order and
    of component ordering.
    """
    if len(b) != sigma.m or any(x < 0 for x in b):
        raise ValueError("depth vector must be nonnegative and match sigma")
    return _cached(
        _recursion_key(sigma, b), lambda: _recurse(sigma, b, _depth, _limit)
    )


def _recurse(sigma: SplittingType, b: BVector, _depth: int, _limit: int | None) -> GenFun:
    """The uncached value of disc_gen_fun."""
    if _limit is None:
        _limit = 10 * max(1, sigma.degree) * sigma.e_base * sigma.f_base
    if _depth > _limit:
        raise RecursionGuardError(
            f"recursion depth exceeded {_limit} at {sigma.display_pairs()} b={b}"
        )

    # canonical component order; the value is symmetric under permutation
    order = sorted(range(sigma.m), key=lambda i: (sigma.components[i], b[i]))
    sigma = sigma.restrict(order)
    b = tuple(b[i] for i in order)

    e_rel = sigma.e_rel
    if sigma.m == 1 and e_rel[0] == 1 and sigma.f_rel[0] == 1:
        # single component equal to the base: degree-1 minimal polynomials
        # have unit discriminant, so all mass sits at t^0
        return GenFun.monomial(p_exp=-b[0] * sigma.components[0][1])
    d = sigma.degree
    f_base = sigma.f_base
    t_step = Fraction(d * (d - 1), sigma.e_base)

    k_lim = max(ceil(Fraction(bi, ei)) for bi, ei in zip(b, e_rel))
    target = tuple(k_lim * ei for ei in e_rel)
    chain_sum = _chain_sum(sigma, b, target, _depth, _limit)

    zero_b = (0,) * sigma.m
    head = branch_sum(sigma, zero_b, _depth + 1, _limit)
    tail = _chain_sum(sigma, bump_argmin(sigma, zero_b), tuple(e_rel), _depth, _limit)
    closure_den = GenFun(1) - GenFun.monomial(p_exp=f_base * (1 - d), t_exp=t_step)
    g_zero = (head + GenFun.monomial(p_exp=f_base) * tail) / closure_den

    rescale = GenFun.monomial(p_exp=-f_base * d * k_lim, t_exp=t_step * k_lim)
    return chain_sum + rescale * g_zero


def _chain_sum(
    sigma: SplittingType, start: BVector, stop: BVector, _depth: int, _limit: int
) -> GenFun:
    """The sum of branch_sum along the bump_argmin chain from start up to,
    not including, stop."""
    total = GenFun(0)
    cur = start
    steps = 0
    while cur != stop:
        total = total + branch_sum(sigma, cur, _depth + 1, _limit)
        cur = bump_argmin(sigma, cur)
        steps += 1
        if steps > _limit:
            raise RecursionGuardError("argmin chain failed to terminate")
    return total


def branch_sum(
    sigma: SplittingType, b: BVector, _depth: int = 0, _limit: int = 10**6
) -> GenFun:
    """One recursion step: the sum over non-head partition plans of
    weight * t^(pair-separation exponent) * product of rescaled sub-values."""
    m = sigma.m
    sd = slope_data(sigma, b)
    arg = set(sd.argmin)
    degs = sigma.rel_degrees
    d = sigma.degree
    head = head_plan(m)
    terms = []
    parent_degree = sigma.degree
    for plan in enumerate_plans(sigma, b):
        if plan == head:
            continue
        weight = plan_weight(sigma, b, plan)
        if weight.is_zero:
            continue
        sep = d * (d - 1)
        for bl, n in zip(plan.blocks, plan.orbit_sizes):
            block_deg = sum(degs[i] for i in bl)
            sep -= block_deg * (Fraction(block_deg, n) - 1)
        t_exp = Fraction(sep, sigma.e_base) * sd.slope

        subs = GenFun(1)
        for bl, n in zip(plan.blocks, plan.orbit_sizes):
            h = base_ram_factor(sd, n)
            sub_sigma = SplittingType(
                tuple(sigma.components[i] for i in bl),
                sigma.e_base * h,
                sigma.f_base * n // h,
            )
            sub_b = tuple(b[i] + (1 if i in arg else 0) for i in bl)
            assert sub_sigma.degree < parent_degree, "branch must shrink the degree"
            sub = disc_gen_fun(sub_sigma, sub_b, _depth + 1, _limit)
            subs = subs * sub.substitute_t_power(n)
        terms.append(_p_to_genfun(weight) * GenFun.monomial(t_exp=t_exp) * subs)
    return _tree_sum(terms, GenFun(0))


# ---------------------------------------------------------------------------
# density assembly
# ---------------------------------------------------------------------------

def _tree_sum(items, zero):
    """Balanced pairwise summation: keeps intermediate denominators small."""
    items = list(items)
    if not items:
        return zero
    while len(items) > 1:
        items = [
            items[i] + items[i + 1] if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def _subset_products(sigma: SplittingType):
    """G(sigma_A, all-0) * G(sigma_Ac, all-1) for every subset A of components."""
    m = sigma.m
    for r in range(m + 1):
        for picked in combinations(range(m), r):
            rest = tuple(i for i in range(m) if i not in picked)
            ga = (
                disc_gen_fun(sigma.restrict(picked), (0,) * len(picked))
                if picked
                else GenFun(1)
            )
            gb = (
                disc_gen_fun(sigma.restrict(rest), (1,) * len(rest))
                if rest
                else GenFun(1)
            )
            yield ga, gb


def _subset_masses(sigma: SplittingType) -> GenFun:
    """Sum over subsets A of components of G(sigma_A, all-0) * G(sigma_Ac, all-1)."""
    return _tree_sum((ga * gb for ga, gb in _subset_products(sigma)), GenFun(0))


def _rel_disc_exponent(sigma: SplittingType) -> int:
    """sum (e_rel - 1) f_rel, the q-exponent of the large-q asymptotic."""
    return sum((e - 1) * f for e, f in zip(sigma.e_rel, sigma.f_rel))


def _scale(sigma: SplittingType) -> Fraction:
    """1/(perm * prod f_rel): the count of orderings and Frobenius twists."""
    return Fraction(1, perm_factor(sigma) * prod(sigma.f_rel))


def density_gen_fun(sigma: SplittingType) -> GenFun:
    """Bivariate density rho(p, t): the exact assembly with t left free.

    Specializing t to q^(-e_base/2) recovers the univariate density.  The
    global residue-field prefactor q^(sum (e_rel-1) f_rel / 2) may carry a
    fractional p-exponent; it cancels on the univariate path.
    """
    def build():
        f_base = sigma.f_base
        w = _p_to_genfun(_q_as_p(leading_coeff_weight(sigma.degree), f_base))
        norm = GenFun.monomial(p_exp=Fraction(f_base * _rel_disc_exponent(sigma), 2))
        return w * _subset_masses(sigma) * _scale(sigma) / norm

    return _cached(("rho_pt", sigma.key()), build)


def _at_t_star(sigma: SplittingType, g: GenFun) -> FracPoly:
    """g at t = p^(-e_base f_base / 2), where the univariate densities live."""
    return g.eval_t_as_p_power(Fraction(-sigma.e_base * sigma.f_base, 2))


def _univariate(kind: str, sigma: SplittingType, start, shift: int) -> FracPoly:
    """The cached density start() * p^(shift - f_base * h) / (perm * prod f_rel),
    rewritten in q = p^f_base; h = sum (e_rel - 1) f_rel / 2, and start()
    returns a function of p."""
    def build():
        f_base = sigma.f_base
        exp = shift - Fraction(f_base * _rel_disc_exponent(sigma), 2)
        return rewrite_in_q(start() * FracPoly.monomial(exp, _scale(sigma), var="p"), f_base)

    return _cached((kind, sigma.key()), build)


def splitting_density(sigma: SplittingType) -> FracPoly:
    """Density of degree-d polynomials with this splitting type, in q.

    Assembled after specializing the valuation variable, so all gcd work is
    univariate; agreement with the two-variable assembly is covered by tests.
    """
    def start():
        masses = _tree_sum(
            (_at_t_star(sigma, ga) * _at_t_star(sigma, gb) for ga, gb in _subset_products(sigma)),
            FracPoly(0, var="p"),
        )
        return _q_as_p(leading_coeff_weight(sigma.degree), sigma.f_base) * masses

    return _univariate("rho_q", sigma, start, 0)


def monic_density(sigma: SplittingType) -> FracPoly:
    """Density among monic degree-d polynomials (all roots integral)."""
    return _univariate(
        "alpha_q", sigma, lambda: _at_t_star(sigma, disc_gen_fun(sigma, (0,) * sigma.m)), 0
    )


def centered_monic_density(sigma: SplittingType) -> FracPoly:
    """Conditional density among monic polynomials congruent to x^d: all
    roots in the maximal ideal, rescaled by the measure q^d of that slice."""
    return _univariate(
        "beta_q",
        sigma,
        lambda: _at_t_star(sigma, disc_gen_fun(sigma, (1,) * sigma.m)),
        sigma.f_base * sigma.degree,
    )


def density_asymptotic(sigma: SplittingType) -> FracPoly:
    """Large-q limit 1/(perm * prod f_rel * q^(sum (e_rel-1) f_rel))."""
    return FracPoly.monomial(-_rel_disc_exponent(sigma), _scale(sigma), var="q")


def min_disc_valuation(sigma: SplittingType) -> Fraction:
    """Smallest attainable discriminant valuation for integral generators.

    Cross-checked against the least t-exponent of the computed generating
    function; a mismatch means a bug in one of the two routes.
    """
    c0 = Fraction(_rel_disc_exponent(sigma), sigma.e_base)
    lowest = disc_gen_fun(sigma, (0,) * sigma.m).min_t_exponent()
    if lowest != c0:
        raise VerificationError(
            f"minimal discriminant valuation mismatch: formula {c0}, series {lowest}"
        )
    return c0


def smallest_tame_prime(sigma: SplittingType) -> int:
    p = 2
    while not (is_prime(p) and sigma.is_tame_at(p)):
        p += 1
    return p


@dataclass(frozen=True)
class DensityResult:
    """All densities attached to one splitting type, plus the symmetry report."""

    sigma: SplittingType
    rho_q: FracPoly
    alpha_q: FracPoly
    beta_q: FracPoly
    rho_bivariate: GenFun
    asymptotic: FracPoly
    functional_eq_holds: bool


def density_result(sigma: SplittingType, validate: bool = True) -> DensityResult:
    rho = splitting_density(sigma)
    holds, _ = check_inversion_symmetry(rho)
    result = DensityResult(
        sigma=sigma,
        rho_q=rho,
        alpha_q=monic_density(sigma),
        beta_q=centered_monic_density(sigma),
        rho_bivariate=density_gen_fun(sigma),
        asymptotic=density_asymptotic(sigma),
        functional_eq_holds=holds,
    )
    if validate:
        p0 = smallest_tame_prime(sigma)
        val = rho.evaluate(Fraction(p0) ** sigma.f_base)
        if not (0 < val <= 1):
            raise VerificationError(
                f"density out of range at p={p0}: {val} for {sigma.display_pairs()}"
            )
    return result


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

def _rel_pair_multisets(d: int) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """Nondecreasing multisets of relative (e, f) pairs with total e*f = d."""
    pairs = sorted(
        (e, f) for e in range(1, d + 1) for f in range(1, d + 1) if e * f <= d
    )

    def rec(remaining: int, start: int, acc: list):
        if remaining == 0:
            yield tuple(acc)
            return
        for idx in range(start, len(pairs)):
            e, f = pairs[idx]
            if e * f <= remaining:
                acc.append((e, f))
                yield from rec(remaining - e * f, idx, acc)
                acc.pop()

    yield from rec(d, 0, [])


def catalog(
    degree_max: int, e_base: int = 1, f_base: int = 1
) -> Tuple[SplittingType, ...]:
    """All splitting types of relative degree up to degree_max over the base,
    in a canonical order."""
    out = []
    for d in range(1, degree_max + 1):
        for ms in sorted(_rel_pair_multisets(d)):
            comps = tuple((e * e_base, f * f_base) for e, f in ms)
            out.append(SplittingType(comps, e_base, f_base))
    return tuple(out)


def degree_slice(d: int, e_base: int = 1, f_base: int = 1) -> Tuple[SplittingType, ...]:
    """All splitting types of relative degree exactly d over the base."""
    return tuple(s for s in catalog(d, e_base, f_base) if s.degree == d)
