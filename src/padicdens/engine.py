"""Memoized generating-function recursion and density assembly.

The central object is the generating function in t attached to a splitting
type sigma and a depth vector b: its t^c coefficient is the (class-averaged)
measure of tuples, one element per component drawn from the b_i-th power of
the maximal ideal, whose minimal-polynomial discriminant has valuation
exactly c.  A single recursion step splits off the minimal-slope Teichmuller
coefficient, branching over partition plans; a rescaling identity closes the
resulting geometric tail in closed form.

Each value of the recursion (a branch sum, or G as the sum along its chain)
and each subset assembly is one symbolic.sum_of_products: its products are
built unreduced and the sum is normalized once.

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

Every value is computed once over e1f1 and kept in one memo, ``_CACHE``
behind ``_cached`` (``clear_memo()`` empties it).  The recursion never leaves
e1f1; ``_on_base`` moves a value to a deeper base for a public call on one
(see ``_recurse``).  It runs at one of two points: at (p, t) for G and
rho_pt, and at t = p^(-1/2) for rho_q, alpha_q and beta_q, which so never
build a two-variable value.  The memo's keys, where ``rkey`` is the sorted
(relative component, b_i) pairs:

  rkey                              disc_gen_fun(sigma, b)
  ("branch",) + rkey                branch_sum(sigma, b)
  ("weight",) + plan signature      splitting.signature_weight under
                                    p -> (p, t), the weight of every plan
                                    with that plan_signature
  ("t_star",) + rkey                G(sigma, b) at t = p^(-1/2), the
                                    recursion run at that point
  ("t_star_branch",) + rkey         branch_sum(sigma, b) at t = p^(-1/2)
  ("t_star_weight",) + signature    signature_weight itself, the plan
                                    weight at t = p^(-1/2)
  (kind, _relative(sigma).key())    the densities, kind one of rho_q,
                                    alpha_q, beta_q and rho_pt

Concurrency: the memo table is shared; concurrent calls may duplicate a
bounded amount of work on cache races but always produce value-identical
results.  All returned values are immutable.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, comb, prod
from typing import Callable, Dict, Iterator, NamedTuple, Tuple

from .errors import VerificationError
from .splitting import (
    BVector,
    SplittingType,
    base_ram_factor,
    bump_argmin,
    check_depths,
    enumerate_plans,
    head_plan,
    is_prime,
    perm_factor,
    plan_signature,
    signature_weight,
    slope_data,
)
from .symbolic import FracPoly, GenFun, Scalar, rewrite_in_q, sum_of_products

_CACHE: Dict[tuple, object] = {}
_ZERO = GenFun(0)


def clear_memo() -> None:
    """Forget every memoized value."""
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


def _recursion_key(sigma: SplittingType, b: BVector) -> tuple:
    return tuple(sorted(zip(sigma.components, b)))


def _relative(sigma: SplittingType) -> SplittingType:
    """The e1f1 type of sigma's relative pairs: sigma itself on e1f1."""
    if sigma.e_base == sigma.f_base == 1:
        return sigma
    return SplittingType(tuple(zip(sigma.e_rel, sigma.f_rel)))


def _on_base(sigma: SplittingType, key: tuple, build) -> GenFun:
    """The cached e1f1 value under key, moved to sigma's base by
    p -> p^f_base, t -> t^(1/e_base); on e1f1, the cached value itself.
    The moved value is not cached."""
    value = _cached(key, build)
    if sigma.e_base == sigma.f_base == 1:
        return value
    rows = [[sigma.f_base, 0], [0, Fraction(1, sigma.e_base)]]
    return value.substitute(GenFun.VARS, rows)


class _Point(NamedTuple):
    """A point the recursion runs at (see _recurse): the monomial map of
    the rows from (p, t) to vars, the memoized G and branch_sum of an e1f1
    type there, g(sigma, b) and branch(sigma, b), and the memo kind of the
    plan weights there."""

    vars: Tuple[str, ...]
    rows: Tuple[Tuple[Scalar, Scalar], ...]
    g: Callable
    branch: Callable
    weight_kind: str

    @property
    def zero(self):
        return _ZERO.substitute(self.vars, self.rows)

    def mono(self, p_exp: Scalar = 0, t_exp: Scalar = 0):
        """p^p_exp t^t_exp under the map, built from the image exponents
        (a zero entry of the rows is skipped, not multiplied)."""
        exps = [(a and a * p_exp) + (c and c * t_exp) for a, c in self.rows]
        if len(exps) == 2:
            return GenFun.monomial(*exps)
        return FracPoly.monomial(*exps, var=self.vars[0])

    def weight(self, signature: tuple):
        """signature_weight, a polynomial in p, under the map, memoized on
        the signature."""
        rows = [row[:1] for row in self.rows]
        build = lambda: signature_weight(signature).substitute(self.vars, rows)
        return _cached((self.weight_kind,) + signature, build)

    def stretch(self, value, k: int):
        """value under the map of (p, t) -> (p^k, t^k): that is k times the
        identity, which commutes with the rows, so every variable of the
        point goes to its k-th power."""
        n = len(self.vars)
        return value.substitute(self.vars, [[k * (i == j) for i in range(n)] for j in range(n)])


def disc_gen_fun(sigma: SplittingType, b: BVector) -> GenFun:
    """Generating function of discriminant-valuation masses for (sigma, b).

    Memoized on a canonical key, so results are independent of call order and
    of component ordering.  Raises SigmaParseError on a depth vector that
    check_depths rejects.
    """
    check_depths(sigma, b)
    rel = _relative(sigma)
    return _on_base(sigma, _recursion_key(rel, b), lambda: _recurse(_PT, rel, b))


def _recurse(point: _Point, sigma: SplittingType, b: BVector):
    """The uncached value of disc_gen_fun at point.

    The recursion ends, and needs no run-time guard:

      * Nesting of disc_gen_fun.  A call on (sigma, b) of relative degree d
        nests calls on types of relative degree below d (through _branch,
        whose assert checks it) and, when b != 0, the one call on
        (sigma, 0).  A call on (sigma, 0) nests only the former.  So each
        level lowers d, or goes from b != 0 to b = 0 on the same type, and
        the nesting depth is at most 2 d.
      * The argmin chains.  Each runs from start to stop = k * e_rel with
        start <= stop componentwise (k = k_lim below; at b = 0, start =
        bump(0) = (1, ..., 1) and k = 1).  While cur <= stop, every slope
        cur_i / e_rel_i is at most k, and a component at slope k lies in
        the argmin set only when every component does, that is when
        cur = stop.  So bump_argmin never raises a component past stop,
        adds at least 1 to sum(cur), and the chain reaches stop in at most
        sum(stop) - sum(start) steps.

    Base change is a substitution.  Over a base (e_base, f_base), with
    sigma_rel the e1f1 type of sigma's relative pairs,

      G(sigma, b)(p, t) = G(sigma_rel, b)(p^f_base, t^(1/e_base)),

    and so for branch_sum.  Let phi be this monomial map, of rows
    [[f_base, 0], [0, 1/e_base]].  The recursion written over that base
    reads the base in five places: the head p^f_base, the closure
    denominator 1 - p^(f_base (1-d)) t^(d(d-1)/e_base), the rescale
    p^(-f_base d k) t^(d(d-1) k/e_base), t_exp = sep/e_base * slope in
    _branch, and the plan weights, polynomials in p^f_base.  Induction along
    the nesting above (lower d first, and b = 0 before b != 0 on one type):

      * Both recursions take the same steps: slope_data, bump_argmin,
        enumerate_plans and plan_signature read b, e_rel and f_rel only, so
        the chains, k_lim and the plans are those of sigma_rel.
      * Each of the five is the phi-image of its e1f1 form: p^f_base =
        phi(p); the closure and rescale monomials are phi of p^(1-d)
        t^(d(d-1)) and p^(-d k) t^(d(d-1) k); t^(sep slope/e_base) =
        phi(t^(sep slope)); a weight is built from p^f_base and the orbit
        counts over F_(p^f_base), phi(mobius_orbit_count(k)), by products
        and falling factorials, so it is phi of the e1f1 weight.
        The base case p^(-b f_base) is phi(p^(-b)).
      * A block of orbit size n, with h = base_ram_factor and k = n/h, has
        the sub-type tau over (e_base h, f_base k) with relative pairs
        (e_rel_i / h, f_rel_i / k), which do not depend on the base; tau
        has lower degree.  By induction, G(tau, b') followed by t -> t^n is
        G(tau_rel, b') under the diagonal map (a, c) -> (a f_base k,
        c k/e_base), and the e1f1 recursion takes G(tau_rel, b') under the
        one map (a, c) -> (a k, c k) (_branch).  phi after the latter is the
        former, since diagonal maps compose entrywise.
      * phi is an injective ring map of Laurent polynomials with rational
        exponents, so it extends to their fractions and commutes with the
        sums, the products and the closure's division.

    So every value over the base is the phi-image of the e1f1 one, and
    _on_base computes over e1f1 only.  The rows are diagonal, so phi
    commutes with (p, t) -> (1/p, 1/t), whose rows are -1 times the
    identity.  The assembly carries over: the leading-coefficient weight
    in p^f_base, the prefactor p^(f_base h/2) and the shift p^(f_base d) of
    beta_q are phi-images, and the subset products are products of
    G-values.  Hence rho_pt over the base is phi of rho_pt over e1f1, and
    is symmetric under (p, t) -> (1/p, 1/t) exactly when that one is.  At
    t = p^(-e_base f_base/2), G(sigma_rel, b)(p^f_base, p^(-f_base/2)) read
    in q = p^f_base is the e1f1 value at t = q^(-1/2), so rho_q, alpha_q and
    beta_q do not depend on the base.

    The recursion runs at a point (_Point), a monomial map from (p, t) that
    every constant passes through: the base case p^(-b), the head p, the
    closure denominator 1 - p^(1-d) t^(d(d-1)), the rescale, each class's
    t-monomial, the plan weight (a polynomial in p) and the block stretch
    (p, t) -> (p^k, t^k).  The stretch is k times the identity, so it
    commutes with every monomial map and sends each variable of the point
    to its k-th power.  At (p, t) the map is the identity.  At t* it is
    psi: t -> p^(-1/2), of rows [[1, -1/2]], and the recursion there equals
    G(sigma, b) at t = p^(-1/2) without building G:

      * psi is a ring map from the Laurent polynomials in (p, t) with
        rational exponents to those in p, a domain.  It is not injective,
        but it extends to the fractions whose denominator has a nonzero
        image, and commutes there with sums, products and the division by
        such a denominator.
      * Every division the recursion makes is by a closure denominator
        1 - p^(1-d) t^(d(d-1)), d >= 2, or by one stretched with k in a
        sub-value; the other constants are monomials, units of the ring.
        Their images 1 - p^(-k(d-1)(d+2)/2) are nonzero.  So is the image
        of every divisor f of a product D = f g of them, since psi(f)
        psi(g) = psi(D) != 0: the reduced denominator of each bivariate
        value divides such a D, so psi is defined on it.
      * Induction along the nesting above: both routes apply the same ring
        operations to the psi-images of the same constants and sub-values,
        so each value at t* is psi of the bivariate one, and the canonical
        forms, being unique, are equal.

    The memo keeps both points: at (p, t) under the keys of disc_gen_fun,
    branch_sum and the plan weights, at t* under ("t_star",) + rkey,
    ("t_star_branch",) + rkey and ("t_star_weight",) + signature.
    """
    # canonical component order; the value is symmetric under permutation
    order = sorted(range(sigma.m), key=lambda i: (sigma.components[i], b[i]))
    sigma = sigma.restrict(order)
    b = tuple(b[i] for i in order)

    e_rel = sigma.e_rel
    if sigma.m == 1 and e_rel[0] == 1 and sigma.f_rel[0] == 1:
        # single component equal to the base: degree-1 minimal polynomials
        # have unit discriminant, so all mass sits at t^0
        return point.mono(p_exp=-b[0])
    d = sigma.degree
    t_step = d * (d - 1)
    zero_b = (0,) * sigma.m

    if b == zero_b:
        # the head plan adds p * G(sigma, bump(0)), which the identity below
        # turns into the chain up to e_rel plus a rescaled G(sigma, 0);
        # solving for G(sigma, 0) closes the geometric tail
        p = point.mono(p_exp=1)
        tail = _chain(point, sigma, bump_argmin(sigma, zero_b), tuple(e_rel))
        terms = [(1, [point.branch(sigma, zero_b)])] + [(1, [p, v]) for v in tail]
        closure_den = 1 - point.mono(1 - d, t_step)
        return sum_of_products(terms, point.zero) / closure_den

    # G(sigma, b) = chain from b up to k_lim * e_rel + rescale * G(sigma, 0).
    # At b = 0 it is trivial (k_lim = 0, empty chain, rescale 1), so only the
    # branch above builds the closure, and g_zero = G(sigma, 0) is cached.
    k_lim = max(ceil(Fraction(bi, ei)) for bi, ei in zip(b, e_rel))
    target = tuple(k_lim * ei for ei in e_rel)
    terms = [(1, [v]) for v in _chain(point, sigma, b, target)]
    g_zero = point.g(sigma, zero_b)
    rescale = point.mono(-d * k_lim, t_step * k_lim)
    return sum_of_products(terms + [(1, [rescale, g_zero])], point.zero)


def _chain(point: _Point, sigma: SplittingType, start: BVector, stop: BVector) -> Iterator:
    """branch_sum at point along the bump_argmin chain from start up to,
    not including, stop."""
    cur = start
    while cur != stop:
        yield point.branch(sigma, cur)
        cur = bump_argmin(sigma, cur)


def branch_sum(sigma: SplittingType, b: BVector) -> GenFun:
    """One recursion step: the sum over non-head partition plans of
    weight * t^(pair-separation exponent) * product of rescaled sub-values.

    Memoized like disc_gen_fun, on the same canonical key.  Raises
    SigmaParseError on a depth vector that check_depths rejects."""
    check_depths(sigma, b)
    rel = _relative(sigma)
    return _on_base(sigma, ("branch",) + _recursion_key(rel, b), lambda: _branch(_PT, rel, b))


def _branch(point: _Point, sigma: SplittingType, b: BVector):
    """The uncached value of branch_sum at point.

    Plans fall into classes by their sorted blocks, a block read as (n, its
    sorted (component, sub-depth) pairs), and each class's term is built
    once, times its number of plans.  The blocks fix the term: the weight
    reads the (n, block size) pairs (plan_signature), the t-exponent n and
    the block degrees; a sub-value is invariant under permuting a block's
    pairs (_recursion_key); and the product over the blocks commutes.

    A block continues over the extension of ramification h = base_ram_factor
    and inertia k = n/h: its sub-value is G of the e1f1 type of its relative
    pairs (e/h, f/k) under the one map (p, t) -> (p^k, t^k) (see _recurse).

    Each class gives sum_of_products the term (count, [weight, t-monomial,
    *sub-values]): the products are built unreduced and the sum is
    normalized once."""
    sd = slope_data(sigma, b)
    arg = set(sd.argmin)
    head = head_plan(sigma.m)
    classes = Counter()
    for plan in enumerate_plans(sigma, b):
        if plan != head:
            blocks = (
                (n, tuple(sorted((sigma.components[i], b[i] + (i in arg)) for i in bl)))
                for bl, n in zip(plan.blocks, plan.orbit_sizes)
            )
            classes[tuple(sorted(blocks))] += 1

    d = sigma.degree
    terms = []
    for blocks, count in classes.items():
        signature = plan_signature(sd, sigma.m, [(n, len(pairs)) for n, pairs in blocks])
        weight = point.weight(signature)
        sep = d * (d - 1)
        subs = []
        for n, pairs in blocks:
            block_deg = sum(e * f for (e, f), _ in pairs)
            sep -= block_deg * (Fraction(block_deg, n) - 1)
            h = base_ram_factor(sd, n)
            k = n // h
            assert all(e % h == 0 and f % k == 0 for (e, f), _ in pairs), "h | e and k | f"
            sub_sigma = SplittingType(tuple((e // h, f // k) for (e, f), _ in pairs))
            assert sub_sigma.degree < d, "branch must shrink the degree"
            sub = point.g(sub_sigma, tuple(bi for _, bi in pairs))
            subs.append(point.stretch(sub, k))
        terms.append((count, [weight, point.mono(t_exp=sep * sd.slope), *subs]))
    return sum_of_products(terms, point.zero)


def _at_t_star(sigma: SplittingType, b: BVector) -> FracPoly:
    """G(sigma, b) of an e1f1 type at t = p^(-1/2), where the univariate
    densities live: the recursion run at that point, memoized on the
    recursion key."""
    key = ("t_star",) + _recursion_key(sigma, b)
    return _cached(key, lambda: _recurse(_T_STAR, sigma, b))


def _branch_at_t_star(sigma: SplittingType, b: BVector) -> FracPoly:
    """branch_sum of an e1f1 type at t = p^(-1/2), memoized like _at_t_star."""
    key = ("t_star_branch",) + _recursion_key(sigma, b)
    return _cached(key, lambda: _branch(_T_STAR, sigma, b))


# At (p, t) the nested calls go through disc_gen_fun and branch_sum by
# name, so a wrapper installed on them (perfbench's tracer) sees each one.
_PT = _Point(
    GenFun.VARS,
    ((1, 0), (0, 1)),
    lambda sigma, b: disc_gen_fun(sigma, b),
    lambda sigma, b: branch_sum(sigma, b),
    "weight",
)
_T_STAR = _Point(("p",), ((1, Fraction(-1, 2)),), _at_t_star, _branch_at_t_star, "t_star_weight")


# ---------------------------------------------------------------------------
# density assembly
# ---------------------------------------------------------------------------

def _subset_masses(sigma: SplittingType, value, zero):
    """The sum over subsets A of the components of value(sigma_A, all-0) *
    value(sigma_Ac, all-1), the empty type's value being 1, as a value of
    zero's shape: one term per sub-multiset A, times n = prod C(mult_i, k_i),
    the count of subsets that share A's multiset.  Each term goes to
    sum_of_products as (n, [value(sigma_A, 0), value(sigma_Ac, 1)]), the
    empty type left out, so the products are built unreduced and the sum is
    normalized once."""
    by_comp: Dict[tuple, list] = {}
    for i, comp in enumerate(sigma.components):
        by_comp.setdefault(comp, []).append(i)
    groups = list(by_comp.values())
    terms = []
    for ks in product(*(range(len(g) + 1) for g in groups)):
        picked = [i for g, k in zip(groups, ks) for i in g[:k]]
        rest = [i for g, k in zip(groups, ks) for i in g[k:]]
        factors = []
        if picked:
            factors.append(value(sigma.restrict(picked), (0,) * len(picked)))
        if rest:
            factors.append(value(sigma.restrict(rest), (1,) * len(rest)))
        terms.append((prod(comb(len(g), k) for g, k in zip(groups, ks)), factors))
    return sum_of_products(terms, zero)


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
    rel = _relative(sigma)
    def build():
        w = leading_coeff_weight(rel.degree).substitute(GenFun.VARS, [[1], [0]])
        norm = GenFun.monomial(p_exp=Fraction(_rel_disc_exponent(rel), 2))
        return w * _subset_masses(rel, disc_gen_fun, _ZERO) * _scale(rel) / norm

    return _on_base(sigma, ("rho_pt", rel.key()), build)


def _univariate(kind: str, sigma: SplittingType, start, shift: int) -> FracPoly:
    """The cached density start(rel) * p^(shift - h) / (perm * prod f_rel)
    of rel = _relative(sigma), read in q = p; h = sum (e_rel - 1) f_rel / 2,
    and start(rel) returns a function of p.  See _recurse: it is the density
    over sigma's base."""
    rel = _relative(sigma)
    def build():
        exp = shift - Fraction(_rel_disc_exponent(rel), 2)
        return rewrite_in_q(start(rel) * FracPoly.monomial(exp, _scale(rel), var="p"))

    return _cached((kind, rel.key()), build)


def splitting_density(sigma: SplittingType) -> FracPoly:
    """Density of degree-d polynomials with this splitting type, in q.

    Assembled after specializing the valuation variable, so all gcd work is
    univariate; agreement with the two-variable assembly is covered by tests.
    """
    def start(rel):
        masses = _subset_masses(rel, _at_t_star, FracPoly(0, var="p"))
        return leading_coeff_weight(rel.degree).substitute(("p",), [[1]]) * masses

    return _univariate("rho_q", sigma, start, 0)


def monic_density(sigma: SplittingType) -> FracPoly:
    """Density among monic degree-d polynomials (all roots integral)."""
    return _univariate("alpha_q", sigma, lambda rel: _at_t_star(rel, (0,) * rel.m), 0)


def centered_monic_density(sigma: SplittingType) -> FracPoly:
    """Conditional density among monic polynomials congruent to x^d: all
    roots in the maximal ideal, rescaled by the measure q^d of that slice."""
    return _univariate("beta_q", sigma, lambda rel: _at_t_star(rel, (1,) * rel.m), sigma.degree)


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
            f"minimal discriminant valuation mismatch for {sigma.display_pairs()}: "
            f"formula {c0}, series {lowest}"
        )
    return c0


def smallest_tame_prime(sigma: SplittingType) -> int:
    p = 2
    while not (is_prime(p) and sigma.is_tame_at(p)):
        p += 1
    return p


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
