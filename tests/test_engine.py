"""Engine recursion and density assembly against hand-derived closed forms."""

import itertools
import math
import signal
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from oracle_reference import mobius_orbit_count
from padicdens import engine, verify
from padicdens.engine import (
    branch_sum,
    catalog,
    centered_monic_density,
    clear_memo,
    degree_slice,
    density_asymptotic,
    density_gen_fun,
    disc_gen_fun,
    leading_coeff_weight,
    min_disc_valuation,
    monic_density,
    splitting_density,
)
from padicdens.errors import SigmaParseError, VerificationError
from padicdens.splitting import (
    SplittingType,
    base_ram_factor,
    bump_argmin,
    enumerate_plans,
    head_plan,
    plan_signature,
    signature_weight,
    slope_data,
)
from padicdens.symbolic import FracPoly, GenFun, check_inversion_symmetry

P = GenFun.monomial(p_exp=1)
T = GenFun.monomial(t_exp=1)

S11 = SplittingType(((1, 1),))
S11x2 = SplittingType(((1, 1), (1, 1)))
S12 = SplittingType(((1, 2),))
S21 = SplittingType(((2, 1),))


def test_leading_coeff_weight():
    assert leading_coeff_weight(0) == FracPoly(1)
    assert leading_coeff_weight(1) == FracPoly({1: 1}, {1: 1, 0: 1})
    assert leading_coeff_weight(2) == FracPoly({3: 1, 2: -1}, {3: 1, 0: -1})


def test_branch_sum_hand_values():
    assert branch_sum(S11x2, (0, 0)) == (P - 1) / P
    assert branch_sum(S12, (0,)) == (P**2 - P) / P**2
    assert branch_sum(S21, (1,)) == (P - 1) * T / P**2


def test_gen_fun_hand_values():
    assert disc_gen_fun(S11x2, (0, 0)) == (P - 1) / (P - T**2)
    assert disc_gen_fun(S12, (0,)) == (P - 1) / (P - T**2)
    assert disc_gen_fun(S21, (0,)) == (P - 1) * T / (P - T**2)


def test_gen_fun_base_case():
    assert disc_gen_fun(S11, (3,)) == GenFun(1) / P**3
    deep = SplittingType(((2, 3),), 2, 3)
    assert disc_gen_fun(deep, (2,)) == GenFun.monomial(p_exp=-6)


GOLDEN_RHO = [
    (S11x2, FracPoly(F(1, 2))),
    (S12, FracPoly({2: 1, 1: -1, 0: 1}, {2: 2, 1: 2, 0: 2})),
    (
        SplittingType(((1, 1), (1, 1), (1, 1))),
        FracPoly({4: 1, 2: 2, 0: 1}, {4: 6, 3: 6, 2: 6, 1: 6, 0: 6}),
    ),
    (
        SplittingType(((1, 1), (1, 2))),
        FracPoly({4: 1, 0: 1}, {4: 2, 3: 2, 2: 2, 1: 2, 0: 2}),
    ),
    (S21, FracPoly({1: 1}, {2: 1, 1: 1, 0: 1})),
]


@pytest.mark.parametrize("sigma,expected", GOLDEN_RHO)
def test_densities(sigma, expected):
    assert splitting_density(sigma) == expected


def test_monic_density_hand_values():
    assert monic_density(S11) == FracPoly(1)
    assert monic_density(S11x2) == FracPoly({1: 1}, {1: 2, 0: 2})
    assert monic_density(S21) == FracPoly(1, {1: 1, 0: 1})


def test_centered_monic_density_hand_values():
    assert centered_monic_density(S11) == FracPoly(1)
    assert centered_monic_density(S11x2) == FracPoly(1, {1: 2, 0: 2})
    assert centered_monic_density(S21) == FracPoly({1: 1}, {1: 1, 0: 1})


def test_asymptotics():
    assert density_asymptotic(S11x2) == FracPoly(F(1, 2))
    assert density_asymptotic(S12) == FracPoly(F(1, 2))
    assert density_asymptotic(S21) == FracPoly(1, {1: 1})


def test_min_disc_valuation():
    assert min_disc_valuation(S11x2) == 0
    assert min_disc_valuation(S21) == 1
    assert min_disc_valuation(SplittingType(((3, 2),))) == 4


def test_min_disc_valuation_mismatch_names_the_type(monkeypatch):
    monkeypatch.setattr(engine, "_rel_disc_exponent", lambda sigma: 7)
    with pytest.raises(VerificationError, match="e1f1,e2f1:"):
        min_disc_valuation(SplittingType(((1, 1), (2, 1))))


def test_engine_masses_at_names_type_and_depths():
    """A half-integral valuation over a ramified base is a VerificationError,
    which the CLI maps to an exit code, and names sigma and b."""
    sigma = SplittingType(((4, 1), (2, 1)), 2, 1)
    with pytest.raises(VerificationError, match=r"e4f1,e2f1@e2f1 at b = \[0, 1\]"):
        verify.engine_masses_at(sigma, (0, 1), 4, 3)


def test_measure_completeness():
    """Total mass over all valuations equals the cylinder measure."""
    for sigma in catalog(3):
        for b in itertools.product(range(3), repeat=sigma.m):
            total = disc_gen_fun(sigma, b).eval_t_as_p_power(0)
            expected = FracPoly.monomial(
                -sum(bi * f for bi, (_, f) in zip(b, sigma.components)), var="p"
            )
            assert total == expected, (sigma, b)


@pytest.mark.parametrize("d", [2, 3])
def test_partition_of_unity_rho(d):
    total = sum((splitting_density(s) for s in degree_slice(d)), FracPoly(0))
    assert total == FracPoly(1)


def _root_moment(n, k):
    """M_k(n): the sum over the degree-n e1f1 types of r(r-1)...(r-k+1)
    rho_q, with r the components equal to the base (the roots in P^1)."""
    return sum(
        (math.perm(s.components.count((1, 1)), k) * splitting_density(s) for s in degree_slice(n)),
        FracPoly(0),
    )


def test_root_count_moments():
    """The factorial moments of the number of roots (Bhargava, Cremona,
    Fisher and Gajovic, Proc. LMS 2022).  No per-type check or partition of
    unity implies them: they fail when mass moves between types of
    different r."""
    m2 = FracPoly({4: 1, 2: 2, 0: 1}, {4: 1, 3: 1, 2: 1, 1: 1, 0: 1})
    for n in range(1, 7):
        assert _root_moment(n, 1) == FracPoly(1), n
    for n in range(3, 7):
        assert _root_moment(n, 2) == m2, n
    assert _root_moment(6, 3) == _root_moment(5, 3)


def test_verify_root_moment_checks(monkeypatch):
    """verify.root_moment_checks states M_1(n) = 1 and M_k(n) = M_k(2k-1) on
    each base it is given, and fails when mass moves between types of
    different r."""
    sigmas = [*catalog(6), *catalog(4, 1, 2)]
    checks = verify.root_moment_checks(sigmas)
    assert [name for name, _, _ in checks] == [
        *(f"M_1({n}) = 1" for n in range(1, 7)),
        *(f"M_2({n}) = M_2(3)" for n in range(4, 7)),
        "M_3(6) = M_3(5)",
        *(f"M_1({n}) = 1 @e1f2" for n in range(1, 5)),
        "M_2(4) = M_2(3) @e1f2",
    ]
    assert all(ok for _, ok, _ in checks)

    # move q/(10q^3+10) of rho from e1f1,e1f2 (r = 1) to e1f3 (r = 0)
    moved = FracPoly({1: 1}, {3: 10, 0: 10})
    shift = {
        SplittingType(((1, 1), (1, 2))): -moved,
        SplittingType(((1, 3),)): moved,
    }
    rho = engine.splitting_density
    monkeypatch.setattr(engine, "splitting_density", lambda s: rho(s) + shift.get(s, 0))
    failed = [name for name, ok, _ in verify.root_moment_checks(catalog(4)) if not ok]
    assert failed == ["M_1(3) = 1"]


def test_verify_mass_formula_checks(monkeypatch):
    """verify.mass_formula_checks states Bhargava's mass formula, one line
    per degree and base, and fails on the degree of a type whose asymptotic
    is doubled."""
    checks = verify.mass_formula_checks([*catalog(6), *catalog(3, 2, 1)])
    assert [name for name, _, _ in checks] == [
        *(f"mass formula degree {n}" for n in range(1, 7)),
        *(f"mass formula degree {n} @e2f1" for n in range(1, 4)),
    ]
    assert all(ok for _, ok, _ in checks)
    # degree 3: 1 + 1/q + 1/q^2, since p(0, 3) = p(1, 2) = p(2, 1) = 1
    assert checks[2][2] == str(FracPoly({2: 1, 1: 1, 0: 1}, {2: 1}))

    doubled = SplittingType(((1, 1), (2, 2)))
    asymptotic = engine.density_asymptotic
    monkeypatch.setattr(
        engine,
        "density_asymptotic",
        lambda s: asymptotic(s) * (2 if s == doubled else 1),
    )
    failed = [name for name, ok, _ in verify.mass_formula_checks(catalog(6)) if not ok]
    assert failed == ["mass formula degree 5"]


def test_partition_of_unity_monic():
    ta = sum((monic_density(s) for s in degree_slice(2)), FracPoly(0))
    tb = sum((centered_monic_density(s) for s in degree_slice(2)), FracPoly(0))
    assert ta == FracPoly(1)
    assert tb == FracPoly(1)


def test_functional_equation_small_catalog():
    for eb, fb in ((1, 1), (2, 1), (1, 2)):
        for sigma in catalog(3, eb, fb):
            ok, witness = check_inversion_symmetry(splitting_density(sigma))
            assert ok, (sigma, witness)


def test_duality_small_catalog():
    for sigma in catalog(3):
        a = monic_density(sigma)
        b = centered_monic_density(sigma)
        assert (a.subs_inverse() - b).is_zero, sigma


def test_bivariate_specializes_to_univariate():
    """rho_q is rho_pt at t = q^(-e_base/2) on whole catalogs.  Bases with
    f_base > 1 would need q = p^f_base, so only ramified bases are read."""
    from padicdens.symbolic import rewrite_in_q

    sigmas = catalog(6) + catalog(4, 2, 1) + catalog(4, 3, 1)
    assert len(sigmas) == 111
    for sigma in sigmas:
        biv = density_gen_fun(sigma)
        univ = biv.eval_t_as_p_power(F(-sigma.e_base, 2))
        assert rewrite_in_q(univ) == splitting_density(sigma), sigma


def test_memoization_component_order_independent():
    clear_memo()
    a = disc_gen_fun(SplittingType(((1, 2), (2, 1), (1, 1))), (1, 0, 1))
    clear_memo()
    b = disc_gen_fun(SplittingType(((1, 1), (2, 1), (1, 2))), (1, 0, 1))
    clear_memo()
    c = disc_gen_fun(SplittingType(((2, 1), (1, 1), (1, 2))), (0, 1, 1))
    assert a == b == c


def test_memoization_call_order_independent():
    clear_memo()
    top_first = splitting_density(SplittingType(((1, 1), (2, 1))))
    clear_memo()
    disc_gen_fun(S21, (1,))  # prime the cache bottom-up
    disc_gen_fun(S11, (1,))
    top_second = splitting_density(SplittingType(((1, 1), (2, 1))))
    assert top_first == top_second


@pytest.mark.parametrize("base", [(1, 1), (2, 1)], ids=["e1f1", "e2f1"])
def test_branch_memo_key_is_permutation_invariant(base):
    """branch_sum is memoized on the sorted (component, b) pairs, so its value
    must not depend on the order of the components."""
    for sigma in catalog(4, *base):
        order = tuple(reversed(range(sigma.m)))
        for b in itertools.product((0, 1), repeat=sigma.m):
            clear_memo()
            got = branch_sum(sigma, b)
            clear_memo()
            permuted = branch_sum(sigma.restrict(order), tuple(b[i] for i in order))
            assert got == permuted, (sigma, b)
    clear_memo()


def test_multiset_splits_match_subset_sum():
    """The assembly over sub-multisets equals the sum over all 2^m subsets,
    added one product at a time, for G and for G at t = p^(-1/2)."""
    repeated = [s for s in catalog(5) if len(set(s.components)) < s.m]
    assert repeated
    for point in (engine._PT, engine._T_STAR):
        for sigma in repeated:
            total = point.zero
            for r in range(sigma.m + 1):
                for picked in itertools.combinations(range(sigma.m), r):
                    rest = [i for i in range(sigma.m) if i not in picked]
                    ga = engine.disc_gen_fun(sigma.restrict(picked), (0,) * r, point) if picked else 1
                    gb = engine.disc_gen_fun(sigma.restrict(rest), (1,) * len(rest), point) if rest else 1
                    total = total + ga * gb
            assert engine._subset_masses(point, sigma) == total, sigma


def falling_factorial(x, length):
    """prod_{j=0}^{length-1} (x - j) of a FracPoly; evaluates to 0 when the
    count is exceeded."""
    out = FracPoly(1, var=x.var)
    for j in range(length):
        out = out * (x - j)
    return out


def _block_sizes(plan):
    return [(n, len(bl)) for bl, n in zip(plan.blocks, plan.orbit_sizes)]


def _reference_weight(sigma, b, plan):
    """The plan weight as a polynomial in p, written out from sigma, b and
    the plan directly, without the plan signature."""
    sd = slope_data(sigma, b)
    outside = set(range(sigma.m)) - set(sd.argmin)
    weight = FracPoly(1, var="p")
    for k in sorted(set(plan.orbit_sizes)):
        blocks = [bl for bl, n in zip(plan.blocks, plan.orbit_sizes) if n == k]
        if k == 1:
            if sd.denom != 1:
                continue
            count = FracPoly.monomial(sigma.f_base, var="p")
            if outside:
                weight = weight * falling_factorial(count - 1, len(blocks) - 1)
            else:
                weight = weight * falling_factorial(count, len(blocks))
        else:
            kk = k // sd.denom
            weight = weight * F(kk) ** sum(len(bl) for bl in blocks)
            weight = weight * falling_factorial(
                mobius_orbit_count(kk).substitute(("p",), [[sigma.f_base]]), len(blocks)
            )
    return weight


def test_cached_plan_weights_match_reference():
    """Every weight the recursion read from the cache by plan signature
    equals the reference weight, under p -> (p, t), of each admissible plan
    that read it."""
    clear_memo()
    for degree_max, base in ((5, (1, 1)), (4, (2, 1)), (4, (1, 2))):
        for sigma in catalog(degree_max, *base):
            for b in itertools.product(range(3), repeat=sigma.m):
                disc_gen_fun(sigma, b)
    cached = dict(engine._CACHE)
    clear_memo()
    checked = set()
    for key in cached:
        if key[0] != "branch":
            continue
        parts = key[1:]
        sigma = SplittingType(tuple(c for c, _ in parts))
        b = tuple(bi for _, bi in parts)
        for plan in enumerate_plans(sigma, b):
            if plan == head_plan(sigma.m):
                continue
            signature = plan_signature(slope_data(sigma, b), sigma.m, _block_sizes(plan))
            weight = cached[("weight",) + signature]
            reference = _reference_weight(sigma, b, plan).substitute(GenFun.VARS, [[1], [0]])
            assert weight == reference, (sigma, b, plan)
            checked.add(("weight",) + signature)
    assert checked == {key for key in cached if key[0] == "weight"}
    assert not engine._CACHE


def _per_plan_branch(sigma, b):
    """branch_sum written as one term per plan, the loop before plans were
    grouped into classes: the reference the grouped sum is checked against."""
    sd = slope_data(sigma, b)
    arg = set(sd.argmin)
    degs = sigma.rel_degrees
    d = sigma.degree
    head = head_plan(sigma.m)
    terms = []
    for plan in enumerate_plans(sigma, b):
        if plan == head:
            continue
        weight = signature_weight(plan_signature(sd, sigma.m, _block_sizes(plan)))
        sep = d * (d - 1)
        for bl, n in zip(plan.blocks, plan.orbit_sizes):
            block_deg = sum(degs[i] for i in bl)
            sep -= block_deg * (F(block_deg, n) - 1)
        t_exp = sep * sd.slope

        subs = GenFun(1)
        for bl, n in zip(plan.blocks, plan.orbit_sizes):
            h = base_ram_factor(sd, n)
            sub_sigma = SplittingType(tuple(sigma.components[i] for i in bl), h, n // h)
            sub_b = tuple(b[i] + (1 if i in arg else 0) for i in bl)
            sub = disc_gen_fun(sub_sigma, sub_b)
            subs = subs * sub.substitute_t_power(n)
        weight = weight.substitute(GenFun.VARS, [[1], [0]])
        terms.append(weight * GenFun.monomial(t_exp=t_exp) * subs)
    return sum(terms, GenFun(0))


@pytest.mark.parametrize(
    "base,degree_max", [((1, 1), 5), ((2, 1), 4), ((1, 2), 4)], ids=["e1f1", "e2f1", "e1f2"]
)
def test_branch_sum_matches_per_plan_sum(base, degree_max):
    """branch_sum builds one term per class of equal plans, times the class
    size; it equals the sum of one term per plan, moved to the base."""
    e_base, f_base = base
    move = lambda g: g.substitute(GenFun.VARS, [[f_base, 0], [0, F(1, e_base)]])
    for sigma in catalog(degree_max, *base):
        rel = SplittingType(tuple(zip(sigma.e_rel, sigma.f_rel)))
        for b in itertools.product(range(3), repeat=sigma.m):
            assert branch_sum(sigma, b) == move(_per_plan_branch(rel, b)), (sigma, b)


def test_branch_sum_rejects_bad_depths():
    clear_memo()
    with pytest.raises(SigmaParseError, match=r"must have 2 nonnegative entries"):
        branch_sum(S11x2, (0, -1))
    assert not engine._CACHE


@pytest.mark.parametrize(
    "base", [(2, 1), (1, 2), (3, 1), (1, 3), (2, 2)], ids=["e2f1", "e1f2", "e3f1", "e1f3", "e2f2"]
)
def test_base_change_is_a_substitution(base):
    """The identity proved in engine._recurse, against the values over the
    base: G and branch_sum over (e, f) are the values of the e1f1 type of
    the relative pairs under p -> p^f, t -> t^(1/e); so is rho_pt, and
    rho_q, alpha_q and beta_q are equal."""
    e_base, f_base = base
    move = lambda g: g.substitute(GenFun.VARS, [[f_base, 0], [0, F(1, e_base)]])
    for sigma in catalog(4, e_base, f_base):
        rel = SplittingType(tuple(zip(sigma.e_rel, sigma.f_rel)))
        for b in itertools.product(range(3), repeat=sigma.m):
            assert disc_gen_fun(sigma, b) == move(disc_gen_fun(rel, b)), (sigma, b)
            assert branch_sum(sigma, b) == move(branch_sum(rel, b)), (sigma, b)
        for density in (splitting_density, monic_density, centered_monic_density):
            assert density(sigma) == density(rel), (sigma, density.__name__)
        assert density_gen_fun(sigma) == move(density_gen_fun(rel)), sigma


def test_recursion_keys_name_no_base():
    """The recursion runs over e1f1 only: no recursion, branch, t_star or
    t_star_branch key names a base, only (relative component, b_i) pairs."""
    clear_memo()
    for sigma in catalog(4, 2, 1):
        disc_gen_fun(sigma, (0,) * sigma.m)
        splitting_density(sigma)
    kinds = {key[0] if isinstance(key[0], str) else "G" for key in engine._CACHE}
    assert {"G", "branch", "t_star", "t_star_branch"} <= kinds
    for key in engine._CACHE:
        if key[0] in ("branch", "t_star", "t_star_branch"):
            key = key[1:]
        elif isinstance(key[0], str):
            continue  # plan weights and densities
        assert all(isinstance(pair, tuple) for pair in key), key
    clear_memo()


def _univariate_catalog(degree_max):
    """The three univariate densities of catalog(degree_max), from a cold
    memo."""
    clear_memo()
    for sigma in catalog(degree_max):
        for density in (splitting_density, monic_density, centered_monic_density):
            density(sigma)


def _from_recursion_key(rkey):
    return SplittingType(tuple(comp for comp, _ in rkey)), tuple(bi for _, bi in rkey)


def test_t_star_recursion_matches_bivariate_values():
    """The recursion run at t = p^(-1/2) gives, under every t_star and
    t_star_branch key the univariate densities of catalog(6) reach, the
    bivariate value of the same recursion key specialized by
    eval_t_as_p_power(-1/2), the route the specialization took before it
    moved into the recursion; and under every t_star_weight key, the
    bivariate plan weight so specialized."""
    bivariate = {
        "t_star": lambda rkey: disc_gen_fun(*_from_recursion_key(rkey)),
        "t_star_branch": lambda rkey: branch_sum(*_from_recursion_key(rkey)),
        "t_star_weight": lambda sig: signature_weight(sig).substitute(GenFun.VARS, [[1], [0]]),
    }
    _univariate_catalog(6)
    at_t_star = [(k, v) for k, v in engine._CACHE.items() if k[0] in bivariate]
    kinds = Counter()
    for key, got in at_t_star:
        assert got == bivariate[key[0]](key[1:]).eval_t_as_p_power(F(-1, 2)), key
        kinds[key[0]] += 1
    assert kinds.keys() == bivariate.keys()
    clear_memo()


def test_univariate_densities_build_no_bivariate_value():
    """The three univariate densities of catalog(5), from a cold memo, hold
    no bivariate G, branch or weight key; density_gen_fun fills them."""
    is_bivariate = lambda key: not isinstance(key[0], str) or key[0] in ("branch", "weight")
    _univariate_catalog(5)
    assert not any(map(is_bivariate, engine._CACHE))
    for sigma in catalog(5):
        density_gen_fun(sigma)
    bivariate = [key for key in engine._CACHE if is_bivariate(key)]
    kinds = {key[0] if isinstance(key[0], str) else "G" for key in bivariate}
    assert kinds == {"G", "branch", "weight"}
    clear_memo()


def test_recursion_stays_on_e1f1(monkeypatch):
    """Every value the four densities over catalog(5) reach, sub-values of
    the recursion at both points included, is read on e1f1: a block's
    sub-value is the e1f1 type of its relative pairs under one
    substitution, so _on_base never moves a value within the recursion."""
    seen = set()
    on_base = engine._on_base

    def recording(sigma, value):
        seen.add((sigma.e_base, sigma.f_base))
        return on_base(sigma, value)

    monkeypatch.setattr(engine, "_on_base", recording)
    clear_memo()
    for sigma in catalog(5):
        for density in (splitting_density, monic_density, centered_monic_density, density_gen_fun):
            density(sigma)
    clear_memo()
    assert seen == {(1, 1)}


def test_wrappers_see_the_recursion_at_t_star(monkeypatch):
    """Wrappers installed on disc_gen_fun and branch_sum by name, as
    perfbench's tracer installs them, see every value of the recursion at
    t = p^(-1/2): the keys they see computed there are the t_star and
    t_star_branch entries of the memo after a cold rho_q catalog."""
    computed = set()

    def wrapping(fn, prefix):
        def wrapper(sigma, b, point=engine._PT):
            key = prefix(point) + engine._recursion_key(sigma, b)
            if point is engine._T_STAR and key not in engine._CACHE:
                computed.add(key)
            return fn(sigma, b, point)

        return wrapper

    monkeypatch.setattr(engine, "disc_gen_fun", wrapping(engine.disc_gen_fun, lambda pt: pt.g_prefix))
    monkeypatch.setattr(engine, "branch_sum", wrapping(engine.branch_sum, lambda pt: pt.branch_prefix))
    clear_memo()
    for sigma in catalog(5):
        splitting_density(sigma)
    at_t_star = {key for key in engine._CACHE if key[0] in ("t_star", "t_star_branch")}
    clear_memo()
    assert at_t_star
    assert computed == at_t_star


def test_two_variable_duality():
    """verify.duality_checks adds G(sigma, 0)(1/p, 1/t) = p^F G(sigma, 1)(p, t)
    to alpha(1/q) = beta(q), one line each per type, and both hold."""
    sigmas = [s for base in ((1, 1), (2, 1), (1, 2), (2, 2)) for s in catalog(4, *base)]
    checks = verify.duality_checks(sigmas)
    assert len(checks) == 2 * len(sigmas)
    assert sum(name.startswith("G0(1/p,1/t)=p^F G1(p,t) ") for name, _, _ in checks) == len(sigmas)
    assert all(ok for _, ok, _ in checks)


def test_concurrent_calls_agree():
    clear_memo()
    sigma = SplittingType(((1, 2), (2, 1)))
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: splitting_density(sigma), range(8)))
    assert all(r == results[0] for r in results)


def _assert_chain_reaches(sigma, start, stop):
    """The bump_argmin chain from start reaches stop within
    sum(stop) - sum(start) steps and never passes it."""
    cur = start
    for _ in range(sum(stop) - sum(start)):
        assert all(c <= s for c, s in zip(cur, stop)), (sigma, start, cur)
        if cur == stop:
            return
        cur = bump_argmin(sigma, cur)
    assert cur == stop, (sigma, start, cur)


@pytest.mark.parametrize("base", [(1, 1), (2, 1), (1, 2)], ids=["e1f1", "e2f1", "e1f2"])
def test_recursion_terminates(base):
    """The two facts of _recurse's termination proof, for every (sigma, b)
    of catalog(5) with b in {0..3}^m: each argmin chain ends at its stop,
    and each plan that _branch follows lowers the degree of its sub-types."""
    for sigma in catalog(5, *base):
        e_rel = sigma.e_rel
        _assert_chain_reaches(sigma, bump_argmin(sigma, (0,) * sigma.m), e_rel)
        head = head_plan(sigma.m)
        for b in itertools.product(range(4), repeat=sigma.m):
            k_lim = max(-(-bi // ei) for bi, ei in zip(b, e_rel))
            _assert_chain_reaches(sigma, b, tuple(k_lim * ei for ei in e_rel))
            for plan in enumerate_plans(sigma, b):
                if plan != head:
                    assert len(plan.blocks) > 1 or plan.orbit_sizes[0] > 1, (sigma, b, plan)


@pytest.mark.parametrize("b", [(0,), (0, -1), (0, 0, 0)], ids=["short", "negative", "long"])
def test_disc_gen_fun_rejects_bad_depths(b):
    with pytest.raises(SigmaParseError, match=r"must have 2 nonnegative entries"):
        disc_gen_fun(S11x2, b)


@pytest.mark.parametrize("b", [(0, 0), (1, 1)], ids=str)
def test_list_depths_give_the_tuple_value(b):
    """A list depth vector, on a cold memo, gives the tuple's values under
    the tuple's memo keys.  A list once sent the argmin chain past its stop,
    so an alarm turns a hang into a failure."""

    def expired(signum, frame):
        raise TimeoutError(f"depth vector {list(b)} did not return")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(30)
    try:
        clear_memo()
        from_list = disc_gen_fun(S11x2, list(b)), branch_sum(S11x2, list(b))
        keys = set(engine._CACHE)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    clear_memo()
    assert from_list == (disc_gen_fun(S11x2, b), branch_sum(S11x2, b))
    assert set(engine._CACHE) == keys


@pytest.mark.parametrize("call", [disc_gen_fun, branch_sum])
def test_non_int_depths_are_rejected(call):
    with pytest.raises(SigmaParseError, match=r"must have int entries"):
        call(S11x2, [0.5, 0])


def test_leading_coeff_boundary_at_four_split_factors():
    """The near-1 deficiency of the minimal-valuation mass grows like
    d(d-1)/2 / p; four split linear factors sit just above 5/p."""
    sigma = SplittingType(((1, 1),) * 4)
    g = disc_gen_fun(sigma, (0, 0, 0, 0))
    lead = g.series_coefficients(0, 1000)[F(0)]
    # exact value (p-1)(p-2)(p-3)/p^3 at p = 1000
    dev = abs(lead - 1)
    assert dev == F(5989006, 10**9)
    assert F(5, 1000) < dev <= F(6, 1000)


def test_catalog_counts():
    assert len(degree_slice(2)) == 3
    assert len(degree_slice(3)) == 5
    assert len(degree_slice(4)) == 11
    assert len(degree_slice(5)) == 17
    assert all(s.degree <= 4 for s in catalog(4, 2, 1))


def test_partition_of_unity_degree_five():
    # exercises the univariate assembly on the largest default-catalog slice
    total = sum((splitting_density(s) for s in degree_slice(5)), FracPoly(0))
    assert total == FracPoly(1)


def test_bivariate_symmetry_degree_four():
    for sigma in degree_slice(4):
        ok, _ = check_inversion_symmetry(density_gen_fun(sigma))
        assert ok, sigma
