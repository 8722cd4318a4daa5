"""Splitting-type combinatorics: slopes, plans, weights, orbit counts."""

from fractions import Fraction as F
from math import ceil, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_reference import brute_frobenius_orbit_count, mobius_orbit_count
from padicdens.errors import DivisibilityError
from padicdens.splitting import (
    PartitionPlan,
    SplittingType,
    base_ram_factor,
    bump_argmin,
    enumerate_plans,
    head_plan,
    is_prime,
    perm_factor,
    plan_signature,
    set_partitions,
    signature_weight,
    slope_data,
)
from padicdens.symbolic import FracPoly


def test_component_divisibility_validated():
    with pytest.raises(DivisibilityError):
        SplittingType(((2, 1),), e_base=1, f_base=2)
    with pytest.raises(DivisibilityError):
        SplittingType(((3, 1),), e_base=2, f_base=1)


@pytest.mark.parametrize(
    "args",
    [(((F(5, 2), 1),),), (((2.7, 1),),), (((2, 1),), 2.0, 1), (((1, "1"),),)],
    ids=["fraction", "float", "float-base", "str"],
)
def test_non_int_invariants_rejected(args):
    """A non-int invariant raises instead of being truncated or kept."""
    with pytest.raises(ValueError, match="must be ints"):
        SplittingType(*args)


def test_empty_type_rejected():
    """A type with no component is invalid, not a type of density 1."""
    with pytest.raises(ValueError, match="at least one component"):
        SplittingType(())


@pytest.mark.parametrize(
    "comps,expected",
    [
        (((1, 1), (1, 1)), 2),
        (((1, 1), (1, 2)), 1),
        (((2, 1), (2, 1), (3, 1)), 2),
    ],
)
def test_perm_factor(comps, expected):
    assert perm_factor(SplittingType(comps)) == expected


def test_slope_data_examples():
    sd = slope_data(SplittingType(((2, 1), (3, 1))), (1, 1))
    assert (sd.slope, sd.argmin, sd.denom) == (F(1, 3), (1,), 3)
    sd = slope_data(SplittingType(((2, 1), (3, 1))), (0, 0))
    assert (sd.slope, sd.argmin, sd.denom) == (F(0), (0, 1), 1)
    sd = slope_data(SplittingType(((2, 1),)), (2,))
    assert (sd.slope, sd.argmin, sd.denom) == (F(1), (0,), 1)


def test_bump_argmin_examples():
    s = SplittingType(((1, 1), (2, 1)))
    assert bump_argmin(s, (0, 0)) == (1, 1)
    assert bump_argmin(s, (1, 1)) == (1, 2)
    assert bump_argmin(SplittingType(((1, 1),)), (3,)) == (4,)


@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=3
    ),
    st.data(),
)
def test_bump_reaches_rescaling_point(rel, data):
    """Iterating the bump operator reaches the constant-slope vector
    (k_lim * e_rel_i) in finitely many steps."""
    sigma = SplittingType(tuple(rel))
    b = tuple(
        data.draw(st.integers(0, 12), label=f"b{i}") for i in range(sigma.m)
    )
    k_lim = max(ceil(F(bi, ei)) for bi, ei in zip(b, sigma.e_rel))
    target = tuple(k_lim * ei for ei in sigma.e_rel)
    cur = b
    for _ in range(sum(target) + sigma.m + 1):
        if cur == target:
            break
        cur = bump_argmin(sigma, cur)
    assert cur == target


def test_base_ram_factor():
    sd = slope_data(SplittingType(((2, 1),)), (1,))
    assert base_ram_factor(sd, 2) == 2
    assert base_ram_factor(sd, 1) == 1
    sd0 = slope_data(SplittingType(((2, 1),)), (0,))
    assert base_ram_factor(sd0, 4) == 1


@pytest.mark.parametrize(
    "f_base,k,expected",
    [
        (1, 1, FracPoly({1: 1, 0: -1}, var="p")),
        (1, 2, FracPoly({2: F(1, 2), 1: F(-1, 2)}, var="p")),
        (2, 1, FracPoly({2: 1, 0: -1}, var="p")),
    ],
)
def test_mobius_orbit_count_closed_forms(f_base, k, expected):
    assert mobius_orbit_count(k).substitute(("p",), [[f_base]]) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("f,k", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (1, 4)])
def test_mobius_orbit_count_vs_brute_force(p, f, k):
    if p ** (f * k) > 5**6:
        pytest.skip("beyond the brute-force range")
    assert mobius_orbit_count(k).evaluate(p**f) == brute_frobenius_orbit_count(f, k, p)


def test_is_prime_matches_sieve():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, n, i))
    assert [is_prime(k) for k in range(n)] == sieve
    assert not is_prime(-7)


@pytest.mark.parametrize(
    "n",
    [
        pytest.param(3215031751, id="strong-pseudoprime-to-2-3-5-7"),
        pytest.param(3825123056546413051, id="strong-pseudoprime-to-2-through-31"),
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_set_partition_counts():
    # Bell numbers
    assert sum(1 for _ in set_partitions(3)) == 5
    assert sum(1 for _ in set_partitions(4)) == 15
    assert sum(1 for _ in set_partitions(5)) == 52


def test_enumerate_plans_split_pair():
    plans = set(enumerate_plans(SplittingType(((1, 1), (1, 1))), (0, 0)))
    assert plans == {
        PartitionPlan(((0, 1),), (1,)),
        PartitionPlan(((0,), (1,)), (1, 1)),
    }


def test_enumerate_plans_unramified_quadratic():
    plans = set(enumerate_plans(SplittingType(((1, 2),)), (0,)))
    assert plans == {
        PartitionPlan(((0,),), (1,)),
        PartitionPlan(((0,),), (2,)),
    }


def test_enumerate_plans_ramified_quadratic_depth1():
    plans = set(enumerate_plans(SplittingType(((2, 1),)), (1,)))
    assert plans == {
        PartitionPlan(((0,),), (1,)),
        PartitionPlan(((0,),), (2,)),
    }


def _weight(sigma, b, plan):
    blocks = [(n, len(bl)) for bl, n in zip(plan.blocks, plan.orbit_sizes)]
    return signature_weight(plan_signature(slope_data(sigma, b), sigma.m, blocks))


def test_plan_weight_examples():
    s2 = SplittingType(((1, 1), (1, 1)))
    assert _weight(s2, (0, 0), PartitionPlan(((0,), (1,)), (1, 1))) == FracPoly(
        {2: 1, 1: -1}, var="p"
    )
    # the head plan at depth zero contributes one free residue choice
    any_sigma = SplittingType(((2, 1), (4, 1)))
    assert _weight(any_sigma, (0, 0), head_plan(2)) == FracPoly({1: 1}, var="p")
    s21 = SplittingType(((2, 1),))
    assert _weight(s21, (1,), PartitionPlan(((0,),), (2,))) == FracPoly(
        {1: 1, 0: -1}, var="p"
    )


def test_plan_weight_zero_on_failed_conditions():
    """Plans that fail an admissibility rule have weight zero, and
    enumerate_plans, the one place that states the rules, leaves them out;
    a control plan that differs only where the rule bites is kept."""
    s = SplittingType(((2, 1), (2, 1)))  # denom(beta) = 2 at b = (1, 1)
    s_mixed = SplittingType(((1, 2), (2, 2)))
    s3 = SplittingType(((1, 1), (2, 1), (2, 1)))
    cases = [
        # rule 4: two orbit-1 blocks while denom(beta) = 2
        (s, (1, 1), PartitionPlan(((0,), (1,)), (1, 1)), PartitionPlan(((0,), (1,)), (2, 1))),
        # rule 3: an orbit size that is not a multiple of denom(beta)
        (s, (1, 1), PartitionPlan(((0,), (1,)), (3, 1)), PartitionPlan(((0,), (1,)), (2, 2))),
        # rule 2: a block with n != 1 holding a non-argmin component
        (s_mixed, (0, 1), PartitionPlan(((0, 1),), (2,)), PartitionPlan(((0, 1),), (1,))),
        # rule 1: the complement of the argmin set split across blocks
        (s3, (0, 1, 1), PartitionPlan(((0, 1), (2,)), (1, 1)), PartitionPlan(((0,), (1, 2)), (1, 1))),
    ]
    for sigma, b, absent, control in cases:
        plans = enumerate_plans(sigma, b)
        assert absent not in plans, (sigma, b, absent)
        assert control in plans, (sigma, b, control)


@pytest.mark.parametrize("p", [3, 5])
def test_plan_weights_sum_to_free_choices(p):
    """Summed over all plans, the weight counts one free Teichmuller choice
    for every argmin component: prod over i in argmin of p^(f_i)."""
    from itertools import product as iproduct

    from padicdens.engine import catalog

    for sigma in catalog(3):
        if not sigma.is_tame_at(p):
            continue
        for b in iproduct(range(2), repeat=sigma.m):
            sd = slope_data(sigma, b)
            total = F(0)
            for plan in enumerate_plans(sigma, b):
                total += _weight(sigma, b, plan).evaluate(p)
            expected = F(1)
            for i in sd.argmin:
                expected *= F(p) ** sigma.components[i][1]
            assert total == expected, (sigma, b)


def test_display_conventions():
    s = SplittingType(((1, 1), (1, 2)))
    assert s.display_pairs() == "e1f1,e1f2"
    assert s.display_superscript() == "(1^1 2^1)"
    deep = SplittingType(((4, 1),), 2, 1)
    assert deep.display_pairs() == "e4f1@e2f1"
