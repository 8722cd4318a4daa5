"""Exact-arithmetic substrate: normalization, substitutions, series, symmetry."""

import operator
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from padicdens.errors import NonIntegralExponentError, NoSeriesExpansionError
from padicdens.symbolic import (
    FracPoly,
    GenFun,
    check_inversion_symmetry,
    dumps,
    loads,
    rewrite_in_q,
)

P = GenFun.monomial(p_exp=1)
T = GenFun.monomial(t_exp=1)
ONE = GenFun(1)


# -- arithmetic -----------------------------------------------------------------

def test_arith_cancellation():
    assert (ONE + T) + (ONE - T) == GenFun(2)


def test_arith_identity_division():
    assert (P - T**2) / (P - T**2) == ONE


def test_arith_inverse_cancellation():
    assert (P - 1) / (P - T**2) * (P - T**2) == P - 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / GenFun(0)
    with pytest.raises(ZeroDivisionError):
        GenFun(1, 0)


@pytest.mark.parametrize(
    "make, nvars",
    [pytest.param(FracPoly, 1, id="FracPoly"), pytest.param(GenFun, 2, id="GenFun")],
)
def test_construction_and_evaluation_errors(make, nvars):
    at = lambda e: (e,) * nvars  # the exponent key with every variable at e
    with pytest.raises(NonIntegralExponentError):
        make({at(F(1, 2)): 1}).evaluate(*[4] * nvars)
    with pytest.raises(ZeroDivisionError):
        make(1, 0)
    with pytest.raises(ZeroDivisionError):
        make(1, {at(1): 1, at(0): -1}).evaluate(*[1] * nvars)
    for arity in (nvars - 1, nvars + 1):
        with pytest.raises(TypeError):
            make(1).evaluate(*[1] * arity)


def test_built_values_match_constructed_values():
    # values that arithmetic and substitution build from term maps equal,
    # and hash like, the same value parsed by the public constructor
    pairs = [
        (
            ((2 * P + T) / (3 * T**2 - P)).eval_t_as_p_power(F(1, 3)),
            FracPoly({1: 2, F(1, 3): 1}, {F(2, 3): 3, 1: -1}, var="p"),
        ),
        (
            rewrite_in_q(FracPoly({4: 3, 2: -1}, {6: 2, 0: 5}, var="p"), 2),
            FracPoly({2: 3, 1: -1}, {3: 2, 0: 5}, var="q"),
        ),
        (
            -((P - 3 * T) / (2 * P**2 + T)),
            GenFun({(1, 0): -1, (0, 1): 3}, {(2, 0): 2, (0, 1): 1}),
        ),
        (
            -FracPoly({1: 1, 0: 2}, {2: 3, 0: 1}),
            FracPoly({1: -1, 0: -2}, {2: 3, 0: 1}),
        ),
    ]
    for built, parsed in pairs:
        assert type(built) is type(parsed)
        assert built == parsed
        assert hash(built) == hash(parsed)
        assert str(built) == str(parsed)


# -- substitute_t_power ---------------------------------------------------------

def test_substitute_basic():
    assert T.substitute_t_power(2) == T**2


def test_substitute_rational_function():
    assert ((P - 1) / (P - T**2)).substitute_t_power(3) == (P - 1) / (P - T**6)


def test_substitute_t_free():
    g = ONE / P
    assert g.substitute_t_power(5) == g


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_substitute_multiplicative(m, n):
    g = (P - 1) / (P - T**2) + T**3 / (P + 2)
    assert g.substitute_t_power(m).substitute_t_power(n) == g.substitute_t_power(m * n)
    assert g.substitute_t_power(1) == g


# -- eval_t_as_p_power ---------------------------------------------------------

def test_eval_half_power():
    f = ((P - 1) / (P - T**2)).eval_t_as_p_power(F(-1, 2))
    expected = FracPoly({2: 1, 1: -1}, {2: 1, 0: -1}, var="p")  # p(p-1)/(p^2-1)
    assert f == expected
    assert f.evaluate(5) == F(5 * 4, 24)


def test_eval_t_monomial():
    f = T.eval_t_as_p_power(F(-1, 2))
    assert f == FracPoly.monomial(F(-1, 2), var="p")


def test_eval_constant():
    assert GenFun(7).eval_t_as_p_power(F(3, 5)) == FracPoly(7, var="p")


# -- rewrite_in_q ----------------------------------------------------------------

def test_rewrite_rename_and_reduce():
    f = FracPoly({2: 1, 1: -1}, {2: 1, 0: -1}, var="p")
    assert rewrite_in_q(f, 1) == FracPoly({1: 1}, {1: 1, 0: 1}, var="q")


def test_rewrite_rejects_odd_exponent():
    with pytest.raises(NonIntegralExponentError):
        rewrite_in_q(FracPoly({2: 1, 1: 1, 0: 1}, var="p"), 2)


def test_rewrite_divides_exponents():
    assert rewrite_in_q(FracPoly({4: 1, 2: 1}, var="p"), 2) == FracPoly(
        {2: 1, 1: 1}, var="q"
    )


# -- series ---------------------------------------------------------------------

def test_series_geometric():
    got = ((P - 1) / (P - T**2)).series_coefficients(4)
    want = {
        F(0): FracPoly({1: 1, 0: -1}, {1: 1}, var="p"),
        F(2): FracPoly({1: 1, 0: -1}, {2: 1}, var="p"),
        F(4): FracPoly({1: 1, 0: -1}, {3: 1}, var="p"),
    }
    assert got == want


def test_series_shifted():
    got = ((P - 1) * T / (P - T**2)).series_coefficients(2)
    assert got == {F(1): FracPoly({1: 1, 0: -1}, {1: 1}, var="p")}


def test_series_constant():
    g = GenFun(1) / P**2
    assert g.series_coefficients(10) == {F(0): FracPoly(1, {2: 1}, var="p")}


def test_series_requires_unit_denominator():
    with pytest.raises(NoSeriesExpansionError):
        (ONE / T).series_coefficients(3)


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 3)),
        st.fractions(min_value=-3, max_value=3, max_denominator=2),
        max_size=3,
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 3)),
        st.fractions(min_value=-3, max_value=3, max_denominator=2),
        max_size=3,
    ),
)
def test_series_of_product_is_convolution(na, nb):
    den_a = {(0, 0): 1, (1, 2): F(-1, 2)}
    den_b = {(0, 0): 2, (0, 1): 1}
    a = GenFun(na, den_a)
    b = GenFun(nb, den_b)
    c_max = 4
    sa = a.series_coefficients(c_max)
    sb = b.series_coefficients(c_max)
    sc = (a * b).series_coefficients(c_max)
    conv = {}
    for ca, va in sa.items():
        for cb, vb in sb.items():
            if ca + cb <= c_max:
                cur = conv.get(ca + cb, FracPoly(0, var="p")) + va * vb
                conv[ca + cb] = cur
    conv = {c: v for c, v in conv.items() if not v.is_zero}
    assert sc == conv


# -- symmetry ---------------------------------------------------------------------

def test_symmetry_constant():
    ok, witness = check_inversion_symmetry(FracPoly(F(1, 2)))
    assert ok and witness.is_zero


def test_symmetry_sample_density():
    f = FracPoly({2: 1, 1: -1, 0: 1}, {2: 2, 1: 2, 0: 2})
    ok, _ = check_inversion_symmetry(f)
    assert ok


def test_symmetry_witness():
    ok, witness = check_inversion_symmetry(FracPoly({1: 1}, {1: 1, 0: 1}))
    assert not ok
    assert witness == FracPoly({1: 1, 0: -1}, {1: 1, 0: 1})


def test_symmetry_bivariate():
    g = (P + 1) * (P**2 - T**2) / ((P**2 + P + 1) * (P - T**2) * 2)
    ok, _ = check_inversion_symmetry(g)
    assert ok


# -- canonical normal form / field axioms -------------------------------------------

_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_exp = st.integers(min_value=-2, max_value=2)
_terms = st.dictionaries(st.tuples(_exp, _exp), _coeff, max_size=3)
_nonzero_terms = _terms.filter(lambda d: any(v for v in d.values()))


@st.composite
def genfuns(draw):
    return GenFun(draw(_terms), draw(_nonzero_terms))


@given(genfuns(), genfuns())
def test_field_axioms_round_trip(a, b):
    assume(not b.is_zero)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a - a == GenFun(0)


@given(genfuns(), genfuns(), genfuns())
def test_normal_form_path_independent(a, b, c):
    assume(not c.is_zero)
    left = (a + b) * c
    right = a * c + b * c
    assert left == right
    assert hash(left) == hash(right)
    assert (a / c + b / c) == (a + b) / c


_points = [(F(2), F(1, 3)), (F(3), F(2)), (F(5), F(1, 3)), (F(7, 2), F(2))]


_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


@given(genfuns(), genfuns(), st.sampled_from(["add", "sub", "mul", "div"]))
def test_evaluation_is_homomorphism(a, b, op):
    if op == "div":
        assume(not b.is_zero)
    c = _OPS[op](a, b)
    for p0, t0 in _points:
        try:
            va, vb, vc = a.evaluate(p0, t0), b.evaluate(p0, t0), c.evaluate(p0, t0)
        except ZeroDivisionError:
            continue
        if op == "add":
            assert vc == va + vb
        elif op == "sub":
            assert vc == va - vb
        elif op == "mul":
            assert vc == va * vb
        elif vb != 0:
            assert vc == va / vb


# -- serialization -----------------------------------------------------------------

@given(genfuns())
def test_json_round_trip_genfun(g):
    s = dumps(g)
    assert loads(s) == g
    assert dumps(loads(s)) == s


def test_json_round_trip_fracpoly():
    f = FracPoly({F(1, 2): F(3, 7), 0: -2}, {1: 1, 0: 1}, var="q")
    s = dumps(f)
    assert loads(s) == f
    assert dumps(loads(s)) == s


def test_json_golden_strings():
    f = FracPoly({F(1, 2): F(3, 7), 0: -2}, {1: 1, 0: 1})
    assert dumps(f) == (
        '{"den":[[0,1,1,1],[1,1,1,1]],"num":[[0,1,-2,1],[1,2,3,7]],"var":"q"}'
    )
    g = GenFun({(F(1, 2), F(3, 2)): 2, (0, 0): F(-1, 3)}, {(1, 0): 1, (0, 1): 5})
    assert dumps(g) == (
        '{"den":[[0,1,1,1,1,1],[1,1,0,1,1,5]],"num":[[0,1,0,1,-1,15],[1,2,3,2,2,5]],'
        '"vars":["p","t"]}'
    )


def test_fracpoly_var_mismatch():
    with pytest.raises(TypeError):
        FracPoly(1, var="p") + FracPoly(1, var="q")


def test_gcd_interpolation_stress():
    # products sharing large factors must still cancel exactly and quickly
    common = (P**3 - T**10 + 1) * (P - T**2) * (P**2 - T**6)
    a = common * (P + 3)
    b = common * (P - T)
    assert a / b == (P + 3) / (P - T)
    assert (a - b) / common == (P + 3) - (P - T)


def _product(factors):
    out = ONE
    for f in factors:
        out = out * f
    return out


@pytest.mark.parametrize(
    "a, b, c",
    [
        # a(x, t) = t at every integer 0 < |x| <= 40, so gcd(a*c, b*c) has an
        # extra factor t at each of those points: 80 unlucky points in a row
        pytest.param(
            T + P * _product(P - k for k in range(-40, 41) if k),
            T * (T + 1),
            (T - P) * (P * T + 3),
            id="unlucky-points",
        ),
        pytest.param(P + 1, P**2 - 3, P**2 + 2, id="t-free"),
        pytest.param(T + 2, T**2 + 1, T**3 - 2 * T + 5, id="p-free"),
    ],
)
def test_common_factor_cancels(a, b, c):
    assert (a * c) / (b * c) == a / b


def test_json_round_trip_fractional_exponents():
    # the bivariate density of a ramified quadratic carries p^(1/2)
    from padicdens.engine import density_gen_fun
    from padicdens.splitting import SplittingType

    g = density_gen_fun(SplittingType(((2, 1),)))
    s = dumps(g)
    assert loads(s) == g
    assert dumps(loads(s)) == s


# -- value protocol ------------------------------------------------------------------

_SHAPES = [
    pytest.param(FracPoly({F(1, 2): F(3, 7), 0: -2}, {1: 1, 0: 1}), id="FracPoly"),
    pytest.param((P - T**2) / (2 * P + GenFun.monomial(F(1, 2), F(3, 2))), id="GenFun"),
]


@pytest.mark.parametrize("value", _SHAPES)
def test_pickle_and_copy_round_trip(value):
    import copy
    import pickle

    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        assert dumps(twin) == dumps(value)


@pytest.mark.parametrize("make", [FracPoly, GenFun], ids=["FracPoly", "GenFun"])
@pytest.mark.parametrize("c", [0, 2, -3, F(5, 7), F(-1, 2)], ids=str)
def test_constant_hashes_like_its_scalar(make, c):
    value = make(c)
    assert value == c
    assert hash(value) == hash(c) == hash(F(c))
    assert {value: "v"}[c] == "v"
    assert len({value, c}) == 1
