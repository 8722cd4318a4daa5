"""Exact-arithmetic substrate: normalization, substitutions, series, symmetry."""

import operator
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracle_reference import loads
from padicdens.errors import NonIntegralExponentError, NoSeriesExpansionError
from padicdens import symbolic
from padicdens.symbolic import (
    FracPoly,
    GenFun,
    _cancel,
    _pack,
    _unpack,
    check_inversion_symmetry,
    dumps,
    rewrite_in_q,
    sum_of_products,
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
            rewrite_in_q(FracPoly({2: 3, 1: -1}, {3: 2, 0: 5}, var="p")),
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
        (
            # the embedding p -> (p, t) keeps the scale of p and gives t scale 1
            FracPoly({F(1, 2): 1, 0: 3}, {1: 2, 0: -1}, var="p").substitute(
                GenFun.VARS, [[1], [0]]
            ),
            GenFun({(F(1, 2), 0): 1, (0, 0): 3}, {(1, 0): 2, (0, 0): -1}),
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


def test_eval_merges_equal_images():
    # t = p maps distinct exponents to one: equal images merge, zeros drop,
    # and the result needs the gcd that an injective map skips
    assert (P - T).eval_t_as_p_power(1) == 0
    with pytest.raises(ZeroDivisionError):
        (ONE / (P - T)).eval_t_as_p_power(1)
    assert ((P + T) / (P + T**2)).eval_t_as_p_power(1) == FracPoly(2, {1: 1, 0: 1}, var="p")


# -- rewrite_in_q ----------------------------------------------------------------

def test_rewrite_rename_and_reduce():
    f = FracPoly({2: 1, 1: -1}, {2: 1, 0: -1}, var="p")
    assert rewrite_in_q(f) == FracPoly({1: 1}, {1: 1, 0: 1}, var="q")


def test_rewrite_rejects_odd_exponent():
    with pytest.raises(NonIntegralExponentError):
        rewrite_in_q(FracPoly({2: 1, F(1, 2): 1, 0: 1}, var="p"))


# -- series ---------------------------------------------------------------------

def test_series_geometric():
    # (p - 1) / (p - t^2) = (1 - 1/p) * sum (t^2 / p)^k
    g = (P - 1) / (P - T**2)
    for p in (2, 3, 7):
        got = g.series_coefficients(4, p)
        assert got == {F(0): F(p - 1, p), F(2): F(p - 1, p**2), F(4): F(p - 1, p**3)}


def test_series_shifted():
    got = ((P - 1) * T / (P - T**2)).series_coefficients(2, 5)
    assert got == {F(1): F(4, 5)}


def test_series_constant():
    assert (GenFun(1) / P**2).series_coefficients(10, 5) == {F(0): F(1, 25)}


def test_series_fractional_t_exponents():
    half = GenFun.monomial(t_exp=F(1, 2))
    assert (ONE / (ONE - half)).series_coefficients(1, 3) == {
        F(0): 1, F(1, 2): 1, F(1): 1
    }


def test_series_requires_unit_denominator():
    with pytest.raises(NoSeriesExpansionError):
        (ONE / T).series_coefficients(3, 5)
    # the t^0 part p - 3 of the denominator vanishes at p = 3 only
    g = ONE / (P - 3 + T)
    assert g.series_coefficients(0, 5) == {F(0): F(1, 2)}
    with pytest.raises(NoSeriesExpansionError):
        g.series_coefficients(0, 3)


def test_series_requires_integral_p_exponents():
    with pytest.raises(NonIntegralExponentError):
        (GenFun.monomial(p_exp=F(1, 2)) / (ONE - T)).series_coefficients(2, 4)


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
    st.integers(2, 11),
)
def test_series_of_product_is_convolution(na, nb, p):
    den_a = {(0, 0): 1, (1, 2): F(-1, 2)}
    den_b = {(0, 0): 2, (0, 1): 1}
    a = GenFun(na, den_a)
    b = GenFun(nb, den_b)
    c_max = 4
    sa = a.series_coefficients(c_max, p)
    sb = b.series_coefficients(c_max, p)
    sc = (a * b).series_coefficients(c_max, p)
    conv = {}
    for ca, va in sa.items():
        for cb, vb in sb.items():
            if ca + cb <= c_max:
                conv[ca + cb] = conv.get(ca + cb, 0) + va * vb
    conv = {c: v for c, v in conv.items() if v}
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


# -- sums of products -------------------------------------------------------------

_fexp = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def _fractional_values(shape):
    """FracPoly or GenFun values with fractional exponents, so that the
    factors of one sum sit on different lattices; a numerator may be empty
    (zero)."""
    key = _fexp if shape is FracPoly else st.tuples(_fexp, _fexp)
    num = st.dictionaries(key, st.integers(-3, 3), max_size=2)
    den = st.dictionaries(key, st.integers(1, 3), min_size=1, max_size=2)
    return st.builds(shape, num, den)


_SUM_TERMS = {
    shape: st.lists(
        st.tuples(st.integers(-3, 3), st.lists(_fractional_values(shape), max_size=3)),
        max_size=3,
    )
    for shape in (FracPoly, GenFun)
}


def _fold(terms, zero):
    """The sum of products by the binary operators, left to right."""
    total = zero
    for c, factors in terms:
        term = type(zero)(c)
        for f in factors:
            term = term * f
        total = total + term
    return total


@pytest.mark.parametrize("shape", [FracPoly, GenFun])
@given(data=st.data())
def test_sum_of_products_is_a_fold(shape, data):
    terms = data.draw(_SUM_TERMS[shape])
    cancel = data.draw(st.booleans())
    if cancel:  # every term again, negated: the sum is zero
        terms += [(-c, factors) for c, factors in terms]
    zero = shape(0)
    got = sum_of_products(terms, zero)
    assert type(got) is shape
    assert got == _fold(terms, zero)
    assert hash(got) == hash(_fold(terms, zero))
    if cancel:
        assert got.is_zero


@pytest.mark.parametrize("shape", [FracPoly, GenFun])
def test_sum_of_products_edge_cases(shape):
    x = FracPoly.monomial(F(1, 2)) if shape is FracPoly else GenFun.monomial(F(1, 2), 1)
    y = 1 / (1 - x * x)
    zero = shape(0)
    assert sum_of_products([], zero) is zero
    assert sum_of_products([(3, [])], zero) == shape(3)
    assert sum_of_products([(2, [y])], zero) == 2 * y
    assert sum_of_products([(2, [x, zero, y])], zero).is_zero
    assert sum_of_products([(0, [x]), (5, [zero])], zero).is_zero
    assert sum_of_products([(1, [x, y]), (-1, [y, x])], zero).is_zero
    assert sum_of_products([(1, [y]), (-1, [x, x, y])], zero) == shape(1)


def _operations(a, b):
    """Every operation on values, with a and b (of one shape) as operands."""
    shape = type(a)
    one_row = [[2]] if shape is FracPoly else [[1, F(-1, 2)]]
    two_rows = [[1], [F(1, 2)]] if shape is FracPoly else [[1, 0], [0, 3]]
    return [
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: a / b,
        lambda: a**2,
        lambda: a**-1,
        lambda: -a,
        lambda: a.substitute(("x",), one_row),
        lambda: a.substitute(("p", "t"), two_rows),
        lambda: a.subs_inverse(),
        lambda: sum_of_products([(2, [a, b]), (-1, [b])], shape(0)),
        lambda: a.evaluate(*[2] * len(a._vars)),
        lambda: a.render_pair(),
        lambda: dumps(a),
    ]


@pytest.mark.parametrize("shape", [FracPoly, GenFun])
@given(data=st.data())
def test_operations_leave_operand_terms_alone(shape, data):
    """No operation writes to its operands' term maps, which values hand to
    the kernels uncopied and share with each other (module docstring)."""
    a, b = data.draw(_fractional_values(shape)), data.draw(_fractional_values(shape))
    for op in _operations(a, b):
        before = [(dict(v._num), dict(v._den)) for v in (a, b)]
        try:
            op()
        except (ZeroDivisionError, NonIntegralExponentError):
            pass
        assert [(v._num, v._den) for v in (a, b)] == before


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


_int_points = [(2, 3), (3, -2), (-2, 5), (5, 1), (-3, -1)]


def _at(f, *point):
    """f at point, or None where its denominator vanishes."""
    try:
        return f.evaluate(*point)
    except ZeroDivisionError:
        return None


@given(genfuns(), st.integers(min_value=1, max_value=3), st.integers(min_value=-2, max_value=2))
def test_substitution_commutes_with_evaluation(g, n, r):
    try:
        at_r = g.eval_t_as_p_power(r)
    except ZeroDivisionError:  # the denominator vanishes on all of t = p^r
        at_r = None
    for p0, t0 in _int_points:
        pairs = [
            (_at(g.subs_inverse(), p0, t0), _at(g, F(1, p0), F(1, t0))),
            (_at(g.substitute_t_power(n), p0, t0), _at(g, p0, F(t0) ** n)),
        ]
        if at_r is None:
            assert _at(g, p0, F(p0) ** r) is None
        else:
            pairs.append((_at(at_r, p0), _at(g, p0, F(p0) ** r)))
        for left, right in pairs:
            if left is not None and right is not None:
                assert left == right


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
        # both cofactors are even at every integer p, so every image gcd
        # carries a spurious factor 2
        pytest.param(P**2 + P, P**2 + P + 2, T + P, id="fixed-divisor"),
        pytest.param(6 * (P + T), 4 * (P - T), P * T + 1, id="shared-content"),
        # the first xi is 9, where (P + 2)(P + 1) and (2P - 7)(P + 1) both
        # take the value 110, so the first candidate is (P + 2)(P + 1) itself
        # and fails the trial division by (2P - 7)(P + 1)
        pytest.param(P + 2, 2 * P - 7, P + 1, id="xi-grows"),
    ],
)
def test_common_factor_cancels(a, b, c):
    assert (a * c) / (b * c) == a / b


_BIPOLYS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-(10**6), 10**6).filter(bool),
    min_size=1,
    max_size=5,
)


def _check_cancel(f, g):
    """_cancel on the term maps of sympy polys f and g (two or more terms
    each): f and g are the cofactors times one h, the cofactors have gcd 1,
    and h is sympy's primitive gcd times an integer (its content).  The maps
    cross the boundary as packed keys."""
    sympy = pytest.importorskip("sympy")
    p, t = f.gens
    terms = lambda h: {_pack(k): int(v) for k, v in h.as_dict().items()}
    poly = lambda terms: sympy.Poly.from_dict({_unpack(k, 2): v for k, v in terms.items()}, p, t)
    fc, gc = map(poly, _cancel(terms(f), terms(g), 2))
    h, rem = sympy.div(f, fc)
    assert rem.is_zero and h.domain == sympy.ZZ and gc * h == g
    assert sympy.gcd(fc, gc).is_one
    k, rem = sympy.div(h, sympy.gcd(f, g).primitive()[1])
    assert rem.is_zero and k.is_ground


@given(_BIPOLYS, _BIPOLYS, _BIPOLYS, st.booleans())
def test_gcd_matches_sympy(a, b, c, fixed_divisor):
    sympy = pytest.importorskip("sympy")
    p, t = sympy.symbols("p t")
    poly = lambda terms: sympy.Poly.from_dict(terms, p, t)
    a, b, c = poly(a), poly(b), poly(c)
    if fixed_divisor:
        a, b = a * poly({(2, 0): 1, (1, 0): 1}), b * poly({(2, 0): 1, (1, 0): 1, (0, 0): 2})
    f, g = a * c, b * c
    assume(len(f.terms()) > 1 and len(g.terms()) > 1)  # _cancel skips monomials
    _check_cancel(f, g)


@given(_BIPOLYS, _BIPOLYS, _BIPOLYS)
def test_cancel_on_coarse_lattice(a, b, c):
    # every p-exponent even and every t-exponent a multiple of 3: _cancel
    # takes the gcd on the coarser lattice and stretches the cofactors back
    sympy = pytest.importorskip("sympy")
    p, t = sympy.symbols("p t")
    poly = lambda terms: sympy.Poly.from_dict(
        {(2 * i, 3 * j): v for (i, j), v in terms.items()}, p, t
    )
    f, g = poly(a) * poly(c), poly(b) * poly(c)
    assume(len(f.terms()) > 1 and len(g.terms()) > 1)
    _check_cancel(f, g)


def _value(make, num, den):
    """A value of make's shape from two _BIPOLYS maps: GenFun reads them as
    (p, t) exponents, FracPoly reads half the first exponent."""
    if make is FracPoly:
        num, den = ({F(i, 2): v for (i, _), v in m.items()} for m in (num, den))
    return make(num, den)


@pytest.mark.parametrize("make", [FracPoly, GenFun], ids=["FracPoly", "GenFun"])
@given(
    _BIPOLYS, _BIPOLYS, _BIPOLYS, _BIPOLYS,
    st.one_of(st.integers(-50, 50), st.fractions(max_denominator=20)),
)
def test_subtraction_is_a_signed_sum(make, a, b, c, d, k):
    x, y = _value(make, a, b), _value(make, c, d)
    assert x - y == x + (-y)
    assert k - x == k + (-x)


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


@pytest.mark.parametrize(
    "exps,coeff",
    [
        ((2, 1), 3),
        ((-1, 3), -2),
        ((0, 0), 5),
        ((1, -2), 0),
        ((F(1, 2), F(-3, 2)), F(5, 7)),
        ((F(4, 2), 1), F(-6, 3)),
        ((F(-1, 3), 0), 0),
    ],
    ids=str,
)
def test_monomial_equals_its_mapping(exps, coeff):
    """A monomial given by ints skips the parse, and lands on the value the
    parsing constructor builds, with the same hash.  The mapping is given
    with Fractions, since an int mapping skips the parse too."""
    parsed = lambda e: {tuple(map(F, e)): F(coeff)}
    g = GenFun.monomial(*exps, coeff)
    assert g == GenFun(parsed(exps)) and hash(g) == hash(GenFun(parsed(exps)))
    f = FracPoly.monomial(exps[0], coeff, var="p")
    assert f == FracPoly(parsed(exps[:1]), var="p")
    assert hash(f) == hash(FracPoly(parsed(exps[:1]), var="p"))


def test_int_mappings_skip_the_parse(monkeypatch):
    """An int or a mapping of int exponents to int coefficients goes onto
    the lattice with no Fraction built, and lands on the value that the same
    input given as Fractions builds."""
    specs = [
        (FracPoly, {3: 2, 0: -1, 1: 0}, {1: 4, 0: 2}),
        (FracPoly, 5, {2: 1, 0: -1}),
        (GenFun, {(2, 1): 3, (0, 0): 1, (-1, 4): -2}, {(1, 0): 1, (0, 2): -2}),
        (GenFun, {(1, 1): 6}, 4),
    ]
    as_fractions = lambda spec: F(spec) if isinstance(spec, int) else {
        tuple(map(F, k)) if isinstance(k, tuple) else F(k): F(v) for k, v in spec.items()
    }
    parsed = [make(as_fractions(n), as_fractions(d)) for make, n, d in specs]

    class NoFraction(F):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("int input built a Fraction")

    with monkeypatch.context() as m:
        m.setattr(symbolic, "Fraction", NoFraction)
        built = [make(n, d) for make, n, d in specs]
    for b, value in zip(built, parsed):
        assert b == value and hash(b) == hash(value) and str(b) == str(value)


# -- exponent keys -----------------------------------------------------------------

_T_EXP = st.integers(-(2**31) + 1, 2**31 - 1)


@st.composite
def _vectors(draw, nvars, t_exp=_T_EXP):
    """Exponent vectors on nvars axes, negative components included."""
    if nvars == 1:
        return (draw(st.integers(-(2**70), 2**70)),)
    return draw(st.integers(-(2**40), 2**40)), draw(t_exp)


@pytest.mark.parametrize("nvars", [1, 2])
@given(data=st.data())
def test_key_round_trip(nvars, data):
    e = data.draw(_vectors(nvars))
    assert _unpack(_pack(e), nvars) == e


@pytest.mark.parametrize("nvars", [1, 2])
@given(data=st.data())
def test_keys_sort_as_vectors(nvars, data):
    vectors = data.draw(st.lists(_vectors(nvars), max_size=12))
    assert [_unpack(k, nvars) for k in sorted(map(_pack, vectors))] == sorted(vectors)


@pytest.mark.parametrize("nvars", [1, 2])
@given(data=st.data())
def test_keys_add_as_vectors(nvars, data):
    half = st.integers(-(2**30) + 1, 2**30 - 1)
    a, b = data.draw(_vectors(nvars, half)), data.draw(_vectors(nvars, half))
    assert _pack(a) + _pack(b) == _pack(tuple(map(operator.add, a, b)))


def test_out_of_range_t_exponent_raises():
    """A t-exponent of 2^31 or more, in any key a value builds, raises
    instead of carrying into the p-exponent.  Each case but the first
    builds a t-exponent of 2^32 + 2 or 2^32 - 2, which, carried, would
    read as an exponent in range."""
    big = 2**31
    for e in [(0, big), (5, -big), (-1, big + 7)]:
        with pytest.raises(OverflowError):
            _pack(e)
    near = GenFun.monomial(t_exp=big - 1)
    wraps = GenFun.monomial(t_exp=(2**32 + 2) // 3)  # times 3 is 2^32 + 2
    for build in [
        lambda: GenFun({(0, big): 1}),
        lambda: GenFun({(0, 2**32 + 2): 1}),
        lambda: GenFun.monomial(1, 2**32 - 2),
        lambda: near * near,
        lambda: near / GenFun.monomial(t_exp=1 - big),
        lambda: sum_of_products([(1, [near, near])], GenFun(0)),
        lambda: wraps + GenFun.monomial(t_exp=F(1, 3)),  # the common lattice triples it
        lambda: wraps.substitute_t_power(3),
        lambda: GenFun({(0, big - 1): 1, (0, 1 - big): 1}),  # the shift to exponent 0
    ]:
        with pytest.raises(OverflowError):
            build()
    half = GenFun.monomial(t_exp=2**30)
    quarter = GenFun.monomial(t_exp=2**29)
    # the largest t-exponent in range
    top = half * GenFun.monomial(t_exp=2**30 - 1)
    assert top.min_t_exponent() == big - 1 and top == GenFun.monomial(t_exp=big - 1)
    assert sum_of_products([(1, [quarter] * 3)], GenFun(0)).min_t_exponent() == 3 * 2**29


# -- printing ----------------------------------------------------------------------

def _render_terms(terms, names):
    """The printer before it read the lattice: Fraction exponents, terms
    sorted from the highest down.  The reference of render_pair."""
    parts = []
    for exps, coeff in sorted(terms, reverse=True):
        mono = "*".join(
            n if e == 1 else (f"{n}^{e}" if e.denominator == 1 else f"{n}^({e})")
            for n, e in zip(names, exps)
            if e != 0
        )
        if not mono:
            piece = str(coeff)
        elif coeff == 1:
            piece = mono
        elif coeff == -1:
            piece = f"-{mono}"
        else:
            piece = f"{coeff}*{mono}"
        if parts and not piece.startswith("-"):
            parts.append("+ " + piece)
        elif parts:
            parts.append("- " + piece[1:])
        else:
            parts.append(piece)
    return " ".join(parts) if parts else "0"


_frac_exp = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _printable(draw):
    """A FracPoly or GenFun with fractional and negative exponents, negative
    coefficients, or a constant."""
    nvars = draw(st.sampled_from([1, 2]))
    exps = st.tuples(*[_frac_exp] * nvars)
    num = draw(st.dictionaries(exps, _coeff, max_size=3))
    den = draw(st.dictionaries(exps, _coeff, max_size=3).filter(lambda d: any(d.values())))
    if draw(st.booleans()):
        num = draw(_coeff)
    return FracPoly(num, den, var="p") if nvars == 1 else GenFun(num, den)


@given(_printable())
def test_render_pair_matches_sorted_reference(value):
    render = lambda terms: _render_terms(
        ((value._exps(k), c) for k, c in sorted(terms.items())), value._vars
    )
    assert value.render_pair() == (render(value._num), render(value._den))
