"""Exact sparse Laurent / rational-function arithmetic over the rationals.

A (Laurent) polynomial is a mapping from exponent tuples to nonzero Fraction
coefficients.  Exponents are themselves Fractions, so objects like t^(1/2) are
first class; integrality is only asserted where it is mathematically required
(see :func:`rewrite_in_q`).

Rational functions are stored as a normalized numerator/denominator pair.
The normal form is canonical:

  * the minimum exponent of each variable across numerator and denominator is
    zero (no shared monomial factor, Laurent part cleared),
  * numerator and denominator share no polynomial factor (full gcd reduction),
  * the lexicographically least term of the denominator has coefficient +1.

Two values built along different arithmetic paths from the same rational
function therefore compare equal with ``==``.

Two concrete shapes are exposed: :class:`FracPoly` (one variable, default
``q``) and :class:`GenFun` (two variables, fixed ``p`` and ``t``).  All values
are immutable after construction and all operations are pure functions, so
values may be freely shared between threads.

There are two ways in, and both end in the same normalization.  The public
constructors parse: they accept scalars and mappings with int or Fraction
exponents and coefficients and convert them.  Arithmetic and substitutions
build through the internal ``_make``, which trusts its term maps to hold
Fraction exponents and nonzero Fraction coefficients already, and may be told
that the pair is coprime so that the gcd is skipped.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Mapping, Tuple, Union

from .errors import (
    NonIntegralExponentError,
    NoSeriesExpansionError,
)

# Sparse term maps: exponent tuple -> nonzero coefficient.
Exp = Tuple[Fraction, ...]
Terms = Dict[Exp, Fraction]

Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# sparse term helpers (arity-generic)
# ---------------------------------------------------------------------------

def _t_add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _t_neg(a: Terms) -> Terms:
    return {k: -v for k, v in a.items()}


def _t_mul(a: Terms, b: Terms) -> Terms:
    if not a or not b:
        return {}
    out: Terms = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _t_shift(a: Terms, shift: Exp) -> Terms:
    return {tuple(x + s for x, s in zip(k, shift)): v for k, v in a.items()}


def _t_scale(a: Terms, c: Fraction) -> Terms:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def _sparse_divexact(a: Terms, b: Terms) -> Terms | None:
    """Exact division of sparse polynomials (nonnegative exponents), or None.

    Uses lexicographic term order; exact quotients always reduce the leading
    term, so the division terminates.
    """
    if not a:
        return {}
    lead_b = max(b)
    cb = b[lead_b]
    out: Terms = {}
    rem = dict(a)
    while rem:
        lead_a = max(rem)
        shift = tuple(x - y for x, y in zip(lead_a, lead_b))
        if any(s < 0 for s in shift):
            return None
        c = rem[lead_a] / cb
        out[shift] = c
        for k, v in b.items():
            kk = tuple(x + y for x, y in zip(k, shift))
            s = rem.get(kk, 0) - c * v
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    return out


# ---------------------------------------------------------------------------
# gcd over the integer exponent lattice
# ---------------------------------------------------------------------------
#
# Univariate polynomials over Z are dense coefficient lists (index = degree).
# Bivariate polynomials are dicts {t_degree: dense p-coefficient list}.
# The univariate gcd is a primitive pseudo-remainder sequence, which keeps
# coefficient growth under control at the sizes this engine produces.  The
# bivariate gcd removes the content in Z[p] and then interpolates in p: it
# takes univariate gcds in t at integer points p = x and interpolates them,
# and a trial division certifies the result.

def _u_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _u_content(a: list) -> int:
    c = 0
    for x in a:
        c = gcd(c, x)
    return c


def _u_primitive(a: list) -> list:
    a = _u_trim(list(a))
    if not a:
        return a
    c = _u_content(a)
    if a[-1] < 0:
        c = -c
    if c != 1:
        a = [x // c for x in a]
    return a


def _u_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _u_trim(out)


def _u_scale(a: list, c: int) -> list:
    if not c:
        return []
    return [x * c for x in a]


def _u_prem(a: list, b: list) -> list:
    """Pseudo-remainder of a by b over Z (b nonzero)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = _u_scale(r, lb)
        for i, y in enumerate(b):
            r[shift + i] -= lr * y
        r = _u_trim(r)
    return r


def _u_gcd(a: list, b: list) -> list:
    a = _u_primitive(a)
    b = _u_primitive(b)
    if not a:
        return b
    if not b:
        return a
    while b:
        r = _u_prem(a, b)
        a, b = b, _u_primitive(r)
    return _u_primitive(a)


def _u_divexact(a: list, b: list) -> list | None:
    """Exact division over Z, or None when it does not divide."""
    a = _u_trim(list(a))
    if not a:
        return []
    if not b:
        return None
    out = [0] * (len(a) - len(b) + 1) if len(a) >= len(b) else None
    if out is None:
        return None
    r = list(a)
    lb = b[-1]
    while r and len(r) >= len(b):
        q, rem = divmod(r[-1], lb)
        if rem:
            return None
        shift = len(r) - len(b)
        out[shift] = q
        for i, y in enumerate(b):
            r[shift + i] -= q * y
        r = _u_trim(r)
    if r:
        return None
    return out


BiPoly = Dict[int, list]  # t-degree -> dense p-coefficient list over Z


def _b_trim(a: BiPoly) -> BiPoly:
    return {j: c for j, c in a.items() if c}


def _b_content(a: BiPoly) -> list:
    c: list = []
    for coeff in a.values():
        c = _u_gcd(c, coeff)
        if c == [1]:
            break
    return c


def _b_div_content(a: BiPoly, c: list) -> BiPoly:
    if c == [1]:
        return a
    out: BiPoly = {}
    for j, coeff in a.items():
        q = _u_divexact(coeff, c)
        assert q is not None
        out[j] = q
    return out


def _u_eval_int(a: list, x: int) -> int:
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def _b_specialize(f: BiPoly, x: int) -> list:
    out = [0] * (max(f) + 1)
    for j, c in f.items():
        out[j] = _u_eval_int(c, x)
    return _u_trim(out)


def _b_divides(g: BiPoly, f: BiPoly) -> bool:
    """Whether g divides f in Q[p, t]."""
    def sparse(h: BiPoly) -> Terms:
        return {
            (i, j): Fraction(c) for j, coeff in h.items() for i, c in enumerate(coeff) if c
        }

    return _sparse_divexact(sparse(f), sparse(g)) is not None


def _b_interpolate(xs: list, values: list, f: BiPoly, g: BiPoly) -> BiPoly | None:
    """The primitive part of the polynomial whose t-coefficients take the
    values values[k] at p = xs[k] (Newton interpolation, exact over Q), when
    it divides both f and g; None otherwise."""
    n = len(xs)
    coeffs: Dict[int, list] = {}
    for j in range(len(values[0])):
        c = [v[j] for v in values]  # divided differences, computed in place
        for k in range(1, n):
            for i in range(n - 1, k - 1, -1):
                c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - k])
        poly = [c[-1]]  # Horner on the Newton form: poly * (p - xs[k]) + c[k]
        for k in range(n - 2, -1, -1):
            nxt = [Fraction(0)] + poly
            for i, v in enumerate(poly):
                nxt[i] -= xs[k] * v
            nxt[0] += c[k]
            poly = nxt
        coeffs[j] = poly
    denom = 1
    for c in coeffs.values():
        for v in c:
            denom = lcm(denom, v.denominator)
    cand = _b_trim({j: _u_trim([int(v * denom) for v in c]) for j, c in coeffs.items()})
    cand = _b_div_content(cand, _b_content(cand))
    if _b_divides(cand, f) and _b_divides(cand, g):
        return cand
    return None


def _b_gcd_by_interpolation(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd of two polynomials with no content in Z[p], by evaluation at
    integer points p = x and interpolation.

    Let h be the gcd and gamma = gcd(lc_t f, lc_t g); lc_t h divides gamma.
    At a point x where both leading coefficients survive, the univariate gcd
    u_x of f(x, t) and g(x, t) has t-degree at least deg_t h, and x is lucky
    when the degrees are equal.  Then u_x, scaled to the leading coefficient
    gamma(x), is the value at x of H = (gamma / lc_t h) * h, whose p-degree is
    at most min(deg_p f, deg_p g) + deg gamma.  The loop keeps the points of
    the lowest t-degree seen so far; once it has enough of them to determine
    H, it interpolates and returns the primitive part if that divides both f
    and g.  A candidate that fails the trial division came from unlucky
    points only (once the lowest degree is deg_t h every kept point is
    lucky), so the points are dropped and sampling goes on.  A degree-0
    u_x proves f and g coprime at once.

    Termination: a point is skipped or unlucky only if it is a root of
    lc_t f, of lc_t g or of Res_t(f/h, g/h), which is a nonzero polynomial in
    p because f/h and g/h are coprime.  So only finitely many integers are
    skipped or unlucky.  Past the last of them every point is lucky, and the
    next batch of points gives H, which passes the trial division.
    """
    lf = f[max(f)]
    lg = g[max(g)]
    gamma = _u_gcd(lf, lg)
    dpf = max(len(c) for c in f.values()) - 1
    dpg = max(len(c) for c in g.values()) - 1
    n_points = min(dpf, dpg) + len(gamma)  # exceeds deg_p H
    xs: list = []
    values: list = []
    deg_min = None
    x = -1
    while True:
        x = -x if x > 0 else 1 - x  # 2, -2, 3, -3, ...
        if _u_eval_int(lf, x) == 0 or _u_eval_int(lg, x) == 0:
            continue
        ux = _u_gcd(_b_specialize(f, x), _b_specialize(g, x))
        dx = len(ux) - 1
        if dx == 0:
            return {0: [1]}
        if deg_min is None or dx < deg_min:
            deg_min, xs, values = dx, [], []
        elif dx > deg_min:
            continue
        scale = Fraction(_u_eval_int(gamma, x), ux[-1])
        xs.append(x)
        values.append([c * scale for c in ux])
        if len(xs) == n_points:
            cand = _b_interpolate(xs, values, f, g)
            if cand is not None:
                return cand
            xs, values = [], []


def _b_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    cont_a = _b_content(a)
    cont_b = _b_content(b)
    cont = _u_gcd(cont_a, cont_b)
    pp = _b_gcd_by_interpolation(_b_div_content(a, cont_a), _b_div_content(b, cont_b))
    if cont != [1]:
        pp = {j: _u_mul(c, cont) for j, c in pp.items()}
    return pp


def _lattice_gcd(a: Dict[tuple, int], b: Dict[tuple, int], nvars: int) -> Dict[tuple, int] | None:
    """gcd of two integer-coefficient polynomials on the nonneg integer lattice.

    Returns None when the gcd is a constant (nothing to cancel).
    """
    if nvars == 1:
        da = max(k[0] for k in a)
        db = max(k[0] for k in b)
        la = [0] * (da + 1)
        for k, v in a.items():
            la[k[0]] = v
        lb = [0] * (db + 1)
        for k, v in b.items():
            lb[k[0]] = v
        g = _u_gcd(la, lb)
        if len(g) <= 1:
            return None
        return {(i,): c for i, c in enumerate(g) if c}
    # two variables: p is axis 0 (the interpolation variable), t is axis 1
    def to_bi(d: Dict[tuple, int]) -> BiPoly:
        out: BiPoly = {}
        for (i, j), v in d.items():
            coeff = out.setdefault(j, [])
            if len(coeff) <= i:
                coeff.extend([0] * (i + 1 - len(coeff)))
            coeff[i] = v
        return {j: _u_trim(c) for j, c in out.items()}

    g = _b_gcd(to_bi(a), to_bi(b))
    out = {(i, j): c for j, coeff in g.items() for i, c in enumerate(coeff) if c}
    if len(out) == 1 and (0, 0) in out:
        return None
    return out


def _terms_gcd(a: Terms, b: Terms, nvars: int) -> Terms | None:
    """Polynomial gcd of two term maps with nonnegative Fraction exponents;
    None when no non-monomial common factor exists."""
    if len(a) == 1 or len(b) == 1:
        return None
    scales = []
    for i in range(nvars):
        m = 1
        for k in a:
            m = lcm(m, k[i].denominator)
        for k in b:
            m = lcm(m, k[i].denominator)
        scales.append(m)

    def to_int(terms: Terms) -> Dict[tuple, int]:
        c = 1
        for v in terms.values():
            c = lcm(c, v.denominator)
        return {
            tuple(int(k[i] * scales[i]) for i in range(nvars)): int(v * c)
            for k, v in terms.items()
        }

    g = _lattice_gcd(to_int(a), to_int(b), nvars)
    if g is None:
        return None
    return {
        tuple(Fraction(k[i], scales[i]) for i in range(nvars)): Fraction(v)
        for k, v in g.items()
    }


def _reduce_fraction(num: Terms, den: Terms, nvars: int) -> Tuple[Terms, Terms]:
    """Cancel the polynomial gcd of num and den (exponents nonneg Fractions)."""
    g = _terms_gcd(num, den, nvars)
    if g is None:
        return num, den
    num2 = _sparse_divexact(num, g)
    den2 = _sparse_divexact(den, g)
    assert num2 is not None and den2 is not None
    return num2, den2


def _normalize_pair(
    num: Terms, den: Terms, nvars: int, reduced: bool = False
) -> Tuple[Terms, Terms]:
    """The canonical form of num/den; the term maps hold no zero coefficient.
    With reduced=True the caller vouches that num and den are coprime."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    zero_exp = (Fraction(0),) * nvars
    if not num:
        return {}, {zero_exp: Fraction(1)}
    mins = tuple(
        min(min(k[i] for k in num), min(k[i] for k in den)) for i in range(nvars)
    )
    if any(mins):
        shift = tuple(-m for m in mins)
        num = _t_shift(num, shift)
        den = _t_shift(den, shift)
    if not reduced:
        num, den = _reduce_fraction(num, den, nvars)
    c = den[min(den)]
    if c != 1:
        inv = 1 / c
        num = _t_scale(num, inv)
        den = _t_scale(den, inv)
    return num, den


def _coerce_terms(spec, nvars: int) -> Terms:
    """Build a term dict from a scalar or a {exponent(s): coefficient} mapping."""
    if isinstance(spec, (int, Fraction)):
        c = Fraction(spec)
        return {(Fraction(0),) * nvars: c} if c else {}
    out: Terms = {}
    for k, v in spec.items():
        if not isinstance(k, tuple):
            k = (k,)
        if len(k) != nvars:
            raise ValueError(f"expected {nvars} exponents per term, got {k!r}")
        key = tuple(Fraction(x) for x in k)
        c = Fraction(v)
        if c:
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def _render_terms(terms: Iterable[Tuple[Exp, Fraction]], names: Tuple[str, ...]) -> str:
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


class _RatFuncBase:
    """Normalized quotient of sparse Laurent polynomials.  Immutable.

    ``_vars`` names the variables, one per exponent axis.
    """

    __slots__ = ("_vars", "_num", "_den", "_hash")

    def _init(self, vars: Tuple[str, ...], num: Terms, den: Terms, reduced: bool = False):
        n, d = _normalize_pair(num, den, len(vars), reduced)
        object.__setattr__(self, "_vars", vars)
        object.__setattr__(self, "_num", tuple(sorted(n.items())))
        object.__setattr__(self, "_den", tuple(sorted(d.items())))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, vars: Tuple[str, ...], num: Terms, den: Terms, reduced: bool = False):
        """The value num/den from term maps whose exponents and coefficients
        are already Fractions, with no zero coefficient; nothing is parsed.
        With reduced=True the caller vouches that num and den are coprime."""
        self = object.__new__(cls)
        self._init(vars, num, den, reduced)
        return self

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- raw access -----------------------------------------------------

    @property
    def num_terms(self) -> Terms:
        return dict(self._num)

    @property
    def den_terms(self) -> Terms:
        return dict(self._den)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self._vars, self._num, self._den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- arithmetic -------------------------------------------------------

    def _like(self, num: Terms, den: Terms, reduced: bool = False) -> "_RatFuncBase":
        return self._make(self._vars, num, den, reduced)

    def _coerce(self, other):
        """other as a value of this shape and these variables, or None."""
        if isinstance(other, (int, Fraction)):
            n = len(self._vars)
            return self._like(_coerce_terms(other, n), _coerce_terms(1, n), reduced=True)
        if type(other) is type(self) and self._vars == other._vars:
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, d1 = dict(self._num), dict(self._den)
        n2, d2 = dict(o._num), dict(o._den)
        if self._den == o._den:
            return self._like(_t_add(n1, n2), d1)
        # pre-cancel the denominators' common factor to keep the final gcd small
        g = _terms_gcd(d1, d2, len(self._vars))
        if g is not None:
            d1r = _sparse_divexact(d1, g)
            d2r = _sparse_divexact(d2, g)
            num = _t_add(_t_mul(n1, d2r), _t_mul(n2, d1r))
            return self._like(num, _t_mul(d1, d2r))
        num = _t_add(_t_mul(n1, d2), _t_mul(n2, d1))
        return self._like(num, _t_mul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        # negation keeps a normalized pair normalized
        return self._like(_t_neg(dict(self._num)), dict(self._den), reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def _cross_reduced_product(self, n1, d1, n2, d2):
        """(n1/d1) * (n2/d2) for normalized operands: after cancelling the two
        cross gcds the product pair is coprime, so normalization skips the gcd."""
        if n1 and n2:
            nvars = len(self._vars)
            n1, d2 = _reduce_fraction(n1, d2, nvars)
            n2, d1 = _reduce_fraction(n2, d1, nvars)
        return self._like(_t_mul(n1, n2), _t_mul(d1, d2), reduced=True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cross_reduced_product(
            dict(self._num), dict(self._den), dict(o._num), dict(o._den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero value")
        return self._cross_reduced_product(
            dict(self._num), dict(self._den), dict(o._den), dict(o._num)
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        one = self._coerce(1)
        if n == 0:
            return one
        base = self if n > 0 else one / self
        out = one
        for _ in range(abs(n)):
            out = out * base
        return out

    # -- substitutions and evaluation ---------------------------------------

    def subs_inverse(self) -> "_RatFuncBase":
        """Replace every variable x by 1/x (exponent negation)."""
        neg = lambda terms: {tuple(-e for e in k): v for k, v in terms}
        return self._like(neg(self._num), neg(self._den))

    def evaluate(self, *point: Scalar) -> Fraction:
        """Exact evaluation at a rational point, one value per variable;
        requires integer exponents and nonzero values for negative powers."""
        if len(point) != len(self._vars):
            raise TypeError(
                f"expected {len(self._vars)} values for {self._vars}, got {len(point)}"
            )
        point = tuple(Fraction(x) for x in point)

        def ev(terms) -> Fraction:
            total = Fraction(0)
            for exps, c in terms:
                for x, e in zip(point, exps):
                    if e.denominator != 1:
                        raise NonIntegralExponentError(
                            f"cannot evaluate fractional exponent {e} numerically"
                        )
                    c *= x ** int(e)
                total += c
            return total

        den = ev(self._den)
        if den == 0:
            raise ZeroDivisionError(
                f"denominator vanishes at {', '.join(map(str, point))}"
            )
        return ev(self._num) / den

    # -- display ------------------------------------------------------------

    def as_integer_pair(self) -> Tuple[Terms, Terms]:
        """num/den scaled so all coefficients are integers (for display)."""
        m = 1
        for _, c in self._num + self._den:
            m = lcm(m, c.denominator)
        num = {k: c * m for k, c in self._num}
        den = {k: c * m for k, c in self._den}
        return num, den

    def __str__(self):
        num, den = self.as_integer_pair()
        ns = _render_terms(num.items(), self._vars)
        if den == {(Fraction(0),) * len(self._vars): 1}:
            return ns
        ds = _render_terms(den.items(), self._vars)
        return f"({ns}) / ({ds})"


class FracPoly(_RatFuncBase):
    """Univariate rational function with exact rational exponents.

    The variable name is part of the value (``q`` by default); mixing
    variables in arithmetic is an error.
    """

    __slots__ = ()

    def __init__(self, num, den=1, var: str = "q"):
        self._init((var,), _coerce_terms(num, 1), _coerce_terms(den, 1))

    @property
    def var(self) -> str:
        return self._vars[0]

    @classmethod
    def monomial(cls, exponent: Scalar, coeff: Scalar = 1, var: str = "q") -> "FracPoly":
        return cls({Fraction(exponent): Fraction(coeff)}, 1, var=var)

    @property
    def exponents(self) -> Tuple[Fraction, ...]:
        return tuple(k[0] for k, _ in self._num) + tuple(k[0] for k, _ in self._den)

    def __repr__(self):
        return f"FracPoly({self}, var={self.var!r})"


class GenFun(_RatFuncBase):
    """Bivariate rational function in (p, t) with exact rational exponents.

    Carrier of the discriminant-valuation generating functions and of the
    bivariate density.  Fractional t-exponents arise from ramified bases;
    fractional p-exponents only ever appear through the global residue-field
    prefactor of the bivariate density and are asserted away on the
    univariate path (:func:`rewrite_in_q`).
    """

    __slots__ = ()
    VARS = ("p", "t")

    def __init__(self, num, den=1):
        self._init(self.VARS, _coerce_terms(num, 2), _coerce_terms(den, 2))

    @classmethod
    def monomial(cls, p_exp: Scalar = 0, t_exp: Scalar = 0, coeff: Scalar = 1) -> "GenFun":
        return cls({(Fraction(p_exp), Fraction(t_exp)): Fraction(coeff)})

    def substitute_t_power(self, n: int) -> "GenFun":
        """t -> t^n on both numerator and denominator."""
        if n <= 0:
            raise ValueError("power substitution needs a positive integer")
        sub = lambda terms: {(pe, te * n): v for (pe, te), v in terms}
        return self._like(sub(self._num), sub(self._den))

    def eval_t_as_p_power(self, r: Scalar) -> FracPoly:
        """Substitute t = p^r, collapsing to a univariate function of p.

        Exponents may be non-integers of p at this stage.
        """
        r = Fraction(r)

        def collapse(terms) -> Terms:
            out: Terms = {}
            for (pe, te), c in terms:
                key = (pe + te * r,)
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
            return out

        num = collapse(self._num)
        den = collapse(self._den)
        if not den:
            raise ZeroDivisionError("denominator collapsed to zero under substitution")
        return FracPoly._make(("p",), num, den)

    def min_t_exponent(self) -> Fraction:
        """Order of vanishing in t at t = 0."""
        if self.is_zero:
            raise ValueError("zero has no minimal exponent")
        return min(k[1] for k, _ in self._num) - min(k[1] for k, _ in self._den)

    def series_coefficients(self, c_max: Scalar) -> Dict[Fraction, FracPoly]:
        """Power-series coefficients in t up to exponent c_max.

        Returns {t-exponent c: coefficient}, each coefficient a rational
        function of p.  Requires the denominator to have a nonzero term at
        t-exponent zero.
        """
        c_max = Fraction(c_max)
        den_slices: Dict[Fraction, Terms] = {}
        for (pe, te), c in self._den:
            den_slices.setdefault(te, {})[(pe,)] = c
        if Fraction(0) not in den_slices:
            raise NoSeriesExpansionError("denominator vanishes at t = 0")
        num_slices: Dict[Fraction, Terms] = {}
        for (pe, te), c in self._num:
            num_slices.setdefault(te, {})[(pe,)] = c
        grid = 1
        for te in list(den_slices) + list(num_slices):
            grid = lcm(grid, te.denominator)
        one = {(Fraction(0),): Fraction(1)}
        in_p = lambda terms: FracPoly._make(("p",), terms, one)
        d0 = in_p(den_slices[Fraction(0)])
        higher = sorted((te, in_p(s)) for te, s in den_slices.items() if te != 0)
        out: Dict[Fraction, FracPoly] = {}
        coeffs: Dict[Fraction, FracPoly] = {}
        k = 0
        while Fraction(k, grid) <= c_max:
            c = Fraction(k, grid)
            acc = in_p(num_slices.get(c, {}))
            for te, slice_poly in higher:
                prev = coeffs.get(c - te)
                if prev is not None:
                    acc = acc - slice_poly * prev
            s = acc / d0
            if not s.is_zero:
                coeffs[c] = s
                out[c] = s
            k += 1
        return out

    def __repr__(self):
        return f"GenFun({self})"


# ---------------------------------------------------------------------------
# operation surface
# ---------------------------------------------------------------------------

def rewrite_in_q(f: FracPoly, f_base: int) -> FracPoly:
    """Rename p^(f_base) to q: divide every exponent by f_base.

    Every exponent of the normalized numerator and denominator must be a
    nonnegative integer multiple of f_base; this operationalizes the
    rationality guarantee and raises NonIntegralExponentError otherwise.
    """
    def convert(terms) -> Terms:
        out: Terms = {}
        for (e,), c in terms:
            if e.denominator != 1 or int(e) % f_base:
                raise NonIntegralExponentError(
                    f"exponent {e} of {f.var} is not an integer multiple of {f_base}"
                )
            out[(Fraction(int(e) // f_base),)] = c
        return out

    return FracPoly._make(("q",), convert(f._num), convert(f._den))


def check_inversion_symmetry(f):
    """Decide f(x) == f(1/x) exactly (x = the single variable, or (p, t)).

    Returns (holds, witness) where witness is the difference f - f(1/x);
    the witness is zero exactly when the symmetry holds.
    """
    witness = f - f.subs_inverse()
    return witness.is_zero, witness


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round trip)
# ---------------------------------------------------------------------------
#
# Each term is one row: the numerator and denominator of every exponent, in
# variable order, then those of the coefficient.

def to_json_obj(x) -> dict:
    if not isinstance(x, _RatFuncBase):
        raise TypeError(f"cannot serialize {type(x).__name__}")
    enc = lambda terms: [
        [n for q in (*k, c) for n in (q.numerator, q.denominator)] for k, c in terms
    ]
    head = {"var": x.var} if isinstance(x, FracPoly) else {"vars": list(x._vars)}
    return {**head, "num": enc(x._num), "den": enc(x._den)}


def from_json_obj(obj: Mapping):
    def dec(rows, nvars: int) -> Terms:
        return {
            tuple(Fraction(r[2 * i], r[2 * i + 1]) for i in range(nvars)): Fraction(r[-2], r[-1])
            for r in rows
        }

    if "var" in obj:
        return FracPoly(dec(obj["num"], 1), dec(obj["den"], 1), var=obj["var"])
    if "vars" in obj:
        return GenFun(dec(obj["num"], 2), dec(obj["den"], 2))
    raise ValueError("not a serialized FracPoly/GenFun")


def dumps(x) -> str:
    return json.dumps(to_json_obj(x), sort_keys=True, separators=(",", ":"))


def loads(s: str):
    return from_json_obj(json.loads(s))
