"""Exact sparse Laurent / rational-function arithmetic over the rationals.

Exponents are rationals, so objects like t^(1/2) are first class;
integrality is only asserted where it is mathematically required (see
:func:`rewrite_in_q`).

Values are stored on an integer lattice.  Each value keeps one positive int
``_scale`` per variable: the stored int exponent k on axis i means the
exponent k / _scale[i].  Numerator and denominator are sorted tuples of
(int exponent tuple, nonzero int coefficient).  The normal form is canonical:

  * each axis scale is minimal: the lcm of the denominators of the exponents
    that occur on that axis,
  * the minimum exponent of each variable across numerator and denominator is
    zero (no shared monomial factor, Laurent part cleared),
  * numerator and denominator share no polynomial factor (full gcd reduction),
  * the joint integer content of numerator and denominator is 1,
  * the lexicographically least term of the denominator is positive.

Two values built along different arithmetic paths from the same rational
function therefore compare equal with ``==``, and a constant value equals,
and hashes like, its Fraction.

The printed and serialized form is a bijective image of the stored one.  A
positive scale per axis keeps the lexicographic term order, so dividing each
exponent by its scale gives the exponents, in the same order, and the stored
coefficients are exactly those of :meth:`as_integer_pair` (the integer pair
with joint content 1, which ``__str__`` prints).  Dividing them by the lex-
least denominator coefficient gives the Fraction coefficients of
``num_terms``/``den_terms`` and of the JSON codec, in which that coefficient
is +1.

Two concrete shapes are exposed: :class:`FracPoly` (one variable, default
``q``) and :class:`GenFun` (two variables, fixed ``p`` and ``t``).  All values
are immutable after construction and all operations are pure functions, so
values may be freely shared between threads.

There are two ways in, and both end in the same normalization.  The public
constructors parse: they accept scalars and mappings with int or Fraction
exponents and coefficients and convert them onto the lattice.  Arithmetic and
substitutions build through the internal ``_make``, which trusts its scale
and int term maps, and may be told that the pair is coprime so that the gcd
is skipped.  Fractions appear only at that boundary: in parsing, in
``num_terms``/``den_terms``/``exponents``, in ``evaluate``, in the keys of
``series_coefficients``, in printing and in the JSON codec.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from operator import add, floordiv, mul, sub
from typing import Dict, Iterable, Mapping, Tuple, Union

from .errors import (
    NonIntegralExponentError,
    NoSeriesExpansionError,
)

# Sparse term maps on the lattice: int exponent tuple -> nonzero int coefficient.
Exp = Tuple[int, ...]
Terms = Dict[Exp, int]
Scale = Tuple[int, ...]

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
            del out[k]
    return out


def _t_neg(a: Terms) -> Terms:
    return {k: -v for k, v in a.items()}


def _t_mul(a: Terms, b: Terms) -> Terms:
    if not a or not b:
        return {}
    out: Terms = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(map(add, ka, kb))
            out[k] = get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _t_shift(a: Terms, shift: Exp) -> Terms:
    return {tuple(map(add, k, shift)): v for k, v in a.items()}


def _t_stretch(a: Terms, factors: Exp) -> Terms:
    """Every exponent multiplied, axis by axis, by factors."""
    return {tuple(map(mul, k, factors)): v for k, v in a.items()}


def _t_scale(a: Terms, c: int) -> Terms:
    if c == 1:
        return a
    return {k: v * c for k, v in a.items()}


def _sparse_divexact(a: Terms, b: Terms) -> Terms | None:
    """Exact division of integer polynomials (nonnegative exponents), or None
    when b does not divide a with an integral quotient.

    For a primitive b that is the same as division over Q (Gauss's lemma: a
    quotient over Q of an integral a by a primitive b is integral).  Uses
    lexicographic term order; exact quotients always reduce the leading term,
    so the division terminates.
    """
    if not a:
        return {}
    lead_b = max(b)
    cb = b[lead_b]
    out: Terms = {}
    rem = dict(a)
    while rem:
        lead_a = max(rem)
        shift = tuple(map(sub, lead_a, lead_b))
        if min(shift) < 0:
            return None
        c, r = divmod(rem[lead_a], cb)
        if r:
            return None
        out[shift] = c
        for k, v in b.items():
            kk = tuple(map(add, k, shift))
            s = rem.get(kk, 0) - c * v
            if s:
                rem[kk] = s
            else:
                del rem[kk]
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
    for coeff in sorted(a.values(), key=len):  # the shortest settle it soonest
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
    """Whether the primitive g divides f in Q[p, t]."""
    def sparse(h: BiPoly) -> Terms:
        return {(i, j): c for j, coeff in h.items() for i, c in enumerate(coeff) if c}

    return _sparse_divexact(sparse(f), sparse(g)) is not None


def _b_interpolate(xs: list, values: list, f: BiPoly, g: BiPoly) -> BiPoly | None:
    """The primitive part over Z of the polynomial whose t-coefficients take
    the values values[k] at p = xs[k] (Newton interpolation, exact over Q),
    when it divides both f and g; None otherwise."""
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
    content = gcd(*(v for c in cand.values() for v in c))
    if content != 1:
        cand = {j: [v // content for v in c] for j, c in cand.items()}
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
    """Primitive gcd of two integer-coefficient polynomials on the nonneg
    integer lattice.

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


def _terms_gcd(a: Terms, b: Terms) -> Terms | None:
    """Primitive polynomial gcd of two int term maps with nonnegative
    exponents; None when no non-monomial common factor exists."""
    if len(a) == 1 or len(b) == 1:
        return None
    # the coarsest lattice holding both: divide each axis by the gcd of its
    # exponents (x -> x^k commutes with the gcd)
    steps = tuple(gcd(*col) or 1 for col in zip(*a, *b))
    coarse = any(s != 1 for s in steps)
    if coarse:
        down = lambda t: {tuple(map(floordiv, k, steps)): v for k, v in t.items()}
        a, b = down(a), down(b)
    g = _lattice_gcd(a, b, len(steps))
    if g is not None and coarse:
        g = _t_stretch(g, steps)
    return g


def _reduce_fraction(num: Terms, den: Terms) -> Tuple[Terms, Terms]:
    """Cancel the polynomial gcd of num and den (nonnegative exponents)."""
    g = _terms_gcd(num, den)
    if g is None:
        return num, den
    num2 = _sparse_divexact(num, g)
    den2 = _sparse_divexact(den, g)
    assert num2 is not None and den2 is not None
    return num2, den2


def _normalize_pair(
    num: Terms, den: Terms, scale: Scale, reduced: bool = False
) -> Tuple[Scale, Terms, Terms]:
    """The canonical (scale, num, den) of num/den on the lattice scale; the
    term maps hold no zero coefficient.  With reduced=True the caller vouches
    that num and den are coprime."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    nvars = len(scale)
    if not num:
        return (1,) * nvars, {}, {(0,) * nvars: 1}
    mins = tuple(map(min, zip(*num, *den)))
    if any(mins):
        shift = tuple(-m for m in mins)
        num = _t_shift(num, shift)
        den = _t_shift(den, shift)
    if not reduced:
        num, den = _reduce_fraction(num, den)
    content = gcd(*num.values(), *den.values())
    if den[min(den)] < 0:
        content = -content
    if content != 1:
        num = {k: v // content for k, v in num.items()}
        den = {k: v // content for k, v in den.items()}
    if any(s != 1 for s in scale):
        steps = tuple(gcd(s, *col) for s, col in zip(scale, zip(*num, *den)))
        if any(s != 1 for s in steps):
            num = {tuple(map(floordiv, k, steps)): v for k, v in num.items()}
            den = {tuple(map(floordiv, k, steps)): v for k, v in den.items()}
            scale = tuple(map(floordiv, scale, steps))
    return scale, num, den


def _coerce_terms(spec, nvars: int) -> Dict[Tuple[Fraction, ...], Fraction]:
    """Build a Fraction term dict from a scalar or a {exponent(s): coefficient}
    mapping."""
    if isinstance(spec, (int, Fraction)):
        c = Fraction(spec)
        return {(Fraction(0),) * nvars: c} if c else {}
    out: Dict[Tuple[Fraction, ...], Fraction] = {}
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


def _parse(num, den, nvars: int) -> Tuple[Scale, Terms, Terms]:
    """Constructor input on the lattice: (scale, num, den) with int exponents
    and int coefficients, before normalization."""
    num = _coerce_terms(num, nvars)
    den = _coerce_terms(den, nvars)
    scale = tuple(lcm(*(e.denominator for e in col)) for col in zip(*num, *den))
    m = lcm(*(c.denominator for c in (*num.values(), *den.values())))
    conv = lambda terms: {
        tuple(e.numerator * (s // e.denominator) for e, s in zip(k, scale)):
            c.numerator * (m // c.denominator)
        for k, c in terms.items()
    }
    return scale, conv(num), conv(den)


def _render_terms(
    terms: Iterable[Tuple[Tuple[Fraction, ...], Scalar]], names: Tuple[str, ...]
) -> str:
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

    ``_vars`` names the variables, one per exponent axis, and ``_scale``
    holds the lattice scale of each axis.
    """

    __slots__ = ("_vars", "_scale", "_num", "_den", "_hash")

    def _init(
        self, vars: Tuple[str, ...], scale: Scale, num: Terms, den: Terms, reduced: bool = False
    ):
        scale, n, d = _normalize_pair(num, den, scale, reduced)
        object.__setattr__(self, "_vars", vars)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_num", tuple(sorted(n.items())))
        object.__setattr__(self, "_den", tuple(sorted(d.items())))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(
        cls, vars: Tuple[str, ...], scale: Scale, num: Terms, den: Terms, reduced: bool = False
    ):
        """The value num/den from int term maps on the lattice scale, with no
        zero coefficient; nothing is parsed.  With reduced=True the caller
        vouches that num and den are coprime."""
        self = object.__new__(cls)
        self._init(vars, scale, num, den, reduced)
        return self

    @classmethod
    def _monomial(cls, vars: Tuple[str, ...], exps: Tuple[Scalar, ...], coeff: Scalar):
        """coeff * prod x_i^exps[i], parsed from int or Fraction input."""
        exps = tuple(Fraction(e) for e in exps)
        c = Fraction(coeff)
        num = {tuple(e.numerator for e in exps): c.numerator} if c else {}
        den = {(0,) * len(vars): c.denominator}
        return cls._make(vars, tuple(e.denominator for e in exps), num, den, reduced=True)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return self._make, (self._vars, self._scale, dict(self._num), dict(self._den), True)

    # -- raw access -----------------------------------------------------

    def _exps(self, k: Exp) -> Tuple[Fraction, ...]:
        return tuple(Fraction(e, s) for e, s in zip(k, self._scale))

    def _fraction_terms(self, terms) -> Dict[Tuple[Fraction, ...], Fraction]:
        """terms with Fraction exponents and coefficients over the lex-least
        denominator coefficient."""
        lead = self._den[0][1]
        return {self._exps(k): Fraction(c, lead) for k, c in terms}

    @property
    def num_terms(self) -> Dict[Tuple[Fraction, ...], Fraction]:
        return self._fraction_terms(self._num)

    @property
    def den_terms(self) -> Dict[Tuple[Fraction, ...], Fraction]:
        return self._fraction_terms(self._den)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den and self._scale == o._scale

    def __hash__(self):
        h = self._hash
        if h is None:
            zero = (0,) * len(self._vars)
            if all(k == zero for k, _ in self._num + self._den):
                # a constant hashes like the Fraction it equals
                h = hash(Fraction(self._num[0][1] if self._num else 0, self._den[0][1]))
            else:
                h = hash((self._vars, self._scale, self._num, self._den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- arithmetic -------------------------------------------------------

    def _like(self, scale: Scale, num: Terms, den: Terms, reduced: bool = False) -> "_RatFuncBase":
        return self._make(self._vars, scale, num, den, reduced)

    def _coerce(self, other):
        """other as a value of this shape and these variables, or None."""
        if isinstance(other, (int, Fraction)):
            return self._monomial(self._vars, (0,) * len(self._vars), other)
        if type(other) is type(self) and self._vars == other._vars:
            return other
        return None

    def _aligned(self, o):
        """(scale, n1, d1, n2, d2): the term maps of self and o as dicts on one
        lattice, the lcm of the two scales."""
        s1, s2 = self._scale, o._scale
        if s1 == s2:
            return s1, dict(self._num), dict(self._den), dict(o._num), dict(o._den)
        scale = tuple(map(lcm, s1, s2))
        f1 = tuple(map(floordiv, scale, s1))
        f2 = tuple(map(floordiv, scale, s2))
        return (
            scale,
            _t_stretch(dict(self._num), f1),
            _t_stretch(dict(self._den), f1),
            _t_stretch(dict(o._num), f2),
            _t_stretch(dict(o._den), f2),
        )

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        scale, n1, d1, n2, d2 = self._aligned(o)
        if d1.keys() == d2.keys():
            # proportional denominators d1 = a*P, d2 = b*P need no gcd
            k0 = next(iter(d1))
            a, b = d1[k0], d2[k0]
            if all(v * b == d2[k] * a for k, v in d1.items()):
                g = gcd(a, b)
                num = _t_add(_t_scale(n1, b // g), _t_scale(n2, a // g))
                return self._like(scale, num, _t_scale(d1, b // g))
        # pre-cancel the denominators' common factor to keep the final gcd small
        g = _terms_gcd(d1, d2)
        if g is not None:
            d1r = _sparse_divexact(d1, g)
            d2r = _sparse_divexact(d2, g)
            num = _t_add(_t_mul(n1, d2r), _t_mul(n2, d1r))
            return self._like(scale, num, _t_mul(d1, d2r))
        num = _t_add(_t_mul(n1, d2), _t_mul(n2, d1))
        return self._like(scale, num, _t_mul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        # negation keeps a normalized pair normalized
        return self._like(self._scale, _t_neg(dict(self._num)), dict(self._den), reduced=True)

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

    def _cross_reduced_product(self, scale, n1, d1, n2, d2):
        """(n1/d1) * (n2/d2) for normalized operands on one lattice: after
        cancelling the two cross gcds the product pair is coprime, so
        normalization skips the gcd."""
        if n1 and n2:
            n1, d2 = _reduce_fraction(n1, d2)
            n2, d1 = _reduce_fraction(n2, d1)
        return self._like(scale, _t_mul(n1, n2), _t_mul(d1, d2), reduced=True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cross_reduced_product(*self._aligned(o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero value")
        scale, n1, d1, n2, d2 = self._aligned(o)
        return self._cross_reduced_product(scale, n1, d1, d2, n2)

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
        """Replace every variable x by 1/x (exponent negation).  The map is an
        automorphism of the Laurent ring, so the pair stays coprime."""
        neg = lambda terms: {tuple(-e for e in k): v for k, v in terms}
        return self._like(self._scale, neg(self._num), neg(self._den), reduced=True)

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
                for x, e, s in zip(point, exps, self._scale):
                    if e % s:
                        raise NonIntegralExponentError(
                            f"cannot evaluate fractional exponent {Fraction(e, s)} numerically"
                        )
                    c *= x ** (e // s)
                total += c
            return total

        den = ev(self._den)
        if den == 0:
            raise ZeroDivisionError(
                f"denominator vanishes at {', '.join(map(str, point))}"
            )
        return ev(self._num) / den

    # -- display ------------------------------------------------------------

    def as_integer_pair(self) -> Tuple[dict, dict]:
        """num/den with int coefficients of joint content 1 and Fraction
        exponents (for display)."""
        return (
            {self._exps(k): c for k, c in self._num},
            {self._exps(k): c for k, c in self._den},
        )

    def __str__(self):
        num, den = self.as_integer_pair()
        ns = _render_terms(num.items(), self._vars)
        if self._den == (((0,) * len(self._vars), 1),):
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
        self._init((var,), *_parse(num, den, 1))

    @property
    def var(self) -> str:
        return self._vars[0]

    @classmethod
    def monomial(cls, exponent: Scalar, coeff: Scalar = 1, var: str = "q") -> "FracPoly":
        return cls._monomial((var,), (exponent,), coeff)

    @property
    def exponents(self) -> Tuple[Fraction, ...]:
        (s,) = self._scale
        return tuple(Fraction(k[0], s) for k, _ in self._num + self._den)

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
        self._init(self.VARS, *_parse(num, den, 2))

    @classmethod
    def monomial(cls, p_exp: Scalar = 0, t_exp: Scalar = 0, coeff: Scalar = 1) -> "GenFun":
        return cls._monomial(cls.VARS, (p_exp, t_exp), coeff)

    def substitute_t_power(self, n: int) -> "GenFun":
        """t -> t^n on both numerator and denominator.  The substitution is an
        injective ring map, so the pair stays coprime."""
        if n <= 0:
            raise ValueError("power substitution needs a positive integer")
        sp, st = self._scale
        g = gcd(n, st)
        m = n // g
        sub = lambda terms: {(pe, te * m): v for (pe, te), v in terms}
        return self._like((sp, st // g), sub(self._num), sub(self._den), reduced=True)

    def eval_t_as_p_power(self, r: Scalar) -> FracPoly:
        """Substitute t = p^r, collapsing to a univariate function of p.

        Exponents may be non-integers of p at this stage.
        """
        r = Fraction(r)
        sp, st = self._scale
        scale = lcm(sp, st * r.denominator)
        fp = scale // sp
        ft = scale // (st * r.denominator) * r.numerator

        def collapse(terms) -> Terms:
            out: Terms = {}
            for (pe, te), c in terms:
                key = (pe * fp + te * ft,)
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    del out[key]
            return out

        num = collapse(self._num)
        den = collapse(self._den)
        if not den:
            raise ZeroDivisionError("denominator collapsed to zero under substitution")
        return FracPoly._make(("p",), (scale,), num, den)

    def min_t_exponent(self) -> Fraction:
        """Order of vanishing in t at t = 0."""
        if self.is_zero:
            raise ValueError("zero has no minimal exponent")
        low = lambda terms: min(k[1] for k, _ in terms)
        return Fraction(low(self._num) - low(self._den), self._scale[1])

    def series_coefficients(self, c_max: Scalar) -> Dict[Fraction, FracPoly]:
        """Power-series coefficients in t up to exponent c_max.

        Returns {t-exponent c: coefficient}, each coefficient a rational
        function of p.  Requires the denominator to have a nonzero term at
        t-exponent zero.
        """
        sp, st = self._scale
        k_max = Fraction(c_max) * st  # t-exponents run over k / st
        den_slices: Dict[int, Terms] = {}
        for (pe, te), c in self._den:
            den_slices.setdefault(te, {})[(pe,)] = c
        if 0 not in den_slices:
            raise NoSeriesExpansionError("denominator vanishes at t = 0")
        num_slices: Dict[int, Terms] = {}
        for (pe, te), c in self._num:
            num_slices.setdefault(te, {})[(pe,)] = c
        one = {(0,): 1}
        in_p = lambda terms: FracPoly._make(("p",), (sp,), terms, one, reduced=True)
        d0 = in_p(den_slices[0])
        higher = sorted((te, in_p(s)) for te, s in den_slices.items() if te != 0)
        out: Dict[Fraction, FracPoly] = {}
        coeffs: Dict[int, FracPoly] = {}
        k = 0
        while k <= k_max:
            acc = in_p(num_slices.get(k, {}))
            for te, slice_poly in higher:
                prev = coeffs.get(k - te)
                if prev is not None:
                    acc = acc - slice_poly * prev
            s = acc / d0
            if not s.is_zero:
                coeffs[k] = s
                out[Fraction(k, st)] = s
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
    (s,) = f._scale
    step = s * f_base

    def convert(terms) -> Terms:
        out: Terms = {}
        for (k,), c in terms:
            if k % step:
                raise NonIntegralExponentError(
                    f"exponent {Fraction(k, s)} of {f.var} is not an integer multiple of {f_base}"
                )
            out[(k // step,)] = c
        return out

    # a renaming of the variable keeps the pair coprime
    return FracPoly._make(("q",), (1,), convert(f._num), convert(f._den), reduced=True)


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
# variable order, then those of the coefficient, with the denominator's
# lex-least coefficient scaled to 1.

def to_json_obj(x) -> dict:
    if not isinstance(x, _RatFuncBase):
        raise TypeError(f"cannot serialize {type(x).__name__}")
    enc = lambda terms: [
        [n for q in (*k, c) for n in (q.numerator, q.denominator)] for k, c in terms.items()
    ]
    head = {"var": x.var} if isinstance(x, FracPoly) else {"vars": list(x._vars)}
    return {**head, "num": enc(x.num_terms), "den": enc(x.den_terms)}


def from_json_obj(obj: Mapping):
    def dec(rows, nvars: int) -> dict:
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
