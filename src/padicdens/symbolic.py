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

The gcd behind the coprime pair is the heuristic gcd of Char, Geddes and
Gonnet, on the same sparse int term maps: set the first variable to an
integer xi, take the gcd of the images (recursively, down to an integer
gcd), read a candidate off the balanced base-xi digits of its coefficients,
and keep the candidate's primitive part once trial division shows that it
divides both inputs; otherwise grow xi.  For xi > 2 min(|f|, |g|) + 2 a
candidate that divides both inputs is their gcd, and every xi past finitely
many unlucky ones yields it, so the result is exact and the loop ends.  The
block comment above ``_z_gcd`` gives both proofs.  The gcd also returns the
quotients of its trial division, the two cofactors, so cancelling a common
factor divides each operand once.  ``_cancel(a, b)`` always returns a pair:
those cofactors, (a/h, b/h) for h the gcd with its content (stretched back
from a coarser lattice), or (a, b) when either side has at most one term.
Each caller is correct for any common factor, so none tells the cases apart.

Every change of variables (x -> 1/x, t -> t^n, t = p^r, p -> q, p -> (p, t),
and p -> p^f, t -> t^(1/e) of a base change) is one call of
:meth:`_RatFuncBase.substitute`, a monomial map given by a matrix of
rational rows.  It skips the gcd exactly when the rows have full column
rank.  No other module reads the lattice.

The printed and serialized form is a bijective image of the stored one.  A
positive scale per axis keeps the lexicographic term order, so dividing each
exponent by its scale gives the exponents, in the same order, and the stored
coefficients, the integer pair with joint content 1, are the ones
:meth:`_RatFuncBase.render_pair` prints.  So printing walks the stored terms
in reverse, with no sort, and prints an exponent k on scale s as the int
k // s; it makes a Fraction only for a non-integral exponent.  Dividing the
coefficients by the lex-least denominator coefficient gives the Fraction
coefficients of ``num_terms``/``den_terms`` and of the JSON writer, in which
that coefficient is +1.

Sums are normalized once.  :func:`sum_of_products` adds the products
c * f_1 * ... * f_k of a list of terms; ``+`` and ``-`` are its two-term
cases, ``-`` with the coefficients 1 and -1.  The products are built
unreduced: numerators and denominators are multiplied on one lattice with no
gcd.  The terms are then added pairwise in a balanced tree, each addition
over a common denominator: for denominators d1 and d2 with gcd g, it takes
d1 (d2/g), one denominator gcd and no numerator gcd (Henrici, "A subroutine
for computations with rational numbers", J. ACM 3, 1956).  One full
reduction of the final pair gives the normal form, as for any other
arithmetic.  The tree matters: one running denominator for the
whole sum multiplies every term's numerator by a cofactor of that whole
denominator, and measured slower on the recursion's branch sums, where the
denominators of the terms share most of their factors.

Two concrete shapes are exposed: :class:`FracPoly` (one variable, default
``q``) and :class:`GenFun` (two variables, fixed ``p`` and ``t``).  All values
are immutable after construction and all operations are pure functions, so
values may be freely shared between threads.

There are two ways in, and both end in the same normalization.  The public
constructors parse: they accept scalars and mappings with int or Fraction
exponents and coefficients and convert them onto the lattice; a monomial
given by ints, and an int operand of arithmetic, skip the parse.  Arithmetic
and substitutions build through the internal ``_make``, which trusts its
scale and int term maps, and may be told that the pair is coprime so that the
gcd is skipped.  Fractions appear only at that boundary: in parsing Fraction
input, in ``num_terms``/``den_terms``, in ``evaluate`` and
``series_coefficients``, in printing a non-integral exponent and in the JSON
writer.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, isqrt, lcm
from operator import add, floordiv, mul, sub
from typing import Dict, Tuple, Union

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
# gcd over the integer exponent lattice: the heuristic gcd
# ---------------------------------------------------------------------------
#
# _z_gcd is the heuristic gcd GCDHEU of Char, Geddes and Gonnet (J. Symbolic
# Computation 7, 1989), on the sparse term maps used everywhere else.  Write
# f, g in Z[x, y] for nonzero inputs, x the first variable and y the others
# (possibly none), and |f| for the largest absolute coefficient of f.
#
#   * With no variable, the gcd is the integer gcd.
#   * Otherwise divide f and g by their integer contents, let c be the gcd of
#     the two contents, and start at xi = 2 min(|f|, |g|) + 3.
#   * Evaluate x = xi.  If f(xi) and g(xi) are both nonzero, take their gcd
#     gamma in Z[y] by recursion.  Lift it to the G in Z[x, y] whose
#     x-coefficients are the balanced base-xi digits, in (-xi/2, xi/2], of
#     gamma's coefficients, so that G(xi) = gamma.  Let P be the primitive
#     part of G with a positive leading coefficient.
#   * Return c P if P = 1 or if P divides both f and g (trial division).
#     Otherwise grow xi and repeat.  The cofactors returned with it are the
#     quotients of that trial division (f and g themselves for P = 1) times
#     cont(f)/c and cont(g)/c.
#
# Correctness.  Let f, g be primitive, h = gcd(f, g), say |g| <= |f|, so that
# xi >= 2|g| + 3, and suppose P divides f and g.  Then P divides h; write
# h = P D.  Now h(xi) divides f(xi) and g(xi), hence also their gcd, which
# the recursion computes exactly (by induction on the number of variables):
# gamma = G(xi) = cont(G) P(xi).  So D(xi) divides cont(G): an integer,
# nonzero, and at most xi/2 in absolute value because it divides a digit.  Cauchy's bound puts every complex root
# of a nonzero integer polynomial u at absolute value at most 1 + |u|.  So
# lc_y(g), the leading coefficient of g in y (lexicographic order), a
# polynomial in x with |lc_y(g)| <= |g|, does not vanish at xi > 1 + |g|.
# Since D divides g, lc_y(D) does not vanish at xi either, so D(xi) keeps
# the leading y-monomial of D; D(xi) is constant, so D is y-free.  Then every
# root a of D is a root of lc_y(g), so |xi - a| >= xi - 1 - |g| >= (xi + 1)/2,
# and a D of positive degree would have |D(xi)| > xi/2 >= |cont(G)|.  So D is
# an integer, D = +-1 because h is primitive, P = h, and by Gauss's lemma
# c h is the gcd of the inputs.  P = 1 divides anything, so the shortcut for
# a constant P is the same test.
#
# Termination.  Write f = h F and g = h H with F, H coprime.  Where f(xi)
# and g(xi) are nonzero, gamma = +-h(xi) Delta with Delta = gcd(F(xi), H(xi)).  If F and H are both
# x-free, Delta = 1.  Otherwise S = Res_x(F, H) in Z[y] is nonzero and
# A F + B H = S for some A, B in Z[x, y], so Delta divides S at every xi.  An
# irreducible factor r of S of positive y-degree divides F(xi) and H(xi) for
# finitely many xi only: it does not divide both F and H, and if it does not
# divide F, then F mod r is a nonzero polynomial in x over the domain
# Z[y]/(r), with finitely many roots.  f(xi) or g(xi) vanishes for finitely
# many xi as well.  Past all of these, Delta is an integer that divides the
# content of S, a bound independent of xi.  Once xi > 2 cont(S) |h|, every
# coefficient of Delta h lies in (-xi/2, xi/2), so by the uniqueness of the
# digits G = +-Delta h, P = h, and the trial division succeeds.  xi grows
# without bound, so the loop ends; it needs no iteration cap.

def _eval_first(f: Terms, xi: int) -> Terms:
    """f at first variable = xi, a term map on the other variables."""
    out: Terms = {}
    get = out.get
    for k, v in f.items():
        rest = k[1:]
        out[rest] = get(rest, 0) + v * xi ** k[0]
    return {k: v for k, v in out.items() if v}


def _lift(image: Terms, xi: int) -> Terms:
    """The polynomial whose first-variable coefficients are the balanced
    base-xi digits, in (-xi/2, xi/2], of the coefficients of image."""
    half = xi // 2
    out: Terms = {}
    for k, v in image.items():
        i = 0
        while v:
            d = v % xi
            if d > half:
                d -= xi
            if d:
                out[(i, *k)] = d
            v = (v - d) // xi
            i += 1
    return out


def _z_gcd(f: Terms, g: Terms) -> Tuple[Terms, Terms, Terms]:
    """(h, f/h, g/h): h the gcd, content included, of two nonzero int term
    maps with nonnegative exponents, and the two cofactors; the heuristic gcd
    of the block comment above."""
    if not next(iter(f)):  # no variables left
        h = gcd(f[()], g[()])
        return {(): h}, {(): f[()] // h}, {(): g[()] // h}
    cf = gcd(*f.values())
    cg = gcd(*g.values())
    c = gcd(cf, cg)
    f = {k: v // cf for k, v in f.items()}
    g = {k: v // cg for k, v in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 3
    while True:
        fx = _eval_first(f, xi)
        gx = _eval_first(g, xi)
        if fx and gx:
            cand = _lift(_z_gcd(fx, gx)[0], xi)
            content = gcd(*cand.values())
            if cand[max(cand)] < 0:
                content = -content
            cand = {k: v // content for k, v in cand.items()}
            if len(cand) == 1 and not any(next(iter(cand))):
                fq, gq = f, g  # P = 1 divides both
            else:
                fq = _sparse_divexact(f, cand)
                gq = None if fq is None else _sparse_divexact(g, cand)
            if gq is not None:
                return _t_scale(cand, c), _t_scale(fq, cf // c), _t_scale(gq, cg // c)
        # sympy's growth, about 2.73 xi^(5/4): on the d <= 6 catalogs no call
        # needs more than five values of xi, where doubling needed up to 21
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def _cancel(a: Terms, b: Terms) -> Tuple[Terms, Terms]:
    """(a/h, b/h) for h the gcd, content included, of two int term maps with
    nonnegative exponents; (a, b) when either has at most one term."""
    if len(a) <= 1 or len(b) <= 1:
        return a, b
    # the coarsest lattice holding both: divide each axis by the gcd of its
    # exponents (x -> x^k commutes with the gcd and with exact division)
    steps = tuple(gcd(*col) or 1 for col in zip(*a, *b))
    if all(s == 1 for s in steps):
        return _z_gcd(a, b)[1:]
    down = lambda t: {tuple(map(floordiv, k, steps)): v for k, v in t.items()}
    _, a, b = _z_gcd(down(a), down(b))
    return _t_stretch(a, steps), _t_stretch(b, steps)


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
        num, den = _cancel(num, den)
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


@lru_cache(maxsize=1024)
def _lattice_map(scale: Scale, rows: Tuple[Tuple[Scalar, ...], ...]):
    """(target scale, int rows, injective, identity) of substitute's map on
    this lattice: on the target scale S_j, the lcm of s_i * den(rows[j][i]),
    a stored exponent k_i (meaning k_i / s_i) adds the int
    k_i * rows[j][i] * S_j / s_i.  The map is injective when the columns are
    independent (fraction-free elimination)."""
    target = tuple(lcm(*(s * r.denominator for s, r in zip(scale, row) if r)) for row in rows)
    coef = tuple(
        tuple(r.numerator * (S // (s * r.denominator)) for s, r in zip(scale, row))
        for S, row in zip(target, rows)
    )
    unit = tuple(tuple(int(i == j) for i in range(len(scale))) for j in range(len(scale)))
    identity = target == scale and coef == unit
    cols = [list(c) for c in zip(*coef)]
    for i, c in enumerate(cols):
        j = next((j for j, x in enumerate(c) if x), None)
        if j is None:
            return target, coef, False, False
        for d in cols[i + 1:]:
            d[:] = [c[j] * y - d[j] * x for x, y in zip(c, d)]
    return target, coef, True, identity


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


def _render(terms, names: Tuple[str, ...], scale: Scale) -> str:
    """Stored terms, walked in reverse, as text; an exponent k on scale s
    prints as the int k // s when s divides k, else as the Fraction k / s."""
    parts = []
    for k, coeff in reversed(terms):
        mono = "*".join(
            n if e == s else (f"{n}^{e // s}" if e % s == 0 else f"{n}^({Fraction(e, s)})")
            for n, e, s in zip(names, k, scale)
            if e
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

    __slots__ = ("_vars", "_scale", "_num", "_den")

    def _init(
        self, vars: Tuple[str, ...], scale: Scale, num: Terms, den: Terms, reduced: bool = False
    ):
        scale, n, d = _normalize_pair(num, den, scale, reduced)
        object.__setattr__(self, "_vars", vars)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_num", tuple(sorted(n.items())))
        object.__setattr__(self, "_den", tuple(sorted(d.items())))

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
        """coeff * prod x_i^exps[i]; int input goes onto the lattice as it
        is, Fraction input is parsed."""
        n = len(vars)
        if type(coeff) is int and all(type(e) is int for e in exps):
            num = {exps: coeff} if coeff else {}
            return cls._make(vars, (1,) * n, num, {(0,) * n: 1}, reduced=True)
        exps = tuple(Fraction(e) for e in exps)
        c = Fraction(coeff)
        num = {tuple(e.numerator for e in exps): c.numerator} if c else {}
        den = {(0,) * n: c.denominator}
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
        zero = (0,) * len(self._vars)
        if all(k == zero for k, _ in self._num + self._den):
            # a constant hashes like the Fraction it equals
            return hash(Fraction(self._num[0][1] if self._num else 0, self._den[0][1]))
        return hash((self._vars, self._scale, self._num, self._den))

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

    def _on(self, scale: Scale) -> Tuple[Terms, Terms]:
        """The numerator and denominator term maps on a lattice scale that
        refines this value's."""
        if scale == self._scale:
            return dict(self._num), dict(self._den)
        factors = tuple(map(floordiv, scale, self._scale))
        return _t_stretch(dict(self._num), factors), _t_stretch(dict(self._den), factors)

    def _aligned(self, o):
        """(scale, n1, d1, n2, d2): the term maps of self and o as dicts on one
        lattice, the lcm of the two scales."""
        scale = tuple(map(lcm, self._scale, o._scale))
        return (scale, *self._on(scale), *o._on(scale))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sum_of_products(((1, (self,)), (1, (o,))), self._coerce(0))

    __radd__ = __add__

    def __neg__(self):
        # negation keeps a normalized pair normalized
        return self._like(self._scale, _t_neg(dict(self._num)), dict(self._den), reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sum_of_products(((1, (self,)), (-1, (o,))), self._coerce(0))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sum_of_products(((1, (o,)), (-1, (self,))), self._coerce(0))

    def _cross_reduced_product(self, scale, n1, d1, n2, d2):
        """(n1/d1) * (n2/d2) for normalized operands on one lattice: after
        cancelling the two cross gcds the product pair is coprime, so
        normalization skips the gcd."""
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
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

    def substitute(self, vars: Tuple[str, ...], rows) -> "_RatFuncBase":
        """The monomial change of variables of the matrix rows (int or
        Fraction entries, one column per variable of self): the exponent
        vector e goes to the vector with entries sum_i rows[j][i] e_i, over
        the variables vars; one row gives a FracPoly, two a GenFun.

        The identity returns self.  Equal images merge and zero sums drop; a
        collapsed denominator raises ZeroDivisionError.  Rows of full column
        rank skip the gcd: the ring map is then injective and the Laurent
        ring of vars is free over its image (a basis monomial per coset of
        the image lattice), hence flat, and flatness keeps (f) and (g)
        meeting in (fg); in these factorial rings, a coprime pair stays
        coprime.
        """
        scale, coef, injective, identity = _lattice_map(self._scale, tuple(map(tuple, rows)))
        if identity and vars == self._vars:
            return self

        def image(terms) -> Terms:
            out: Terms = {}
            get = out.get
            keys = zip(*[[sum(map(mul, c, k)) for k, _ in terms] for c in coef])
            for key, (_, v) in zip(keys, terms):
                out[key] = get(key, 0) + v
            return {k: v for k, v in out.items() if v}

        cls = FracPoly if len(rows) == 1 else GenFun
        return cls._make(vars, scale, image(self._num), image(self._den), injective)

    def subs_inverse(self) -> "_RatFuncBase":
        """Replace every variable x by 1/x (exponent negation)."""
        n = len(self._vars)
        return self.substitute(self._vars, [[-(i == j) for i in range(n)] for j in range(n)])

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

    def render_pair(self) -> Tuple[str, str]:
        """The printed numerator and denominator: int coefficients of joint
        content 1, terms from the highest exponent down."""
        names, scale = self._vars, self._scale
        return _render(self._num, names, scale), _render(self._den, names, scale)

    def __str__(self):
        ns, ds = self.render_pair()
        return ns if ds == "1" else f"({ns}) / ({ds})"


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
        """t -> t^n on both numerator and denominator."""
        if n <= 0:
            raise ValueError("power substitution needs a positive integer")
        return self.substitute(self.VARS, [[1, 0], [0, n]])

    def eval_t_as_p_power(self, r: Scalar) -> FracPoly:
        """Substitute t = p^r, collapsing to a univariate function of p.

        Exponents may be non-integers of p at this stage.
        """
        return self.substitute(("p",), [[1, r]])

    def min_t_exponent(self) -> Fraction:
        """Order of vanishing in t at t = 0."""
        if self.is_zero:
            raise ValueError("zero has no minimal exponent")
        low = lambda terms: min(k[1] for k, _ in terms)
        return Fraction(low(self._num) - low(self._den), self._scale[1])

    def series_coefficients(self, c_max: Scalar, p: Scalar) -> Dict[Fraction, Fraction]:
        """Power-series coefficients in t up to exponent c_max, at the point p.

        Returns {t-exponent c: nonzero coefficient at p}.  Evaluates each
        t-slice of numerator and denominator at p, then runs the recurrence
        on Fractions.  Requires integer p-exponents, as :meth:`evaluate`
        does, and a t^0 part of the denominator that is nonzero at p.
        """
        sp, st = self._scale
        p = Fraction(p)

        def slices(terms) -> Dict[int, Fraction]:
            out: Dict[int, Fraction] = {}
            for (pe, te), c in terms:
                if pe % sp:
                    raise NonIntegralExponentError(
                        f"cannot evaluate fractional exponent {Fraction(pe, sp)} numerically"
                    )
                out[te] = out.get(te, 0) + c * p ** (pe // sp)
            return out

        num, den = slices(self._num), slices(self._den)
        d0 = den.pop(0, 0)
        if not d0:
            raise NoSeriesExpansionError(f"denominator vanishes at t = 0, p = {p}")
        coeffs: Dict[int, Fraction] = {}
        for k in range(floor(Fraction(c_max) * st) + 1):  # t-exponents run over k / st
            s = num.get(k, 0) - sum(v * coeffs.get(k - te, 0) for te, v in den.items())
            if s:
                coeffs[k] = s / d0
        return {Fraction(k, st): s for k, s in coeffs.items()}

    def __repr__(self):
        return f"GenFun({self})"


# ---------------------------------------------------------------------------
# operation surface
# ---------------------------------------------------------------------------

def rewrite_in_q(f: FracPoly) -> FracPoly:
    """Rename p to q.

    Every exponent of the normalized numerator and denominator must be an
    integer; this operationalizes the rationality guarantee and raises
    NonIntegralExponentError otherwise.
    """
    if f._scale != (1,):
        raise NonIntegralExponentError(f"{f} has a non-integer exponent of {f.var}")
    return f.substitute(("q",), [[1]])


def sum_of_products(terms, zero):
    """The sum of c * f_1 * ... * f_k over the (int c, [f_1, ..., f_k])
    terms, each f_i a value of zero's shape, normalized once; zero for an
    empty sum.

    Every factor goes onto one lattice, the lcm of the scales, and a term's
    numerators and denominators are multiplied with no cross-cancel.  The
    terms are then added pairwise, in a balanced tree, each addition over
    the common denominator of its two halves (_add_pairs), and the one
    reduction in _make yields the canonical form (module docstring, "Sums").
    """
    terms = [(c, factors) for c, factors in terms if c]
    scale = zero._scale
    for _, factors in terms:
        for f in factors:
            scale = tuple(map(lcm, scale, f._scale))
    origin = (0,) * len(scale)
    pairs = []
    for c, factors in terms:
        num, den = {origin: c}, {origin: 1}
        for f in factors:
            n, d = f._on(scale)
            num, den = _t_mul(num, n), _t_mul(den, d)
        if num:
            pairs.append((num, den))
    if not pairs:
        return zero
    while len(pairs) > 1:
        pairs = [
            _add_pairs(*pairs[i : i + 2]) if i + 1 < len(pairs) else pairs[i]
            for i in range(0, len(pairs), 2)
        ]
    return zero._make(zero._vars, scale, *pairs[0])


def _add_pairs(a, b):
    """n1/d1 + n2/d2 of unreduced (num, den) pairs on one lattice: with
    g = gcd(d1, d2), (n1 (d2/g) + n2 (d1/g)) / (d1 (d2/g)), unreduced."""
    (n1, d1), (n2, d2) = a, b
    d1r, d2r = _cancel(d1, d2)
    return _t_add(_t_mul(n1, d2r), _t_mul(n2, d1r)), _t_mul(d1, d2r)


def check_inversion_symmetry(f):
    """Decide f(x) == f(1/x) exactly (x = the single variable, or (p, t)).

    Returns (holds, witness) where witness is the difference f - f(1/x);
    the witness is zero exactly when the symmetry holds.  Normal forms are
    canonical, so equality decides, and the difference is only computed
    when it is not zero.
    """
    inverse = f.subs_inverse()
    if f == inverse:
        return True, f._coerce(0)
    return False, f - inverse


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


def dumps(x) -> str:
    return json.dumps(to_json_obj(x), sort_keys=True, separators=(",", ":"))

