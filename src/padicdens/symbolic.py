"""Exact sparse Laurent / rational-function arithmetic over the rationals.

Exponents are rationals, so objects like t^(1/2) are first class;
integrality is only asserted where it is mathematically required (see
:func:`rewrite_in_q`).

Values are stored on an integer lattice.  Each value keeps one positive int
``_scale`` per variable: the stored int exponent k on axis i means the
exponent k / _scale[i].  Numerator and denominator are term maps: dicts
from an int key to a nonzero int coefficient, one int key per vector of
stored exponents (the block comment "exponent keys" below): the exponent
itself on one axis, e_p * 2^32 + e_t on two.  Keys add as the vectors do and
sort as they sort lexicographically.  The normal form is canonical:

  * each axis scale is minimal: the lcm of the denominators of the exponents
    that occur on that axis,
  * the minimum exponent of each variable across numerator and denominator is
    zero (no shared monomial factor, Laurent part cleared),
  * numerator and denominator share no polynomial factor (full gcd reduction),
  * the joint integer content of numerator and denominator is 1,
  * the lexicographically least term of the denominator is positive.

Two values built along different arithmetic paths from the same rational
function therefore compare equal with ``==``, and a constant value equals,
and hashes like, its Fraction.  A term map's insertion order carries no
meaning: values compare as dicts, and hash their items in no order.

No function here writes to a term map it is given; _t_add and
_sparse_divexact copy theirs before they update it.  So a value hands its
own term maps to the kernels uncopied, and a value built from them, such as
its negation, may share them.

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
:meth:`_RatFuncBase.render_pair` prints.  Term order is made only here, on
output: printing sorts the keys from the highest down, and prints an
exponent k on scale s as the int k // s; it makes a Fraction only for a
non-integral exponent.  Dividing the coefficients by the lex-least
denominator coefficient gives the Fraction coefficients of
``num_terms``/``den_terms`` and of the JSON writer, in which that
coefficient is +1; they list the terms from the lowest key up.

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

Values are built in two ways, and both end in the same normalization.  The
public constructors take scalars and mappings with int or Fraction exponents
and coefficients, and put them onto the lattice along one route, ``_parse``;
an int has a numerator and a denominator just as a Fraction does, so int
input builds no Fraction.  A monomial and a scalar operand of arithmetic
are read the same way, with no mapping to walk (``_monomial``).  Arithmetic
and substitutions build through the internal ``_make``, which trusts its
scale and int term maps, and may be told that the pair is coprime so that
the gcd is skipped.  Fractions appear only at that boundary: in parsing
non-int input, in ``num_terms``/``den_terms``, in ``evaluate`` and
``series_coefficients``, in printing a non-integral exponent and in the JSON
writer.

A value is read at a number along one route, the gcd's ``_eval_first``:
``evaluate`` sets every variable, p first, and ``series_coefficients`` sets
p, leaving the t-slices of its recurrence.  Both first check integrality on
the scale alone (``_require_integral``, shared with :func:`rewrite_in_q`),
since a minimal scale above 1 means a fractional exponent on its axis.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import floor, gcd, isqrt, lcm
from operator import add, and_, floordiv, mul, rshift
from typing import Dict, Tuple, Union

from .errors import (
    NonIntegralExponentError,
    NoSeriesExpansionError,
)

# Sparse term maps on the lattice: int key of an exponent vector -> nonzero
# int coefficient (see "exponent keys" below).
Exp = Tuple[int, ...]
Terms = Dict[int, int]
Scale = Tuple[int, ...]

Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# exponent keys
# ---------------------------------------------------------------------------
#
# A term map keys each exponent vector by one int.  With one axis the key is
# the exponent; with two, (e_p, e_t) has the key e_p * 2^32 + e_t.  The gcd's
# integer images have no axis, and key their one term by 0.  While
# |e_t| < 2^31 the key determines the vector, e_p = (k + 2^31) >> 32 and
# e_t = ((k + 2^31) & (2^32 - 1)) - 2^31, keys add as the vectors do, and keys
# compare as the vectors compare lexicographically; for e_t >= 0 the decoding
# is e_p = k >> 32 and e_t = k & (2^32 - 1).  So sums, the term order, max,
# sorted and the leading terms are the same on keys as on vectors.  e_p is an
# unbounded int: only a t-exponent out of range could carry into it.
#
# No t-exponent leaves the range silently.  Every term map below the normal
# form has nonnegative exponents (a normal form has exponent minimum 0 on each
# axis), and a key is built in only these ways:
#   * from a vector (_pack, and substitute's image), which checks e_t;
#   * by stretching (_t_stretch), which checks the stretched e_t;
#   * by _normalize_pair's shift, which checks the span when it raises an
#     exponent (a negative minimum, from Laurent input);
#   * by lowering exponents: _t_shrink, and _normalize_pair's shift when
#     every minimum is nonnegative;
#   * in the gcd, where _eval_first drops the first axis, _lift puts back a
#     t-exponent of the image gcd, at most the t-degree of the inputs, and
#     _sparse_divexact keeps every key within its dividend's t-degree;
#   * by products (_t_mul).  For a pair n/d let T be the larger t-degree of n
#     and d.  The t-degree of a product is the sum of the t-degrees of its
#     factors, and a cofactor d2/g has at most the t-degree of d2.  So T of a
#     product of pairs is at most the sum of their T, and so is T of the sum
#     n1 (d2/g) + n2 (d1/g) over d1 (d2/g), and of every product and gcd
#     input inside it.  The sum of T over the factors thus bounds every
#     intermediate of sum_of_products (its products and _add_pairs) and of
#     _cross_reduced_product, and both check that sum before any key of a
#     product is read.  It is a bound: a sum of many terms can fail the check
#     with a value that would fit.
# A check past the range raises OverflowError.

_SHIFT = 32
_HALF = 1 << (_SHIFT - 1)
_MASK = (1 << _SHIFT) - 1


def _check_t(e: int) -> None:
    if e >= _HALF:
        raise OverflowError(f"t-exponent {e} is past the key range, |e| < 2^{_SHIFT - 1}")


def _pack(exps: Exp) -> int:
    """The key of an exponent vector of one or two int components; raises
    OverflowError for a t-exponent out of the key range."""
    if len(exps) == 1:
        return exps[0]
    p, t = exps
    _check_t(abs(t))
    return (p << _SHIFT) + t


def _unpack(key: int, nvars: int) -> Exp:
    """The exponent vector of a key on nvars (one or two) axes:
    _unpack(_pack(e), len(e)) == e."""
    if nvars == 1:
        return (key,)
    key += _HALF
    return key >> _SHIFT, (key & _MASK) - _HALF


def _lows(keys):
    """The t-exponents of two-axis keys with nonnegative exponents."""
    return map(and_, keys, repeat(_MASK))


def _highs(keys):
    """The p-exponents of two-axis keys with nonnegative exponents."""
    return map(rshift, keys, repeat(_SHIFT))


def _vectors(keys, nvars: int):
    """The exponent vectors of keys, a sequence or a term map, with
    nonnegative exponents."""
    return zip(keys) if nvars == 1 else zip(_highs(keys), _lows(keys))


def _combine(row, cols):
    """The exponents sum_i row[i] * cols[i], entry by entry, of the int row
    over the exponent columns cols (one per axis)."""
    parts = [col if c == 1 else list(map(c.__mul__, col)) for c, col in zip(row, cols) if c]
    if not parts:
        return [0] * len(cols[0])
    return list(map(add, *parts)) if len(parts) == 2 else parts[0]


def _t_degree(num: Terms, den: Terms) -> int:
    """T of a two-axis pair with nonnegative exponents: the larger t-degree
    of num and den (num may be empty)."""
    return max(_lows(chain(num, den)))


# ---------------------------------------------------------------------------
# sparse term helpers
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
            k = ka + kb
            out[k] = get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _t_shift(a: Terms, shift: int) -> Terms:
    return dict(zip(map(shift.__add__, a), a.values()))


def _t_stretch(a: Terms, factors: Exp) -> Terms:
    """Every exponent of a (nonnegative) multiplied, axis by axis, by
    factors; checks the t-exponents it builds."""
    if len(factors) == 1:
        f = factors[0]
        return {k * f: v for k, v in a.items()}
    fp, ft = factors
    if ft != 1 and a:
        _check_t(max(_lows(a)) * ft)
    return {((k >> _SHIFT) * fp << _SHIFT) + (k & _MASK) * ft: v for k, v in a.items()}


def _t_shrink(a: Terms, steps: Exp) -> Terms:
    """Every exponent of a (nonnegative) divided, axis by axis, by steps,
    which divide them."""
    if len(steps) == 1:
        s = steps[0]
        return {k // s: v for k, v in a.items()}
    sp, st = steps
    return {((k >> _SHIFT) // sp << _SHIFT) + (k & _MASK) // st: v for k, v in a.items()}


def _t_scale(a: Terms, c: int) -> Terms:
    if c == 1:
        return a
    return {k: v * c for k, v in a.items()}


def _axis_gcds(keys, nvars: int) -> Exp:
    """The gcd of each axis's exponents over keys (nonnegative exponents)."""
    if nvars == 1:
        return (gcd(*keys),)
    return gcd(*_highs(keys)), gcd(*_lows(keys))


def _sparse_divexact(a: Terms, b: Terms, bits: int) -> Terms | None:
    """Exact division of integer polynomials (nonnegative exponents), or None
    when b does not divide a with an integral quotient; bits is the width of
    the axes after the first in a key, 32 on two axes and 0 on one.

    For a primitive b that is the same as division over Q (Gauss's lemma: a
    quotient over Q of an integral a by a primitive b is integral).  Keys
    sort as the vectors do lexicographically; exact quotients always reduce
    the leading term, so the division terminates.  A quotient term with a
    t-exponent past deg_t(a) - deg_t(b) belongs to no exact quotient, so the
    division stops there, and every key of the remainder keeps a t-exponent
    of at most deg_t(a).
    """
    if not a:
        return {}
    lead_b = max(b)
    cb = b[lead_b]
    room = max(_lows(a)) - max(_lows(b)) if bits else 0
    mask = (1 << bits) - 1
    out: Terms = {}
    rem = dict(a)
    while rem:
        lead_a = max(rem)
        shift = lead_a - lead_b
        # a negative t-part of the shift reads as at least 2^31 > room
        if shift < 0 or shift & mask > room:
            return None
        c, r = divmod(rem[lead_a], cb)
        if r:
            return None
        out[shift] = c
        for k, v in b.items():
            kk = k + shift
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
# The leading coefficient is the one of the largest key, the lexicographic
# leading term.
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

def _eval_first(f: Terms, xi: Scalar, bits: int) -> Terms:
    """f at first variable = xi, a term map on the other variables (bits as
    in _sparse_divexact).  xi is an int in the gcd; evaluate and
    series_coefficients pass an int or a Fraction."""
    if not bits:
        value = sum(map(mul, f.values(), map(pow, repeat(xi), f)))
        return {0: value} if value else {}
    out: Terms = {}
    get = out.get
    powers = map(pow, repeat(xi), _highs(f))
    for rest, v in zip(_lows(f), map(mul, f.values(), powers)):
        out[rest] = get(rest, 0) + v
    return {k: v for k, v in out.items() if v}


def _lift(image: Terms, xi: int, bits: int) -> Terms:
    """The polynomial whose first-variable coefficients are the balanced
    base-xi digits, in (-xi/2, xi/2], of the coefficients of image (bits as
    in _sparse_divexact)."""
    half = xi // 2
    radix = 1 << bits
    out: Terms = {}
    for k, v in image.items():
        while v:
            d = v % xi
            if d > half:
                d -= xi
            if d:
                out[k] = d
            v = (v - d) // xi
            k += radix
    return out


def _z_gcd(f: Terms, g: Terms, nvars: int) -> Tuple[Terms, Terms, Terms]:
    """(h, f/h, g/h): h the gcd, content included, of two nonzero int term
    maps on nvars axes with nonnegative exponents, and the two cofactors; the
    heuristic gcd of the block comment above."""
    if not nvars:
        h = gcd(f[0], g[0])
        return {0: h}, {0: f[0] // h}, {0: g[0] // h}
    bits = _SHIFT if nvars == 2 else 0
    cf = gcd(*f.values())
    cg = gcd(*g.values())
    c = gcd(cf, cg)
    f = {k: v // cf for k, v in f.items()}
    g = {k: v // cg for k, v in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 3
    while True:
        fx = _eval_first(f, xi, bits)
        gx = _eval_first(g, xi, bits)
        if fx and gx:
            cand = _lift(_z_gcd(fx, gx, nvars - 1)[0], xi, bits)
            content = gcd(*cand.values())
            if cand[max(cand)] < 0:
                content = -content
            cand = {k: v // content for k, v in cand.items()}
            if len(cand) == 1 and 0 in cand:
                fq, gq = f, g  # P = 1 divides both
            else:
                fq = _sparse_divexact(f, cand, bits)
                gq = None if fq is None else _sparse_divexact(g, cand, bits)
            if gq is not None:
                return _t_scale(cand, c), _t_scale(fq, cf // c), _t_scale(gq, cg // c)
        # sympy's growth, about 2.73 xi^(5/4): on the d <= 6 catalogs no call
        # needs more than five values of xi, where doubling needed up to 21
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def _cancel(a: Terms, b: Terms, nvars: int) -> Tuple[Terms, Terms]:
    """(a/h, b/h) for h the gcd, content included, of two int term maps on
    nvars axes with nonnegative exponents; (a, b) when either has at most one
    term."""
    if len(a) <= 1 or len(b) <= 1:
        return a, b
    # the coarsest lattice holding both: divide each axis by the gcd of its
    # exponents (x -> x^k commutes with the gcd and with exact division)
    steps = tuple(s or 1 for s in _axis_gcds([*a, *b], nvars))
    if all(s == 1 for s in steps):
        return _z_gcd(a, b, nvars)[1:]
    _, a, b = _z_gcd(_t_shrink(a, steps), _t_shrink(b, steps), nvars)
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
        return (1,) * nvars, {}, {0: 1}
    least = min(min(num), min(den))  # the key of the least vector: its e_p is least
    if nvars == 1:
        shift = -least
    else:
        # e_t + 2^31 of every key, in [0, 2^32)
        lows = [(k + _HALF) & _MASK for k in chain(num, den)]
        t_min = min(lows) - _HALF
        if t_min < 0:
            _check_t(max(lows) - _HALF - t_min)
        shift = -((((least + _HALF) >> _SHIFT) << _SHIFT) + t_min)
    if shift:
        num = _t_shift(num, shift)
        den = _t_shift(den, shift)
    if not reduced:
        num, den = _cancel(num, den, nvars)
    content = gcd(*num.values(), *den.values())
    if den[min(den)] < 0:
        content = -content
    if content != 1:
        num = {k: v // content for k, v in num.items()}
        den = {k: v // content for k, v in den.items()}
    if any(s != 1 for s in scale):
        steps = tuple(map(gcd, scale, _axis_gcds([*num, *den], nvars)))
        if any(s != 1 for s in steps):
            num = _t_shrink(num, steps)
            den = _t_shrink(den, steps)
            scale = tuple(map(floordiv, scale, steps))
    return scale, num, den


@lru_cache(maxsize=1024)
def _lattice_map(scale: Scale, rows: Tuple[Tuple[Scalar, ...], ...]):
    """(target scale, int rows, injective, identity) of substitute's map on
    this lattice of one or two axes, to one or two rows: on the target scale
    S_j, the lcm of s_i * den(rows[j][i]), a stored exponent k_i (meaning
    k_i / s_i) adds the int k_i * rows[j][i] * S_j / s_i.  The map is
    injective when the int rows have rank len(scale): on one axis some entry
    is nonzero, on two the two rows have a nonzero determinant.  It is the
    identity when the int rows are the identity rows of one or two axes and
    the target is the scale."""
    target = tuple(lcm(*(s * r.denominator for s, r in zip(scale, row) if r)) for row in rows)
    coef = tuple(
        tuple(r.numerator * (S // (s * r.denominator)) for s, r in zip(scale, row))
        for S, row in zip(target, rows)
    )
    if len(scale) == 1:
        injective = any(row[0] for row in coef)
    else:
        injective = len(coef) == 2 and coef[0][0] * coef[1][1] != coef[0][1] * coef[1][0]
    return target, coef, injective, target == scale and coef in (((1,),), ((1, 0), (0, 1)))


def _rational(x) -> Scalar:
    """x as an int or a Fraction, either of which has a numerator and a
    denominator."""
    return x if type(x) is int else Fraction(x)


def _parse(num, den, nvars: int) -> Tuple[Scale, Terms, Terms]:
    """Constructor input on the lattice: (scale, num, den) with int exponents
    and int coefficients, before normalization.  num and den are each a
    scalar or a {exponent(s): coefficient} mapping."""
    sides = []
    for spec in (num, den):
        if isinstance(spec, (int, Fraction)):
            spec = {(0,) * nvars: spec}
        side: Dict[Tuple[Scalar, ...], Scalar] = {}
        for k, c in spec.items():
            if not isinstance(k, tuple):
                k = (k,)
            if len(k) != nvars:
                raise ValueError(f"expected {nvars} exponents per term, got {k!r}")
            k = tuple(map(_rational, k))
            side[k] = side.get(k, 0) + _rational(c)
        sides.append({k: c for k, c in side.items() if c})
    num, den = sides
    scale = tuple(lcm(*(e.denominator for e in col)) for col in zip(*num, *den))
    m = lcm(*(c.denominator for c in (*num.values(), *den.values())))
    conv = lambda terms: {
        _pack(tuple(e.numerator * (s // e.denominator) for e, s in zip(k, scale))):
            c.numerator * (m // c.denominator)
        for k, c in terms.items()
    }
    return scale, conv(num), conv(den)


def _render(terms: Terms, names: Tuple[str, ...], scale: Scale) -> str:
    """A term map as text, from the highest key down; an exponent k on scale
    s prints as the int k // s when s divides k, else as the Fraction k / s."""
    if not terms:
        return "0"
    keys, coeffs = zip(*sorted(terms.items(), reverse=True))
    parts = []
    for exps, coeff in zip(_vectors(keys, len(names)), coeffs):
        mono = "*".join(
            n if e == s else (f"{n}^{e // s}" if e % s == 0 else f"{n}^({Fraction(e, s)})")
            for n, e, s in zip(names, exps, scale)
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
    return " ".join(parts)


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
        object.__setattr__(self, "_num", n)
        object.__setattr__(self, "_den", d)

    @classmethod
    def _make(
        cls, vars: Tuple[str, ...], scale: Scale, num: Terms, den: Terms, reduced: bool = False
    ):
        """The value num/den from int term maps on the lattice scale, with no
        zero coefficient; nothing is parsed, and the value may keep num and
        den themselves.  With reduced=True the caller vouches that num and
        den are coprime."""
        self = object.__new__(cls)
        self._init(vars, scale, num, den, reduced)
        return self

    @classmethod
    def _monomial(cls, vars: Tuple[str, ...], exps: Tuple[Scalar, ...], coeff: Scalar):
        """coeff * prod x_i^exps[i], read through the numerators and
        denominators of _rational, so int input builds no Fraction."""
        exps = tuple(map(_rational, exps))
        c = _rational(coeff)
        num = {_pack(tuple(e.numerator for e in exps)): c.numerator} if c else {}
        den = {0: c.denominator}
        return cls._make(vars, tuple(e.denominator for e in exps), num, den, reduced=True)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return self._make, (self._vars, self._scale, self._num, self._den, True)

    # -- raw access -----------------------------------------------------

    def _exps(self, k: int) -> Tuple[Fraction, ...]:
        return tuple(Fraction(e, s) for e, s in zip(_unpack(k, len(self._scale)), self._scale))

    def _fraction_terms(self, terms: Terms) -> Dict[Tuple[Fraction, ...], Fraction]:
        """terms, from the lowest key up, with Fraction exponents and
        coefficients over the lex-least denominator coefficient."""
        lead = self._den[min(self._den)]
        return {self._exps(k): Fraction(c, lead) for k, c in sorted(terms.items())}

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
        num, den = self._num, self._den
        if not any(num) and not any(den):
            # every key is 0: a constant hashes like the Fraction it equals
            return hash(Fraction(num.get(0, 0), den[0]))
        return hash((self._vars, self._scale, frozenset(num.items()), frozenset(den.items())))

    # -- arithmetic -------------------------------------------------------

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
            return self._num, self._den
        factors = tuple(map(floordiv, scale, self._scale))
        return _t_stretch(self._num, factors), _t_stretch(self._den, factors)

    def _aligned(self, o):
        """(scale, n1, d1, n2, d2): the term maps of self and o on one
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
        return self._make(self._vars, self._scale, _t_neg(self._num), self._den, reduced=True)

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
        normalization skips the gcd.  Checks the key range (T of the
        "exponent keys" comment)."""
        nvars = len(scale)
        if nvars == 2:
            _check_t(_t_degree(n1, d1) + _t_degree(n2, d2))
        n1, d2 = _cancel(n1, d2, nvars)
        n2, d1 = _cancel(n2, d1, nvars)
        return self._make(self._vars, scale, _t_mul(n1, n2), _t_mul(d1, d2), reduced=True)

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

        def image(terms: Terms) -> Terms:
            if not terms:
                return {}
            cols = (terms,) if len(self._scale) == 1 else (list(_highs(terms)), list(_lows(terms)))
            exps = [_combine(row, cols) for row in coef]
            if len(exps) == 2:
                ps, ts = exps
                _check_t(max(map(abs, ts)))
                exps = [list(map(add, map(_SHIFT.__rlshift__, ps), ts))]
            if injective:
                return dict(zip(exps[0], terms.values()))
            out: Terms = {}
            get = out.get
            for key, v in zip(exps[0], terms.values()):
                out[key] = get(key, 0) + v
            return {k: v for k, v in out.items() if v}

        cls = FracPoly if len(rows) == 1 else GenFun
        return cls._make(vars, scale, image(self._num), image(self._den), injective)

    def subs_inverse(self) -> "_RatFuncBase":
        """Replace every variable x by 1/x (exponent negation)."""
        n = len(self._vars)
        return self.substitute(self._vars, [[-(i == j) for i in range(n)] for j in range(n)])

    def _require_integral(self, naxes: int) -> None:
        """Raise NonIntegralExponentError, naming a fractional exponent, unless
        the first naxes axes hold integer exponents only: a normal form's scale
        is minimal, so a scale above 1 on an axis means one there."""
        for axis, (name, s) in enumerate(zip(self._vars[:naxes], self._scale)):
            if s != 1:
                vectors = _vectors([*self._den, *self._num], len(self._vars))
                e = next(v[axis] for v in vectors if v[axis] % s)
                raise NonIntegralExponentError(f"{self} has the exponent {Fraction(e, s)} of {name}")

    def evaluate(self, *point: Scalar) -> Fraction:
        """Exact evaluation at a rational point, one value per variable;
        requires integer exponents and a denominator that does not vanish
        there.  _eval_first sets the variables in turn, p on two axes first."""
        n = len(self._vars)
        if len(point) != n:
            raise TypeError(f"expected {n} values for {self._vars}, got {len(point)}")
        point = tuple(map(_rational, point))
        self._require_integral(n)
        num, den = self._num, self._den
        for i, x in enumerate(point):
            bits = _SHIFT * (n - 1 - i)
            num, den = _eval_first(num, x, bits), _eval_first(den, x, bits)
        if not den:
            raise ZeroDivisionError(
                f"denominator vanishes at {', '.join(map(str, point))}"
            )
        return Fraction(num.get(0, 0), den[0])

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
        return Fraction(min(_lows(self._num)) - min(_lows(self._den)), self._scale[1])

    def series_coefficients(self, c_max: Scalar, p: Scalar) -> Dict[Fraction, Fraction]:
        """Power-series coefficients in t up to exponent c_max, at the point p.

        Returns {t-exponent c: nonzero coefficient at p}.  _eval_first sets
        p in numerator and denominator, leaving a term map keyed by the
        t-exponent, and the recurrence runs on Fractions.  Requires integer
        p-exponents, as :meth:`evaluate` does, and a t^0 part of the
        denominator that is nonzero at p.
        """
        self._require_integral(1)
        p = _rational(p)
        num, den = _eval_first(self._num, p, _SHIFT), _eval_first(self._den, p, _SHIFT)
        d0 = den.pop(0, 0)
        if not d0:
            raise NoSeriesExpansionError(f"denominator vanishes at t = 0, p = {p}")
        st = self._scale[1]
        coeffs: Dict[int, Fraction] = {}
        for k in range(floor(Fraction(c_max) * st) + 1):  # t-exponents run over k / st
            s = num.get(k, 0) - sum(v * coeffs.get(k - te, 0) for te, v in den.items())
            if s:
                coeffs[k] = Fraction(s, d0)
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
    f._require_integral(1)
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
    nvars = len(scale)
    pairs = []
    bound = 0  # T of the whole sum (the "exponent keys" comment)
    for c, factors in terms:
        num, den = {0: c}, {0: 1}
        for f in factors:
            n, d = f._on(scale)
            if nvars == 2:
                bound += _t_degree(n, d)
            num, den = _t_mul(num, n), _t_mul(den, d)
        if num:
            pairs.append((num, den))
    _check_t(bound)
    if not pairs:
        return zero
    while len(pairs) > 1:
        pairs = [
            _add_pairs(*pairs[i : i + 2], nvars) if i + 1 < len(pairs) else pairs[i]
            for i in range(0, len(pairs), 2)
        ]
    return zero._make(zero._vars, scale, *pairs[0])


def _add_pairs(a, b, nvars: int):
    """n1/d1 + n2/d2 of unreduced (num, den) pairs on one lattice of nvars
    axes: with g = gcd(d1, d2), (n1 (d2/g) + n2 (d1/g)) / (d1 (d2/g)),
    unreduced."""
    (n1, d1), (n2, d2) = a, b
    d1r, d2r = _cancel(d1, d2, nvars)
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

