"""Reference models that the tests check the package against.

No CLI command runs this code.  It is the independent side of four checks:

  * single elements of a tame extension as truncated Teichmuller
    expansions, their formal conjugates and the valuations of their
    differences (``test_oracle.py``), which pin down the code formula
    ``oracle._common_code`` that the exact count and the sampler share;
  * brute-force counts of conjugate orbits against the closed form the
    recursion's plan weights use (``test_oracle.py``, acceptance
    criterion 7);
  * direct Frobenius-orbit counting against ``mobius_orbit_count``, the
    closed form of ``splitting._orbit_count_coeffs`` as a value
    (``test_splitting.py``, criterion 7);
  * the reader of the CLI's JSON format, which parses what
    ``symbolic.to_json_obj`` wrote back into a value through the public
    constructors (``test_cli.py``, ``test_symbolic.py``).

In the expansions, coefficients are zero or roots of unity of order p^f - 1,
encoded by their exponent, so in a tame extension the difference of two
distinct stored coefficients is a unit and every valuation is a
first-differing-slot comparison on exponents; no field arithmetic is needed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from padicdens.errors import PadicDensError, WildInputError
from padicdens.oracle import _common_code
from padicdens.splitting import _orbit_count_coeffs, is_prime
from padicdens.symbolic import FracPoly, GenFun


class LengthMismatchError(PadicDensError):
    """Two expansions do not live over the same common uniformizer / slot layout."""


def _require_tame_prime(p: int, es: Sequence[int]) -> None:
    if not is_prime(p):
        raise WildInputError(f"{p} is not prime")
    for e in es:
        if math.gcd(p, e) != 1:
            raise WildInputError(f"p={p} divides ramification index {e}")


# ---------------------------------------------------------------------------
# single elements, their conjugates and valuations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TameFieldDesc:
    """A tame extension of Q_p: unramified of degree f, then the e-th root of
    zeta^j * p, with j indexing the isomorphism class."""

    p: int
    e: int
    f: int
    j: int = 0

    def __post_init__(self):
        _require_tame_prime(self.p, (self.e,))
        if not 0 <= self.j < math.gcd(self.p**self.f - 1, self.e):
            raise ValueError("class index j out of range")

    @property
    def root_order(self) -> int:
        return self.p**self.f - 1

    @property
    def lattice(self) -> int:
        """Order of the root-of-unity lattice the slot exponents live in."""
        return self.e * (self.p**self.f - 1)


@dataclass(frozen=True)
class TeichExpansion:
    """Truncated expansion of an element: per-slot coefficient exponent.

    Slot n holds the coefficient of pi_j^n, encoded as an exponent modulo
    e*(p^f - 1) that is a multiple of e (so the coefficient is an honest
    (p^f - 1)-th root of unity), or None for a zero coefficient.
    """

    field: TameFieldDesc
    slots: Tuple[Optional[int], ...]

    @classmethod
    def from_root_exponents(
        cls, field: TameFieldDesc, coeffs: Dict[int, Optional[int]], length: int
    ) -> "TeichExpansion":
        """coeffs maps slot -> exponent of the (p^f - 1)-th root of unity."""
        slots: list = [None] * length
        for n, c in coeffs.items():
            if c is not None:
                slots[n] = (field.e * (c % field.root_order)) % field.lattice
        return cls(field, tuple(slots))


@dataclass(frozen=True)
class CommonExpansion:
    """Expansion over the shared uniformizer p^(1/E) with exponents mod M.

    Slot m holds the coefficient of p^(m/E) as an exponent of the order-M
    root of unity, or None.  Comparable slot-by-slot across components.
    """

    E: int
    M: int
    slots: Tuple[Optional[int], ...]


def conjugates(
    x: TeichExpansion, E: int | None = None, M: int | None = None,
    depth: int | None = None,
) -> List[CommonExpansion]:
    """The e*f formal conjugates of x as common expansions over p^(1/E) with
    exponents mod M (by default the field's own lattice).

    The multiset is indexed by (Frobenius power r, uniformizer twist s);
    duplicates are kept, distinctness is the caller's concern.
    """
    fld = x.field
    E = fld.e if E is None else E
    M = fld.lattice if M is None else M
    if depth is None:
        depth = len(x.slots) * E // fld.e
    out = []
    for r in range(fld.f):
        for s in range(fld.e):
            slots: list = [None] * depth
            for n, a in enumerate(x.slots):
                mc = n * (E // fld.e)
                if mc < depth and a is not None:
                    slots[mc] = _common_code(a, n, fld.j, r, s, fld.p, fld.e, fld.f, M)
            out.append(CommonExpansion(E, M, tuple(slots)))
    return out


def pair_valuation(x: CommonExpansion, y: CommonExpansion) -> Optional[Fraction]:
    """Valuation of the difference: (first differing slot)/E.

    None means unresolved: the stored slots agree, so the difference has
    valuation at least len(slots)/E.
    """
    if (x.E, x.M, len(x.slots)) != (y.E, y.M, len(y.slots)):
        raise LengthMismatchError("expansions live over different lattices")
    for n, (a, b) in enumerate(zip(x.slots, y.slots)):
        if a != b:
            return Fraction(n, x.E)
    return None


def disc_valuation(parts: Sequence[TeichExpansion]) -> Optional[Fraction]:
    """Valuation of the product of pairwise differences of all conjugates.

    A single conjugate gives the empty product, valuation 0.  None when any
    needed pair is unresolved within the stored slots.
    """
    E = math.lcm(*(x.field.e for x in parts))
    M = math.lcm(*(x.field.lattice for x in parts))
    depth = min(len(x.slots) * E // x.field.e for x in parts)
    conj: list = []
    for x in parts:
        conj.extend(conjugates(x, E, M, depth))
    total = Fraction(0)
    for a, b in combinations(conj, 2):
        v = pair_valuation(a, b)
        if v is None:
            return None
        total += 2 * v
    return total


def check_index_parity(field: TameFieldDesc, n_samples: int, seed: int) -> Dict[str, int]:
    """Sample elements of the extension and count those whose discriminant
    valuation exceeds the field discriminant (e-1)f by a nonnegative even
    integer.  Degenerate samples (not generating, or unresolved at the stored
    depth) are discarded and counted."""
    e, f, p = field.e, field.f, field.p
    depth = 4 * e * f + 4
    rng = np.random.default_rng(seed)
    v_field = (e - 1) * f
    report = {"checked": 0, "discarded": 0, "parity_ok": 0}
    for _ in range(n_samples):
        digits = rng.integers(0, p**f, size=depth)
        slots = tuple(
            None if d == 0 else (e * (int(d) - 1)) % field.lattice for d in digits
        )
        x = TeichExpansion(field, slots)
        distinct = len({c.slots for c in conjugates(x)}) == e * f
        v = disc_valuation((x,))
        if not distinct or v is None:
            report["discarded"] += 1
            continue
        report["checked"] += 1
        diff = v - v_field
        if diff >= 0 and diff.denominator == 1 and int(diff) % 2 == 0:
            report["parity_ok"] += 1
    return report


# ---------------------------------------------------------------------------
# conjugate-orbit and Frobenius-orbit brute forces
# ---------------------------------------------------------------------------

def orbit_size(e: int, f: int, b: int, p: int, j: int, a_exp: int) -> int:
    """Number of Galois conjugates of (root of unity a) * pi_j^b, computed on
    exponents modulo e*(p^f - 1)."""
    m = e * (p**f - 1)
    x = (a_exp * e + j * b) % m
    seen = set()
    for r in range(f):
        base = x * pow(p, r, m) % m
        for s in range(e):
            seen.add((base + b * s * (p**f - 1)) % m)
    return len(seen)


def count_orbit_choices(e: int, f: int, b: int, k: int, p: int) -> int:
    """Brute-force count of pairs (nonzero Teichmuller a, class index j) whose
    element a * pi_j^b has exactly k Galois conjugates."""
    _require_tame_prime(p, (e,))
    g = math.gcd(p**f - 1, e)
    total = 0
    for a_exp in range(p**f - 1):
        for j in range(g):
            if orbit_size(e, f, b, p, j, a_exp) == k:
                total += 1
    return total


def orbit_choices_closed_form(e: int, f: int, b: int, k: int, p: int) -> int:
    """The closed-form count: gcd * (k/denom) * (orbit-count polynomial at p),
    vanishing unless denom | k and (k/denom) | f."""
    denom = e // math.gcd(b, e) if b else 1
    if k % denom or f % (k // denom):
        return 0
    g = math.gcd(p**f - 1, e)
    kk = k // denom
    val = mobius_orbit_count(kk).evaluate(p)
    assert val.denominator == 1
    return g * kk * int(val)


def mobius_orbit_count(k_prime: int) -> FracPoly:
    """Number of Frobenius orbits of exact size k' among the nonzero elements
    of the field with p^k' elements, as a polynomial in p; over F_(p^f) it
    is this polynomial at p^f."""
    return FracPoly(dict(enumerate(_orbit_count_coeffs(k_prime))), k_prime, var="p")


def brute_frobenius_orbit_count(f: int, k: int, p: int) -> int:
    """Orbits of exact size k of x -> x^(p^f) on the nonzero elements of the
    field with p^(f*k) elements, counted on discrete-log exponents."""
    modulus = p ** (f * k) - 1
    mult = pow(p, f, modulus)
    seen = [False] * modulus
    count = 0
    for x in range(modulus):
        if seen[x]:
            continue
        size = 0
        y = x
        while not seen[y]:
            seen[y] = True
            size += 1
            y = y * mult % modulus
        if size == k:
            count += 1
    return count


def orbit_count_checks(
    e_max: int, f_max: int, b_max: int, primes: Sequence[int], mobius_limit: int
) -> List[Tuple[str, bool, str]]:
    """Brute-forced conjugate-orbit counts against their closed forms, plus
    the Mobius orbit-count polynomial against direct Frobenius-orbit counting.
    Returns (name, ok, note) checks."""
    out = []
    bad = []
    total = 0
    for p in primes:
        for e in range(1, e_max + 1):
            if e % p == 0:
                continue
            for f in range(1, f_max + 1):
                for b in range(0, b_max + 1):
                    denom = e // math.gcd(b, e) if b else 1
                    for k in range(1, denom * f + 1):
                        got = count_orbit_choices(e, f, b, k, p)
                        want = orbit_choices_closed_form(e, f, b, k, p)
                        total += 1
                        if got != want:
                            bad.append((e, f, b, k, p, got, want))
    out.append(
        (
            f"orbit_choices grid ({total} cases)",
            not bad,
            f"first mismatch {bad[0]}" if bad else "all equal",
        )
    )

    mob_bad = []
    mob_total = 0
    for p in (2, 3, 5):
        for f in range(1, 4):
            for k in range(1, 7):
                if p ** (f * k) > mobius_limit:
                    continue
                val = mobius_orbit_count(k).evaluate(p**f)
                count = brute_frobenius_orbit_count(f, k, p)
                mob_total += 1
                if val != count:
                    mob_bad.append((f, k, p, val, count))
    out.append(
        (
            f"mobius_orbit_count grid ({mob_total} cases)",
            not mob_bad,
            f"first mismatch {mob_bad[0]}" if mob_bad else "all equal",
        )
    )
    return out


# ---------------------------------------------------------------------------
# the JSON reader
# ---------------------------------------------------------------------------

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


def loads(s: str):
    return from_json_obj(json.loads(s))
