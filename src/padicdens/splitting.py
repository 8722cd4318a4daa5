"""Splitting-type bookkeeping and the combinatorics the density recursion branches on.

A splitting type records, for each field component of an etale extension, the
absolute ramification index and inertia degree (e, f) together with the base
field's (e_base, f_base).  Everything here is pure combinatorics: minimal
slopes, the argmin bump operator, admissible partition plans, Galois-orbit
counts by Mobius inversion, and the partition weight polynomial that counts
leading-coefficient/uniformizer choices realizing a given plan.

All functions are pure and all values immutable; safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import DivisibilityError, SigmaParseError, WildInputError
from .symbolic import FracPoly

BVector = Tuple[int, ...]


@dataclass(frozen=True)
class SplittingType:
    """Ordered list of absolute (e, f) pairs over a base (e_base, f_base)."""

    components: Tuple[Tuple[int, int], ...]
    e_base: int = 1
    f_base: int = 1

    def __post_init__(self):
        comps = tuple((e, f) for e, f in self.components)
        object.__setattr__(self, "components", comps)
        pairs = ((self.e_base, self.f_base), *comps)
        if not all(isinstance(x, int) for pair in pairs for x in pair):
            raise ValueError(f"invariants must be ints: {comps} over {pairs[0]}")
        if self.e_base < 1 or self.f_base < 1:
            raise ValueError("base invariants must be positive")
        for e, f in comps:
            if e < 1 or f < 1:
                raise ValueError(f"invalid component ({e},{f})")
            if e % self.e_base:
                raise DivisibilityError(
                    f"e_base={self.e_base} does not divide component e={e}"
                )
            if f % self.f_base:
                raise DivisibilityError(
                    f"f_base={self.f_base} does not divide component f={f}"
                )

    # -- derived invariants -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def e_rel(self) -> Tuple[int, ...]:
        return tuple(e // self.e_base for e, _ in self.components)

    @property
    def f_rel(self) -> Tuple[int, ...]:
        return tuple(f // self.f_base for _, f in self.components)

    @property
    def rel_degrees(self) -> Tuple[int, ...]:
        return tuple(e * f for e, f in zip(self.e_rel, self.f_rel))

    @property
    def degree(self) -> int:
        """Total relative degree over the base field."""
        return sum(self.rel_degrees)

    def key(self) -> tuple:
        return (self.e_base, self.f_base, tuple(sorted(self.components)))

    def restrict(self, indices: Sequence[int]) -> "SplittingType":
        return SplittingType(
            tuple(self.components[i] for i in indices), self.e_base, self.f_base
        )

    def is_tame_at(self, p: int) -> bool:
        return all(math.gcd(p, e) == 1 for e in self.e_rel)

    def require_tame(self, p: int) -> None:
        if not is_prime(p):
            raise WildInputError(f"{p} is not prime")
        if not self.is_tame_at(p):
            raise WildInputError(
                f"p={p} divides a relative ramification index of {self.display_pairs()}"
            )

    # -- display --------------------------------------------------------------

    def display_pairs(self) -> str:
        inner = ",".join(f"e{e}f{f}" for e, f in self.components)
        if (self.e_base, self.f_base) != (1, 1):
            return f"{inner}@e{self.e_base}f{self.f_base}"
        return inner

    def display_superscript(self) -> str:
        """f^e display string, the convention of the sample-value tables."""
        return "(" + " ".join(f"{f}^{e}" for e, f in self.components) + ")"


@dataclass(frozen=True)
class SlopeData:
    """Minimal slope min(b_i / e_rel_i), its argmin set, and denominator."""

    slope: Fraction
    argmin: Tuple[int, ...]
    denom: int


@dataclass(frozen=True)
class PartitionPlan:
    """A set partition of the component indices plus one orbit size per block."""

    blocks: Tuple[Tuple[int, ...], ...]
    orbit_sizes: Tuple[int, ...]


def perm_factor(sigma: SplittingType) -> int:
    """Product over distinct (e, f) of factorial(multiplicity)."""
    out = 1
    seen: dict = {}
    for comp in sigma.components:
        seen[comp] = seen.get(comp, 0) + 1
    for mult in seen.values():
        out *= math.factorial(mult)
    return out


def check_depths(sigma: SplittingType, b: BVector) -> None:
    """The one statement of a valid depth vector: one nonnegative int entry
    per component of sigma."""
    if not all(isinstance(x, int) for x in b):
        raise SigmaParseError(f"depth vector {list(b)} must have int entries")
    if len(b) != sigma.m or any(x < 0 for x in b):
        raise SigmaParseError(f"depth vector {list(b)} must have {sigma.m} nonnegative entries")


def slope_data(sigma: SplittingType, b: BVector) -> SlopeData:
    e_rel = sigma.e_rel
    slopes = [Fraction(bi, ei) for bi, ei in zip(b, e_rel)]
    beta = min(slopes)
    argmin = tuple(i for i, s in enumerate(slopes) if s == beta)
    return SlopeData(beta, argmin, beta.denominator)


def bump_argmin(sigma: SplittingType, b: BVector) -> BVector:
    """Add 1 to b exactly on the argmin set of the slopes."""
    sd = slope_data(sigma, b)
    hit = set(sd.argmin)
    return tuple(bi + (1 if i in hit else 0) for i, bi in enumerate(b))


def base_ram_factor(sd: SlopeData, orbit_size: int) -> int:
    """Ramification gained by the base field when following an orbit of this size."""
    return sd.denom if orbit_size != 1 else 1


def is_prime(n: int) -> bool:
    """Miller-Rabin on the twelve prime bases 2, 3, 5, ..., 37: exact for
    n < 2^64, as the least strong pseudoprime to all twelve is about
    3.2 * 10^23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in bases:
        if pow(a, d, n) != 1 and all(pow(a, d << r, n) != n - 1 for r in range(s)):
            return False
    return True


def _prime_factors(n: int) -> Tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _orbit_count_coeffs(k_prime: int) -> List[int]:
    """k' times the number of Frobenius orbits of exact size k' among the
    nonzero elements of the field with p^k' elements, as the coefficient
    list (index = exponent of p) of a polynomial in p.

    Inclusion-exclusion over squarefree divisors:
    sum_{s | rad(k')} mu(s) (p^(k'/s) - 1).
    """
    if k_prime < 1:
        raise ValueError("orbit size must be positive")
    primes = _prime_factors(k_prime)
    coeffs = [0] * (k_prime + 1)
    for bits in range(1 << len(primes)):
        sign = 1
        s = 1
        for idx, ell in enumerate(primes):
            if bits >> idx & 1:
                sign = -sign
                s *= ell
        coeffs[k_prime // s] += sign
        coeffs[0] -= sign
    return coeffs


def set_partitions(n: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """All set partitions of {0, ..., n-1} in restricted-growth-string order."""
    if n == 0:
        yield ()
        return

    def rec(i: int, rgs: list, mx: int):
        if i == n:
            nblocks = mx + 1
            blocks: list = [[] for _ in range(nblocks)]
            for idx, lab in enumerate(rgs):
                blocks[lab].append(idx)
            yield tuple(tuple(bl) for bl in blocks)
            return
        for v in range(mx + 2):
            rgs.append(v)
            yield from rec(i + 1, rgs, max(mx, v))
            rgs.pop()

    yield from rec(1, [0], 0)


def _divisors(n: int) -> Tuple[int, ...]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return tuple(out)


def enumerate_plans(sigma: SplittingType, b: BVector) -> Tuple[PartitionPlan, ...]:
    """All admissible partition plans, head plan included.

    This is the one place that states admissibility.  With denom the
    denominator of the minimal slope, a plan is admissible when:

      1. the components outside the argmin set, if any, lie in one block;
      2. that block has orbit size 1, so every block of orbit size n != 1
         consists of argmin components;
      3. every other orbit size is 1 or denom * t with t dividing the
         relative inertia degree of each component in its block;
      4. at most one block has orbit size 1 when denom != 1.

    Every other plan has weight zero.
    """
    m = sigma.m
    sd = slope_data(sigma, b)
    arg = set(sd.argmin)
    outside = set(range(m)) - arg
    f_rel = sigma.f_rel
    plans = []
    for blocks in set_partitions(m):
        holder = None
        if outside:
            holding = [bi for bi, bl in enumerate(blocks) if any(i in outside for i in bl)]
            if len(holding) != 1:
                continue
            holder = holding[0]
        options = []
        for bi, bl in enumerate(blocks):
            if holder is not None and bi == holder:
                options.append((1,))
                continue
            g = math.gcd(*(f_rel[i] for i in bl)) if len(bl) > 1 else f_rel[bl[0]]
            ns = [1] + [sd.denom * t for t in _divisors(g) if sd.denom * t != 1]
            options.append(tuple(ns))
        for sizes in product(*options):
            if sd.denom != 1 and sum(1 for n in sizes if n == 1) > 1:
                continue
            plans.append(PartitionPlan(blocks, sizes))
    return tuple(plans)


def plan_signature(sd: SlopeData, m: int, blocks: Iterable[Tuple[int, int]]) -> tuple:
    """Everything the weight of an admissible plan (one that
    enumerate_plans returns) of an m-component type with slope data sd
    depends on, from its (orbit size, block size) pairs: (slope
    denominator, whether the argmin set is proper, the sorted (orbit size,
    (blocks, components)) counts)."""
    by_size: dict = {}
    for n, size in blocks:
        cnt, comps = by_size.get(n, (0, 0))
        by_size[n] = (cnt + 1, comps + size)
    return (sd.denom, len(sd.argmin) < m, tuple(sorted(by_size.items())))


def _poly_mul(a: List[int], b: List[int]) -> List[int]:
    """The product of two int coefficient lists (index = exponent of p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _falling_factorial(x: List[int], length: int, unit: int = 1) -> List[int]:
    """prod_{j=0}^{length-1} (x - j unit) of an int coefficient list x."""
    out = [1]
    for j in range(length):
        out = _poly_mul(out, [x[0] - j * unit, *x[1:]])
    return out


def signature_weight(signature: tuple) -> FracPoly:
    """Normalized count of leading-coefficient/uniformizer choices realizing
    the orbit structure of every admissible plan with this plan_signature,
    as a polynomial in p over e1f1, the one base the recursion runs on.

    It is a product over the orbit sizes k.  For k = 1 (slope denominator
    1), a falling factorial of p, or of p - 1 when some components lie
    outside the argmin set.  For k = denom k', with b blocks of c components
    in all, k'^c times the falling factorial of the orbit count M(k').  With
    N = k' M(k'), an int list, that factor is k'^(c - b) prod_{j<b} (N - j k'),
    and c >= b, so the weight has int coefficients: it is built from int
    lists and made a FracPoly once."""
    denom, outside, by_size = signature
    weight = [1]
    for k, (n_blocks, n_comps) in by_size:
        if k == 1:
            if denom != 1:
                continue
            if not outside:
                weight = _poly_mul(weight, _falling_factorial([0, 1], n_blocks))
            else:
                weight = _poly_mul(weight, _falling_factorial([-1, 1], n_blocks - 1))
        else:
            kk = k // denom
            orbits = _falling_factorial(_orbit_count_coeffs(kk), n_blocks, kk)
            weight = _poly_mul(weight, [c * kk ** (n_comps - n_blocks) for c in orbits])
    return FracPoly(dict(enumerate(weight)), var="p")


def head_plan(m: int) -> PartitionPlan:
    return PartitionPlan((tuple(range(m)),), (1,))
