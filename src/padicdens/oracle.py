"""Independent verification by counting over truncated Teichmuller expansions.

An element of a tame extension is modeled as a truncated expansion
sum a_n pi_j^n where each coefficient is zero or a root of unity of order
p^f - 1, encoded purely by its exponent.  In a tame extension the difference
of two distinct stored coefficients is automatically a p-adic unit (both are
prime-to-p roots of unity), so valuations of differences reduce to
first-differing-slot comparisons on exponents; no field arithmetic is needed
and every computed valuation is exact.  One formula, _common_code, gives the
exponent of each conjugate's coefficient on the common lattice.

The oracle works over the base (e_base, f_base) = (1, 1) only.  The engine
computes over e1f1 too and moves a value to a deeper base by one
substitution; that step is checked apart from the oracle, by the proof in
engine._recurse, test_base_change_is_a_substitution and the golden d = 7
lines of e2f1 and e1f2.

Both modes check their arguments in one place, _layout, before any work: the
base, the prime's tameness, the depth vector, then the two bounds below.  The
CLI passes them through unchecked.

The exact masses are counted slot by slot rather than pattern by pattern: a
dynamic program over the common slots refines the partition of the
conjugates into classes that agree so far (see exact_disc_masses), so the
work grows with the digit tuples of one slot, not with their product.  It
runs on plain ints.  The Monte Carlo sampler draws whole patterns and
evaluates them with numpy; it is deterministic for a fixed seed, so its
reports are byte-stable.  numpy is imported inside the sampler only, so the
exact commands never load it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Dict, Hashable, Iterable, Tuple

from .errors import SigmaParseError, TooLargeError
from .splitting import BVector, SplittingType, check_depths

ZERO = -1  # sentinel for a zero coefficient in code tuples and arrays

# bound on one oracle call: the digit tuples and dynamic-program entries the
# exact count visits, or the code entries (samples x conjugates x common
# slots) the sampler holds
GUARD = 40_000_000

# bounds on one oracle call, in both modes, on work that GUARD does not see.
# The exact count's integers grow with the common slots (e1f1,e1f1 at p 3:
# exact 2.9 s at 2,001 slots, 20 s at 4,001); the engine's series, taken at
# the prime, stays small (0.1 s at 4,001 slots, 0.2 s at 8,001, where
# --samples 1 takes 0.9 s).  The engine's argmin chains grow with each
# entry of b (at 16: e1f1 x 6 at p 7 6.1 s, the d <= 5 types tried at most
# 1.0 s; e1f1,e1f1 at p 3 3.0 s at 1,000).
MAX_COMMON_SLOTS = 2_048
MAX_B_ENTRY = 16


def _common_code(a, n, j, r, s, p, e, f, M):
    """Exponent, mod M, of the (r, s) conjugate of the slot-n coefficient
    with local lattice exponent a (a multiple of e) in the (e, f, j) field.

    Frobenius multiplies the exponent by p^r, pi_j^n = zeta^(nj) p^(n/e)
    brings in n*j, and the s-th twist of the uniformizer root adds
    n*s*(p^f - 1).  The arithmetic is plain, so a and j may be ints or
    numpy arrays alike.
    """
    m_local = e * (p**f - 1)
    code = ((a + n * j) * pow(p, r, m_local) + n * s * (p**f - 1)) % m_local
    return code * (M // m_local) % M


# ---------------------------------------------------------------------------
# exact enumeration / Monte Carlo of discriminant-valuation masses
# ---------------------------------------------------------------------------

def _layout(sigma: SplittingType, b: BVector, c_max: int, p: int):
    """Slot layout shared by the exact and sampled enumerations.

    The common truncation depth N satisfies 2N/E > c_max, so a single
    unresolved ordered pair already pushes the discriminant valuation beyond
    c_max and unresolved patterns can be bucketed wholesale.

    The one check of the oracle's arguments, in this order, so that an input
    with two faults names the first: SigmaParseError for a base other than
    (1, 1); WildInputError unless p is a prime tame for sigma;
    SigmaParseError for a depth vector that check_depths rejects;
    TooLargeError when N exceeds MAX_COMMON_SLOTS, then when an entry of b
    exceeds MAX_B_ENTRY.
    """
    if (sigma.e_base, sigma.f_base) != (1, 1):
        raise SigmaParseError(
            f"the oracle works over the base (1,1) only, not {sigma.display_pairs()}"
        )
    sigma.require_tame(p)
    check_depths(sigma, b)
    comps = sigma.components
    E = math.lcm(*(e for e, _ in comps))
    M = math.lcm(*(e * (p**f - 1) for e, f in comps))
    n_common = (E * c_max) // 2 + 1
    if n_common > MAX_COMMON_SLOTS:
        raise TooLargeError(
            f"{n_common} common slots exceed the oracle's bound of {MAX_COMMON_SLOTS}"
        )
    if max(b) > MAX_B_ENTRY:
        raise TooLargeError(
            f"depth vector entry {max(b)} exceeds the oracle's bound of {MAX_B_ENTRY}"
        )
    per = []
    for (e, f), bi in zip(comps, b):
        n_slots = max(-(-n_common * e // E), bi)  # ceil, at least b_i
        per.append(
            dict(
                e=e,
                f=f,
                b=bi,
                n_slots=n_slots,
                radix=p**f,
                step=E // e,
                gcd_j=math.gcd(p**f - 1, e),
            )
        )
    return E, M, n_common, per


def _conjugate_rows(per) -> list:
    """One (component i, Frobenius power r, uniformizer twist s) per conjugate."""
    return [(i, r, s) for i, comp in enumerate(per) for r in range(comp["f"]) for s in range(comp["e"])]


def _valuations_for_digits(digit_arrays, jays, layout, p):
    """Sum of ordered pairwise first-difference slots, in units of 1/E, for
    whole sampled patterns.

    Returns (v_times_E int array, resolved bool array).
    """
    import numpy as np

    E, M, n_common, per = layout
    n = len(next(iter(digit_arrays.values())))
    conj_rows = _conjugate_rows(per)
    codes = np.full((n, len(conj_rows), n_common), ZERO, dtype=np.int64)
    for row, (i, r, s) in enumerate(conj_rows):
        comp = per[i]
        for slot in range(comp["b"], comp["n_slots"]):
            mc = slot * comp["step"]
            dig = digit_arrays[(i, slot)]
            e, f = comp["e"], comp["f"]
            code = _common_code(e * (dig - 1), slot, jays[i], r, s, p, e, f, M)
            codes[:, row, mc] = np.where(dig == 0, ZERO, code)
    v = np.zeros(n, dtype=np.int64)
    resolved = np.ones(n, dtype=bool)
    for a, bb in combinations(range(len(conj_rows)), 2):
        neq = codes[:, a, :] != codes[:, bb, :]
        any_diff = neq.any(axis=1)
        first = np.argmax(neq, axis=1)
        resolved &= any_diff
        v += np.where(any_diff, 2 * first, 0)
    return v, resolved


def _equality_pattern(codes: Iterable[Hashable]) -> Tuple[int, ...]:
    """Label each row by the order in which its code first appears (0, 1, ...)."""
    first: Dict[Hashable, int] = {}
    return tuple([first.setdefault(c, len(first)) for c in codes])


def _slot_blocks(slot_of, jvec, per, p, M) -> tuple:
    """Per component, the codes of its conjugate rows at one common slot:
    one tuple per digit, ZERO for digit 0.

    slot_of maps each component active at the slot to its local slot; an
    inactive component has the one all-ZERO tuple.  The rows of a component
    run r-major, s-minor as in _conjugate_rows, so the blocks concatenate in
    row order.
    """
    blocks = []
    for i, comp in enumerate(per):
        e, f = comp["e"], comp["f"]
        block = [(ZERO,) * (e * f)]
        if i in slot_of:
            n = slot_of[i]
            block += [
                tuple(_common_code(e * (d - 1), n, jvec[i], r, s, p, e, f, M)
                      for r in range(f) for s in range(e))
                for d in range(1, comp["radix"])
            ]
        blocks.append(tuple(block))
    return tuple(blocks)


def _slot_patterns(blocks) -> Counter:
    """Equality patterns of the row codes at one slot, each with the number
    of digit tuples that give it.  Within a block the tuples differ (p^r is
    a unit modulo e*(p^f - 1)), so every digit tuple gives its own code
    tuple, and its pattern is tallied directly."""
    return Counter(_equality_pattern(chain.from_iterable(codes)) for codes in product(*blocks))


def exact_disc_masses(
    sigma: SplittingType,
    b: BVector,
    c_max: int,
    p: int,
) -> Dict[int, Fraction]:
    """Exact masses {c: measure of tuples with discriminant valuation c} for
    all c <= c_max, over every truncated coefficient pattern, averaged over
    the isomorphism classes of each component.

    The patterns are counted by a dynamic program over the common slots
    mc = 0 .. n_common - 1 instead of one by one.  A state is a partition of
    the conjugate rows into the classes that agree on every slot so far,
    with the accumulated v = sum over split pairs of 2 * (their first
    differing slot), carried with the number of patterns that reach it.  It
    is exact: the row codes at slot mc depend only on the digits at mc, the
    digits of different slots range independently, and a pair's first
    differing slot is the slot at which its class splits.  So refining every
    state by the equality pattern of each slot's digit tuples, and adding
    2 * mc per pair split there, counts the same multiset of (v, resolved)
    as enumerating every pattern.  A state whose v exceeds c_max * E is
    dropped, since v never decreases; a state whose rows are all separated
    at the end has valuation c = v / E.  Slots and classes with the same
    code blocks (see _slot_blocks) share one tally of equality patterns.

    _layout checks the arguments.  GUARD bounds the steps taken, summed
    over slots and classes: the digit tuples of each slot's blocks and the
    (state, v) entries times the equality patterns each slot refines them
    by.  Every slot of every class takes at least one step, so n_common x
    classes above the guard fails at once; any other excess stops the count
    before the slot that would pass the guard.
    """
    E, M, n_common, per = _layout(sigma, b, c_max, p)
    n_jvecs = math.prod(comp["gcd_j"] for comp in per)
    if n_common * n_jvecs > GUARD:
        raise TooLargeError(f"{n_common} common slots x {n_jvecs} classes exceeds the guard")

    rows = _conjugate_rows(per)
    pairs = list(combinations(range(len(rows)), 2))
    v_max = c_max * E
    counts: Dict[int, int] = {}
    tallies: Dict[tuple, Counter] = {}  # blocks -> patterns, shared by slots and classes
    steps = 0
    too_large = f"the exact count of {sigma.display_pairs()} at b={list(b)} exceeds the guard"
    for jvec in product(*(range(comp["gcd_j"]) for comp in per)):
        # partition labels -> {v: number of patterns}
        states: Dict[Tuple[int, ...], Dict[int, int]] = {(0,) * len(rows): {0: 1}}
        for mc in range(n_common):
            # {component active at mc: its local slot}; _layout ends every
            # component below the common depth, so no stored digit is left
            # out of the row codes
            active = {}
            for i, comp in enumerate(per):
                slot, off = divmod(mc, comp["step"])
                if not off and comp["b"] <= slot < comp["n_slots"]:
                    active[i] = slot
            steps += math.prod(per[i]["radix"] for i in active)
            if steps > GUARD:
                raise TooLargeError(f"{too_large} at common slot {mc}")
            blocks = _slot_blocks(active, jvec, per, p, M)
            if blocks not in tallies:
                tallies[blocks] = _slot_patterns(blocks)
            patterns = tallies[blocks]
            steps += len(patterns) * sum(map(len, states.values()))
            if steps > GUARD:
                raise TooLargeError(f"{too_large} at common slot {mc}")
            refined: Dict[Tuple[int, ...], Dict[int, int]] = {}
            for labels, by_v in states.items():
                for pattern, tally in patterns.items():
                    new = _equality_pattern(zip(labels, pattern))
                    split = sum(labels[a] == labels[c] and pattern[a] != pattern[c] for a, c in pairs)
                    dv = 2 * mc * split
                    target = refined.setdefault(new, {})
                    for v, n in by_v.items():
                        if v + dv <= v_max:
                            target[v + dv] = target.get(v + dv, 0) + n * tally
            states = {k: d for k, d in refined.items() if d}
        for labels, by_v in states.items():
            if len(set(labels)) < len(rows):
                continue  # some pair agrees on every stored slot
            for v, n in by_v.items():
                assert v % E == 0, "resolved valuation not integral"
                counts[v // E] = counts.get(v // E, 0) + n

    mass_exp = sum(comp["f"] * comp["n_slots"] for comp in per)
    unit = Fraction(1, p**mass_exp * n_jvecs)
    return {c: counts[c] * unit for c in sorted(counts)}


@dataclass(frozen=True)
class MassEstimate:
    estimate: float
    stderr: float


def sampled_disc_masses(
    sigma: SplittingType,
    b: BVector,
    c_max: int,
    p: int,
    samples: int,
    seed: int,
) -> Dict[int, MassEstimate]:
    """Monte Carlo version of :func:`exact_disc_masses`.

    Unbiased estimates of the same unconditional masses, with standard
    errors; deterministic for a fixed seed.  Raises, before any draw, what
    _layout raises, and TooLargeError when samples x conjugates x common
    slots exceeds GUARD.
    """
    layout = _layout(sigma, b, c_max, p)
    E, M, n_common, per = layout
    n_rows = len(_conjugate_rows(per))
    if samples * n_rows * n_common > GUARD:
        raise TooLargeError(
            f"{samples} samples x {n_rows} conjugates x {n_common} slots exceeds the guard"
        )
    import numpy as np

    rng = np.random.default_rng(seed)

    digit_arrays = {}
    for i, comp in enumerate(per):
        for slot in range(comp["b"], comp["n_slots"]):
            digit_arrays[(i, slot)] = rng.integers(
                0, comp["radix"], size=samples, dtype=np.int64
            )
    if not digit_arrays:
        digit_arrays[(-1, -1)] = np.zeros(samples, dtype=np.int64)
    jays = [
        rng.integers(0, comp["gcd_j"], size=samples, dtype=np.int64) for comp in per
    ]
    v, resolved = _valuations_for_digits(digit_arrays, jays, layout, p)

    # conditioning: samples live in the b-cylinder, whose measure rescales
    # the conditional frequencies to unconditional masses
    cond = Fraction(1)
    for comp in per:
        cond /= Fraction(p) ** (comp["f"] * comp["b"])
    out: Dict[int, MassEstimate] = {}
    for c in range(c_max + 1):
        hits = int(np.count_nonzero(resolved & (v == c * E)))
        if not hits:
            continue
        phat = hits / samples
        stderr = math.sqrt(phat * (1 - phat) / samples)
        out[c] = MassEstimate(phat * float(cond), stderr * float(cond))
    return out
