"""The benchmark's workloads: which CLI jobs one pass runs, built from a seed.

Every workload is a fixed body of work.  The seed only reorders what has no
canonical order (the bases of the conjecture job, the cells of the oracle
grid) and picks the rational points at which table-d5's slice sums are
tested, so the same seed gives the same inputs and every seed gives the same
amount of work.

Splitting types are enumerated here from their definition (multisets of
relative (e, f) pairs with sum e*f = d), not through the engine's catalog,
so the checks can tell a missing or extra catalog entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import List, Tuple

Pair = Tuple[int, int]

TABLE_DEGREE_MAX = 5
CONJECTURE_DEGREE_MAX = 4
CONJECTURE_BASES: Tuple[Pair, ...] = ((1, 1), (2, 1), (1, 2))
ORACLE_DEGREE_MAX = 3
ORACLE_PRIMES = (3, 5)
ORACLE_C_MAX = 4

NAMES = ("table-d5", "conjecture-d4", "oracle-grid")


def rel_pair_multisets(d: int) -> List[Tuple[Pair, ...]]:
    """Nondecreasing tuples of relative (e, f) pairs with sum e*f = d."""
    pairs = sorted((e, f) for e in range(1, d + 1) for f in range(1, d + 1) if e * f <= d)
    out: List[Tuple[Pair, ...]] = []

    def rec(remaining: int, start: int, acc: List[Pair]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for idx in range(start, len(pairs)):
            e, f = pairs[idx]
            if e * f <= remaining:
                rec(remaining - e * f, idx, acc + [(e, f)])

    rec(d, 0, [])
    return out


@dataclass(frozen=True)
class SigmaSpec:
    """A splitting type as absolute pairs over a base, as the CLI prints it."""

    rel: Tuple[Pair, ...]
    base: Pair = (1, 1)

    @property
    def pairs(self) -> Tuple[Pair, ...]:
        eb, fb = self.base
        return tuple((e * eb, f * fb) for e, f in self.rel)

    @property
    def degree(self) -> int:
        return sum(e * f for e, f in self.rel)

    @property
    def name(self) -> str:
        inner = ",".join(f"e{e}f{f}" for e, f in self.pairs)
        if self.base != (1, 1):
            return f"{inner}@e{self.base[0]}f{self.base[1]}"
        return inner


def sigmas(degree_max: int, base: Pair = (1, 1)) -> List[SigmaSpec]:
    return [
        SigmaSpec(rel, base)
        for d in range(1, degree_max + 1)
        for rel in rel_pair_multisets(d)
    ]


@dataclass(frozen=True)
class OracleCell:
    sigma: SigmaSpec
    b: Tuple[int, ...]
    p: int

    def argv(self) -> List[str]:
        return [
            "oracle", "--sigma", self.sigma.name, "-p", str(self.p),
            "--cmax", str(ORACLE_C_MAX), "--depths", ",".join(map(str, self.b)),
        ]


def oracle_cells() -> List[OracleCell]:
    """The acceptance grid: d <= 3 over Q_p, p in {3, 5}, b in {0,1}^m."""
    cells = []
    for s in sigmas(ORACLE_DEGREE_MAX):
        for p in ORACLE_PRIMES:
            if any(e % p == 0 for e, _ in s.rel):
                continue
            for b in product((0, 1), repeat=len(s.rel)):
                cells.append(OracleCell(s, b, p))
    return cells


@dataclass
class Inputs:
    """What one pass hands to the program, plus the checks' sample points."""

    workload: str
    jobs: List[List[str]]
    cold_each_job: bool
    operations: int
    points: List[Fraction] = field(default_factory=list)
    cells: List[OracleCell] = field(default_factory=list)
    bases: Tuple[Pair, ...] = ()


def sample_points(rng: random.Random, n: int = 3) -> List[Fraction]:
    """Rational points away from 0, +-1 for exact identity testing."""
    out: List[Fraction] = []
    while len(out) < n:
        x = Fraction(rng.randint(2, 97), rng.randint(1, 97))
        if x != 1 and x not in out:
            out.append(x)
    return out


def build(workload: str, seed: int) -> Inputs:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table-d5":
        return Inputs(
            workload,
            [["table", "--degree-max", str(TABLE_DEGREE_MAX)]],
            cold_each_job=False,
            operations=len(sigmas(TABLE_DEGREE_MAX)),
            points=sample_points(rng),
        )
    if workload == "conjecture-d4":
        bases = list(CONJECTURE_BASES)
        rng.shuffle(bases)
        arg = ",".join(f"e{e}f{f}" for e, f in bases)
        return Inputs(
            workload,
            [["conjecture", "--degree-max", str(CONJECTURE_DEGREE_MAX), "--bases", arg]],
            cold_each_job=False,
            operations=sum(len(sigmas(CONJECTURE_DEGREE_MAX, b)) for b in bases),
            bases=tuple(bases),
        )
    if workload == "oracle-grid":
        cells = oracle_cells()
        rng.shuffle(cells)
        return Inputs(
            workload,
            [c.argv() for c in cells],
            cold_each_job=True,
            operations=len(cells),
            cells=cells,
        )
    raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(NAMES)})")
