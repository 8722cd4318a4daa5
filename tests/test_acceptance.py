"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (or -s to see the PASS lines).
Tolerances are pinned here and nowhere else:

  1. golden density values       exact rational-function identity
  2. partition of unity          exact, rho, alpha and beta over each degree
                                 <= 4 of three bases
  3. functional equation         exact, relative degree <= 4, three bases
  4. duality alpha/beta          exact, degree <= 3
  5. asymptotics                 exact: rho / asymptotic tends to 1 (equal
                                 top terms of its numerator and denominator)
  6. oracle equivalence          exact on the d <= 4 grid; Monte Carlo 3 sigma
  7. orbit-count identities      exact on the full grid; the brute forces
                                 are test references (oracle_reference.py),
                                 since no CLI command runs them
  8. rationality                 no non-integral exponent across the catalog
  9. minimal discriminant        exact valuation match on the degree <= 4
                                 catalog; |a(c0)(10^3) - 1| <= 5/10^3 on the
                                 degree <= 3 catalog (the bound is calibrated
                                 for d <= 3: four split linear factors already
                                 sit at ~6/p, see test_engine.py)
"""

import itertools
from fractions import Fraction as F

from oracle_reference import orbit_count_checks
from padicdens import engine, verify
from padicdens.engine import catalog, degree_slice
from padicdens.oracle import exact_disc_masses, sampled_disc_masses
from padicdens.splitting import SplittingType
from padicdens.symbolic import FracPoly, check_inversion_symmetry


def _catalog_three_bases(degree_max):
    out = []
    for eb, fb in ((1, 1), (2, 1), (1, 2)):
        out.extend(catalog(degree_max, eb, fb))
    return out


def _report(name, ok):
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_golden_values():
    checks = verify.golden_value_checks()
    _report("criterion 1 (golden density values)", all(ok for _, ok, _ in checks))


def test_criterion_2_partition_of_unity():
    ok = True
    for d in (2, 3):
        total = sum((engine.splitting_density(s) for s in degree_slice(d)), FracPoly(0))
        ok &= total == FracPoly(1)
    ta = sum((engine.monic_density(s) for s in degree_slice(2)), FracPoly(0))
    tb = sum((engine.centered_monic_density(s) for s in degree_slice(2)), FracPoly(0))
    ok &= ta == FracPoly(1) and tb == FracPoly(1)
    checks = verify.partition_of_unity_checks(_catalog_three_bases(4))
    ok &= len(checks) == 3 * 3 * 4 and all(passed for _, passed, _ in checks)
    _report("criterion 2 (partition of unity)", ok)


def test_criterion_3_functional_equation():
    ok = True
    for sigma in _catalog_three_bases(4):
        holds, _ = check_inversion_symmetry(engine.splitting_density(sigma))
        ok &= holds
    _report("criterion 3 (functional equation, degree <= 4, three bases)", ok)


def test_criterion_4_duality():
    ok = True
    for sigma in _catalog_three_bases(3):
        a = engine.monic_density(sigma)
        b = engine.centered_monic_density(sigma)
        ok &= (a.subs_inverse() - b).is_zero
    _report("criterion 4 (duality alpha(1/q) = beta(q), degree <= 3)", ok)


def test_criterion_5_asymptotics():
    checks = verify.asymptotic_checks(_catalog_three_bases(4))
    _report("criterion 5 (asymptotics: rho / asymptotic -> 1, exact)", all(ok for _, ok, _ in checks))


def test_criterion_6_oracle_equivalence():
    ok = True
    for sigma in catalog(4):
        for p in (3, 5):
            if not sigma.is_tame_at(p):
                continue
            for b in itertools.product((0, 1), repeat=sigma.m):
                oracle_masses = exact_disc_masses(sigma, b, 4, p)
                engine_masses = verify.engine_masses_at(sigma, b, 4, p)
                ok &= oracle_masses == engine_masses
    # Monte Carlo spot cases, 3 standard errors at 1e5 samples
    s2 = SplittingType(((1, 1), (1, 1)))
    est = sampled_disc_masses(s2, (0, 0), 0, 3, 100_000, seed=2024)[0]
    ok &= abs(est.estimate - 2 / 3) <= 3 * est.stderr
    s21 = SplittingType(((2, 1),))
    est = sampled_disc_masses(s21, (0,), 1, 5, 100_000, seed=2024)[1]
    ok &= abs(est.estimate - 4 / 5) <= 3 * est.stderr
    _report("criterion 6 (oracle = engine on the d <= 4 grid; MC 3-sigma)", ok)


def test_criterion_7_orbit_counts():
    checks = orbit_count_checks(
        e_max=6, f_max=3, b_max=3, primes=(3, 5, 7), mobius_limit=5**6
    )
    _report("criterion 7 (orbit-count identities on the full grid)", all(ok for _, ok, _ in checks))


def test_criterion_8_rationality():
    # rewrite into q must never hit a non-integral exponent; exercised across
    # the same catalog as criteria 1-3, including the nontrivial bases
    ok = True
    for sigma in _catalog_three_bases(4):
        rho = engine.splitting_density(sigma)
        ok &= all(e.denominator == 1 for terms in (rho.num_terms, rho.den_terms) for (e,) in terms)
        ok &= not engine.monic_density(sigma).is_zero
        ok &= not engine.centered_monic_density(sigma).is_zero
    _report("criterion 8 (rationality in q across the catalog)", ok)


def test_criterion_9_minimal_discriminant():
    ok = True
    for sigma in _catalog_three_bases(4):
        c0 = engine.min_disc_valuation(sigma)  # raises on mismatch
        ok &= c0 == F(
            sum(f * (e - 1) for e, f in zip(sigma.e_rel, sigma.f_rel)), sigma.e_base
        )
    p = 10**3
    for sigma in _catalog_three_bases(3):
        c0 = engine.min_disc_valuation(sigma)
        g = engine.disc_gen_fun(sigma, (0,) * sigma.m)
        ok &= abs(g.series_coefficients(c0, p)[c0] - 1) <= F(5, p)
    _report("criterion 9 (minimal discriminant valuation and leading mass)", ok)
