"""Oracle internals: conjugates, valuations, enumeration, orbit counting.

The per-element model and the orbit brute forces are the references in
oracle_reference.py; the exact and sampled masses are the package's."""

from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_reference import (
    CommonExpansion,
    LengthMismatchError,
    TameFieldDesc,
    TeichExpansion,
    check_index_parity,
    conjugates,
    count_orbit_choices,
    disc_valuation,
    orbit_choices_closed_form,
    pair_valuation,
)
from padicdens import oracle
from padicdens.errors import SigmaParseError, TooLargeError, WildInputError
from padicdens.oracle import (
    MAX_B_ENTRY,
    MassEstimate,
    _layout,
    _valuations_for_digits,
    exact_disc_masses,
    sampled_disc_masses,
)
from padicdens.splitting import SplittingType
from padicdens.verify import engine_masses_at


def test_field_desc_validation():
    with pytest.raises(WildInputError):
        TameFieldDesc(2, 2, 1, 0)
    with pytest.raises(WildInputError):
        TameFieldDesc(9, 2, 1, 0)  # not prime
    with pytest.raises(ValueError):
        TameFieldDesc(5, 2, 1, 5)  # j out of range


def test_conjugates_worked_example():
    # x = zeta + pi in the (e=2, f=3) extension: six conjugates
    # zeta^(p^r) +/- pi, pairwise distinct
    fld = TameFieldDesc(7, 2, 3, 0)
    x = TeichExpansion.from_root_exponents(fld, {0: 1, 1: 0}, 4)
    conj = conjugates(x)
    assert len(conj) == 6
    assert len({c.slots for c in conj}) == 6
    # slot-0 content takes exactly three values (the Frobenius orbit of zeta)
    assert len({c.slots[0] for c in conj}) == 3
    # each slot-1 coefficient is +-1 (exponents 0 and half the lattice order)
    assert {c.slots[1] for c in conj} == {0, fld.lattice // 2 * 1 % fld.lattice}


def test_conjugates_frobenius_fixed_point():
    # an element of the prime field is fixed by every conjugation
    fld = TameFieldDesc(5, 2, 2, 0)
    prime_field_exp = (5**2 - 1) // (5 - 1)  # exponent of a (p-1)-th root
    x = TeichExpansion.from_root_exponents(fld, {0: prime_field_exp}, 2)
    conj = conjugates(x)
    assert len(conj) == 4
    assert len({c.slots for c in conj}) == 1


def test_conjugates_uniformizer_sign_twist():
    fld = TameFieldDesc(5, 2, 1, 0)
    x = TeichExpansion.from_root_exponents(fld, {1: 0}, 3)
    conj = conjugates(x)
    assert [c.slots for c in conj] == [(None, 0, None), (None, 4, None)]


def test_pair_valuation_examples():
    fld = TameFieldDesc(7, 2, 3, 0)
    x = TeichExpansion.from_root_exponents(fld, {0: 1, 1: 0}, 4)
    conj = conjugates(x)
    # same slot-0 coefficient, opposite uniformizer sign: valuation 1/2
    assert pair_valuation(conj[0], conj[1]) == F(1, 2)
    # different Frobenius images of a primitive root: valuation 0
    assert pair_valuation(conj[0], conj[2]) == F(0)
    # identical expansions stay unresolved
    assert pair_valuation(conj[0], conj[0]) is None


def test_pair_valuation_lattice_mismatch():
    a = CommonExpansion(2, 8, (0, None))
    b = CommonExpansion(2, 8, (0, None, None))
    with pytest.raises(LengthMismatchError):
        pair_valuation(a, b)


def test_disc_valuation_examples():
    # single linear component: empty product
    fld = TameFieldDesc(5, 1, 1, 0)
    x = TeichExpansion.from_root_exponents(fld, {0: 1}, 3)
    assert disc_valuation((x,)) == 0
    # two integral units with distinct residues
    y = TeichExpansion.from_root_exponents(fld, {0: 2}, 3)
    assert disc_valuation((x, y)) == 0
    # the square root of p: discriminant valuation 1
    fld2 = TameFieldDesc(5, 2, 1, 0)
    z = TeichExpansion.from_root_exponents(fld2, {1: 0}, 3)
    assert disc_valuation((z,)) == 1


def test_disc_valuation_unresolved():
    fld = TameFieldDesc(5, 1, 1, 0)
    x = TeichExpansion.from_root_exponents(fld, {0: 1}, 2)
    assert disc_valuation((x, x)) is None


@given(st.data())
def test_valuation_ultrametric(data):
    """v(x - z) >= min(v(x - y), v(y - z)) on resolved triples."""
    fld = TameFieldDesc(3, 2, 1, 0)
    n_slots = 4

    def rand_exp(label):
        slots = tuple(
            data.draw(st.sampled_from([None, 0, 2]), label=f"{label}{i}")
            for i in range(n_slots)
        )
        return CommonExpansion(2, 4, slots)

    x, y, z = (rand_exp(l) for l in "xyz")
    vxz = pair_valuation(x, z)
    vxy = pair_valuation(x, y)
    vyz = pair_valuation(y, z)
    if vxy is not None and vyz is not None and vxz is not None:
        assert vxz >= min(vxy, vyz)


def test_exact_masses_match_engine_spot():
    s2 = SplittingType(((1, 1), (1, 1)))
    assert exact_disc_masses(s2, (0, 0), 4, 3) == {
        0: F(2, 3),
        2: F(2, 9),
        4: F(2, 27),
    }
    s21 = SplittingType(((2, 1),))
    assert exact_disc_masses(s21, (0,), 3, 5) == {1: F(4, 5), 3: F(4, 25)}
    s12 = SplittingType(((1, 2),))
    assert exact_disc_masses(s12, (1,), 0, 3) == {}


def test_exact_masses_depth_conditioning():
    # depth vector reduces the cylinder measure by p^(-f b)
    s = SplittingType(((1, 2),))
    masses = exact_disc_masses(s, (1,), 4, 3)
    assert masses == engine_masses_at(s, (1,), 4, 3)
    assert sum(masses.values()) <= F(1, 9)


def _brute_force_masses(sigma, b, c_max, p):
    """The masses by visiting every digit pattern and every class vector."""
    layout = _layout(sigma, b, c_max, p)
    E, _, _, per = layout
    keys = [(i, slot) for i, comp in enumerate(per) for slot in range(comp["b"], comp["n_slots"])]
    patterns = np.array(list(product(*(range(per[i]["radix"]) for i, _ in keys))), dtype=np.int64)
    digit_arrays = {key: patterns[:, k] for k, key in enumerate(keys)}
    jvecs = list(product(*(range(comp["gcd_j"]) for comp in per)))
    counts = {}
    for jvec in jvecs:
        v, resolved = _valuations_for_digits(digit_arrays, jvec, layout, p)
        for c in (v[resolved] // E).tolist():
            counts[c] = counts.get(c, 0) + 1
    unit = F(1, p ** sum(comp["f"] * comp["n_slots"] for comp in per) * len(jvecs))
    return {c: counts[c] * unit for c in sorted(counts) if c <= c_max}


@pytest.mark.parametrize(
    "comps,b,p,c_max",
    [
        (((1, 1), (1, 1)), (0, 0), 3, 3),
        (((2, 1),), (0,), 5, 3),
        (((1, 2),), (1,), 3, 3),
        (((2, 2),), (0,), 3, 2),      # two isomorphism classes
        (((1, 1), (2, 1)), (1, 0), 3, 3),
        (((1, 1), (1, 1), (1, 1)), (0, 0, 0), 3, 2),
        (((2, 1), (2, 1)), (0, 0), 3, 3),  # class vectors on both: four of them
        (((1, 2), (2, 1)), (0, 0), 5, 2),  # mixed e and f on shared slots
        (((1, 1),) * 4, (0,) * 4, 3, 2),   # four components
    ],
)
def test_exact_masses_match_brute_force(comps, b, p, c_max):
    sigma = SplittingType(comps)
    masses = exact_disc_masses(sigma, b, c_max, p)
    assert masses and masses == _brute_force_masses(sigma, b, c_max, p)


def test_exact_masses_guard(monkeypatch):
    monkeypatch.setattr(oracle, "GUARD", 10**4)
    s = SplittingType(((1, 3), (1, 3)))
    with pytest.raises(TooLargeError):
        exact_disc_masses(s, (0, 0), 8, 5)


def test_exact_masses_guard_counts_states(monkeypatch):
    """Nine digit tuples per slot stay far below the guard; the (state, v)
    entries of the dynamic program, which grow with c_max, do not."""
    monkeypatch.setattr(oracle, "GUARD", 10**6)
    s = SplittingType(((1, 1), (1, 1)))
    with pytest.raises(TooLargeError):
        exact_disc_masses(s, (0, 0), 4000, 3)


def test_depth_bound_admits_its_value():
    """An entry of b at MAX_B_ENTRY is counted and matches the engine; one
    above it fails before any count."""
    s = SplittingType(((1, 1), (1, 1)))
    b = (MAX_B_ENTRY, 0)
    assert exact_disc_masses(s, b, 4, 3) == engine_masses_at(s, b, 4, 3)
    with pytest.raises(TooLargeError):
        exact_disc_masses(s, (0, MAX_B_ENTRY + 1), 4, 3)


def test_exact_masses_wild_prime():
    with pytest.raises(WildInputError):
        exact_disc_masses(SplittingType(((2, 1),)), (0,), 2, 2)
    with pytest.raises(WildInputError):
        exact_disc_masses(SplittingType(((2, 1),)), (0,), 2, 9)


def test_sampling_deterministic_and_unbiased():
    s2 = SplittingType(((1, 1), (1, 1)))
    a = sampled_disc_masses(s2, (0, 0), 2, 3, 50_000, seed=11)
    b = sampled_disc_masses(s2, (0, 0), 2, 3, 50_000, seed=11)
    assert a == b
    est = a[0]
    assert isinstance(est, MassEstimate)
    assert abs(est.estimate - 2 / 3) <= 3 * est.stderr


def test_sampling_ramified_spot():
    s21 = SplittingType(((2, 1),))
    est = sampled_disc_masses(s21, (0,), 1, 5, 50_000, seed=5)[1]
    assert abs(est.estimate - 4 / 5) <= 3 * est.stderr


@pytest.mark.parametrize(
    "e,f,b,k,p,expected",
    [
        (2, 1, 1, 2, 5, 8),
        (1, 2, 0, 2, 3, 6),
        (1, 1, 0, 2, 5, 0),
    ],
)
def test_count_orbit_choices_examples(e, f, b, k, p, expected):
    assert count_orbit_choices(e, f, b, k, p) == expected
    assert orbit_choices_closed_form(e, f, b, k, p) == expected


def test_count_orbit_choices_small_grid():
    for p in (3, 5):
        for e in (1, 2, 4):
            if e % p == 0:
                continue
            for f in (1, 2):
                for b in (0, 1, 2):
                    for k in range(1, 2 * e * f + 1):
                        assert count_orbit_choices(e, f, b, k, p) == (
                            orbit_choices_closed_form(e, f, b, k, p)
                        ), (e, f, b, k, p)


def test_index_parity_reports():
    rep = check_index_parity(TameFieldDesc(5, 2, 3, 0), n_samples=60, seed=3)
    assert rep["checked"] > 0
    assert rep["parity_ok"] == rep["checked"]
    rep = check_index_parity(TameFieldDesc(5, 2, 1, 0), n_samples=60, seed=4)
    assert rep["parity_ok"] == rep["checked"]
    rep = check_index_parity(TameFieldDesc(3, 1, 2, 0), n_samples=60, seed=5)
    assert rep["parity_ok"] == rep["checked"]


def test_generic_samples_have_full_conjugate_count():
    """Primitive leading coefficient plus nonzero second coefficient force
    the full e*f distinct conjugates."""
    import numpy as np

    fld = TameFieldDesc(5, 2, 2, 1)
    rng = np.random.default_rng(9)
    order = fld.root_order
    for _ in range(40):
        lead = int(rng.integers(0, order))
        if pow(5, 1, order) * lead % order == lead:  # not primitive over F_5
            continue
        second = int(rng.integers(0, order))
        x = TeichExpansion.from_root_exponents(fld, {0: lead, 1: second}, 4)
        conj = conjugates(x)
        assert len({c.slots for c in conj}) == fld.e * fld.f


@pytest.mark.parametrize(
    "comps,b,p,c_max",
    [
        (((2, 2),), (0,), 3, 2),      # two isomorphism classes averaged
        (((2, 2),), (1,), 3, 2),
        (((1, 1), (3, 1)), (0, 0), 5, 2),
        (((1, 2), (2, 1)), (0, 0), 3, 2),
    ],
)
def test_degree_four_oracle_spots(comps, b, p, c_max):
    sigma = SplittingType(comps)
    assert exact_disc_masses(sigma, b, c_max, p) == engine_masses_at(
        sigma, b, c_max, p
    )


S11x2 = SplittingType(((1, 1), (1, 1)))
ORACLE_MODES = {
    "exact": exact_disc_masses,
    "sampled": lambda sigma, b, c_max, p: sampled_disc_masses(sigma, b, c_max, p, 1000, seed=0),
}


@pytest.mark.parametrize("mode", ORACLE_MODES)
@pytest.mark.parametrize(
    "sigma,b,message",
    [
        (S11x2, (0,), "depth vector [0] must have 2 nonnegative entries"),
        (S11x2, (0, -1), "depth vector [0, -1] must have 2 nonnegative entries"),
        (
            SplittingType(((4, 1),), 2, 1), (0,),
            "the oracle works over the base (1,1) only, not e4f1@e2f1",
        ),
    ],
    ids=["short", "negative", "deeper-base"],
)
def test_oracle_modes_reject_alike(mode, sigma, b, message):
    """Both modes check their arguments in one place, with one message."""
    with pytest.raises(SigmaParseError) as err:
        ORACLE_MODES[mode](sigma, b, 2, 3)
    assert str(err.value) == message


@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_oracle_names_tameness_before_depths(mode):
    with pytest.raises(WildInputError):
        ORACLE_MODES[mode](SplittingType(((2, 1),)), (0, 1), 2, 2)


def test_oracle_requires_unramified_base():
    deep = SplittingType(((4, 1),), 2, 1)
    with pytest.raises(SigmaParseError):
        exact_disc_masses(deep, (0,), 2, 3)
    with pytest.raises(SigmaParseError):
        sampled_disc_masses(deep, (0,), 2, 3, 10, seed=0)
