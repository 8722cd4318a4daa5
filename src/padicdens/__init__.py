"""Exact densities of polynomials over local fields by tame splitting type.

The package computes, as closed-form rational functions of the residue field
size, the density of polynomials over a local field that generate an etale
extension with a prescribed tame splitting type, together with an independent
combinatorial oracle that re-derives the same masses by counting over
truncated Teichmuller expansions.  It exports what the CLI runs: the engine,
the oracle's exact and sampled masses, and the symbolic values they return.
"""

from .errors import (
    DivisibilityError,
    NonIntegralExponentError,
    NoSeriesExpansionError,
    PadicDensError,
    SigmaParseError,
    TooLargeError,
    VerificationError,
    WildInputError,
)
from .symbolic import FracPoly, GenFun, check_inversion_symmetry, rewrite_in_q
from .splitting import SplittingType
from .engine import (
    catalog,
    centered_monic_density,
    density_asymptotic,
    density_gen_fun,
    disc_gen_fun,
    min_disc_valuation,
    monic_density,
    splitting_density,
)
from .oracle import exact_disc_masses, sampled_disc_masses

__version__ = "0.1.0"
