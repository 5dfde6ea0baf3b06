"""Exact and randomized read-once tests for multilinear polynomials over GF(p).

The package splits into arithmetic layers (ff, mpoly, rof), structural
decomposition (decomp), the exact characterization built on certified
assignments (charax), black-box testers (testers), known stress families
(hardcases), and a CLI (cli).
"""

from .charax import (
    INDETERMINATE,
    READ_MANY,
    ROP,
    CharacterizeReport,
    GoodnessChecker,
    certificate_multiplicands,
    characterize,
    is_locally_rop,
)
from .decomp import (
    additive_split,
    brute_force_is_rop,
    commutator,
    decomp_witness,
    decompose,
    gate_graph,
    is_additively_separable,
    multiplicative_split,
    trivariate_is_rop,
    witness_is_zero,
)
from .errors import Error
from .ff import MAX_PRIME, FieldCtx, is_prime
from .hardcases import local_rop_fraction, q_n
from .mpoly import MPoly, interpolate_grid, parse_poly_file, random_multilinear
from .rof import Oracle, Rof, as_oracle, corrupt_oracle, random_rof
from .testers import (
    NO,
    YES,
    TestReport,
    property_test,
    read_once_test,
    tau_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterizeReport", "Error", "FieldCtx",
    "GoodnessChecker", "INDETERMINATE", "MAX_PRIME", "MPoly", "NO", "Oracle",
    "READ_MANY", "ROP", "Rof", "TestReport", "YES",
    "additive_split", "as_oracle", "brute_force_is_rop", "certificate_multiplicands",
    "characterize", "commutator", "corrupt_oracle", "decomp_witness",
    "decompose", "gate_graph", "interpolate_grid", "is_additively_separable",
    "is_locally_rop", "is_prime", "local_rop_fraction",
    "multiplicative_split", "parse_poly_file", "property_test", "q_n",
    "random_multilinear", "random_rof", "read_once_test", "tau_estimate",
    "trivariate_is_rop", "witness_is_zero",
]
