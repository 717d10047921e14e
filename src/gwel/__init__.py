"""Random walks on free groups and their quotients.

Exact free-group arithmetic, step distributions with an exact rational
channel, coset enumeration, growth and cogrowth series, entropy and
drift (exact and Monte Carlo), the hitting measure on the boundary, and
finite partition lattices.  All entropies are in nats.
"""

__version__ = "0.1.0"  # the one version string; pyproject.toml and reports read it

from .boundary import (
    boundary_entropy,
    boundary_entropy_coefficient,
    cocycle_check,
    proximality_sim,
    rn_integral,
)
from .entropy import (
    drift_mc,
    entropy_gap_check,
    exact_drift,
    exact_free_entropy,
    guivarch_check,
    quotient_entropy_dp,
    radial_entropy_exact,
    theorem_a_bound,
    theorem_a_coefficient,
)
from .errors import (
    ConvergenceError,
    CosetLimitError,
    GwelError,
    ParameterError,
    ParseError,
    ResourceGuardError,
)
from .growth import ball_counts, grigorchuk_delta
from .lattice import (
    FiniteAction,
    FiniteSpace,
    Partition,
    entropy_functional,
    join,
    l2_distance,
    meet,
    monotone_chain_limit,
)
from .measures import Distribution, srw
from .parsing import parse_lattice_config, parse_quotient_spec
from .quotients import (
    AbelianRep,
    PermRep,
    TrivialRep,
    coset_enumerate,
    from_point_permutations,
)
from .words import FreeGroup, Word, ball_size, parse_word, sphere_size

__all__ = [
    "AbelianRep",
    "ConvergenceError",
    "CosetLimitError",
    "Distribution",
    "FiniteAction",
    "FiniteSpace",
    "FreeGroup",
    "GwelError",
    "ParameterError",
    "ParseError",
    "Partition",
    "PermRep",
    "ResourceGuardError",
    "TrivialRep",
    "Word",
    "ball_counts",
    "ball_size",
    "boundary_entropy",
    "boundary_entropy_coefficient",
    "cocycle_check",
    "coset_enumerate",
    "drift_mc",
    "entropy_functional",
    "entropy_gap_check",
    "exact_drift",
    "exact_free_entropy",
    "from_point_permutations",
    "grigorchuk_delta",
    "guivarch_check",
    "join",
    "l2_distance",
    "meet",
    "monotone_chain_limit",
    "parse_lattice_config",
    "parse_quotient_spec",
    "parse_word",
    "proximality_sim",
    "quotient_entropy_dp",
    "radial_entropy_exact",
    "rn_integral",
    "sphere_size",
    "srw",
    "theorem_a_bound",
    "theorem_a_coefficient",
]
