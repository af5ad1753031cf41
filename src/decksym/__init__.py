"""decksym: recover hidden symmetries of parametric polynomial systems.

Pipeline: numerical monodromy discovers the solution fiber and its
permutation group; the centralizer of that group gives the deck
transformations' fiber action; exact Smith-Normal-Form analysis of the
equation supports detects continuous and discrete scaling symmetries; and
rational interpolation (dense or multigraded) recovers explicit formulas for
each deck transformation.
"""

from .expr import (
    ParseError,
    Polynomial,
    RationalFunction,
    System,
    format_polynomial,
    format_rational,
    jacobian,
    monomials_up_to_degree,
    parse_deck_formulas,
    parse_seed_pair,
    parse_system,
)
from .interp import (
    DeckMap,
    get_representative,
    held_out_fibers,
    interpolate_dense,
    interpolate_graded,
    verify_deck,
)
from .monodromy import (
    FiberSample,
    MonodromyError,
    MonodromyResult,
    run_monodromy,
    sample_orbit,
    seed_from_linear_params,
)
from .numcore import nullspace, rref
from .permgrp import (
    PermutationGroup,
    centralizer_in_symmetric,
    group_order_capped,
    is_transitive,
    minimal_block_systems,
)
from .scaling import (
    IntMatrix,
    ScalingLattice,
    commuting_discrete_scalings,
    detect_scalings,
    exponent_difference_matrix,
    extract_scaling_lattice,
    denominator_multidegree,
    smith_normal_form,
)
from .tracker import (
    PathResult,
    newton_polish,
    track_fiber,
    track_path,
    track_paths,
)

__version__ = "0.1.0"
