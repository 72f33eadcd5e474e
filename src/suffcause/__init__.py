"""Sufficient-cause analysis of binary causal DAGs with an exact oracle."""

from .causes import (
    CoCause,
    CoCauseKind,
    Conjunction,
    EventSpace,
    Literal,
    Representation,
    canonical_representation,
    conj,
    is_determinative,
    is_minimal_sufficient,
    is_nonredundant,
    is_sufficient,
    reduce_to_minimal,
    reduce_to_nonredundant,
)
from .covsign import (
    AssertedFacts,
    CovQuantity,
    CovsignAnalysis,
    Flag,
    OracleCheck,
    Outcome,
    RepFacts,
    SignConclusion,
    TransferPremises,
    check_transfer_premises_direct,
    check_transfer_premises_shared,
    covsign_analysis,
    expectation_monotone_premise,
    facts_from_scm,
    oracle_check,
    pair_conclusions,
    read_assertions,
    transfer_sign,
)
from .expansion import (
    ExpandedDag,
    expand,
    expand_model,
    expanded_distribution,
    stratum_conditioning_set,
    stratum_independent,
    stratum_witness,
)
from .graph import (
    Dag,
    GraphError,
    Path,
    can_marginalize,
    common_causes,
    d_separated,
    find_unblocked_path,
    marginalize,
    path_signs,
)
from .modelfile import Assertion, Model, ModelError, load_model, parse_model, serialize_model
from .oracle import (
    ConditioningError,
    DrawPlan,
    GenerationError,
    conditional_covariance,
    conditional_independent,
    draw_plan,
    random_instance,
    verify_claim,
)
from .scm import (
    DEFAULT_WORLD_BUDGET,
    BudgetExceededError,
    ExactDistribution,
    ResponseTable,
    Scm,
    config_index,
    dedupe_states,
    joint_distribution,
    substitute,
)
from .signs import (
    Relation,
    Sign,
    detect_monotonic_effect,
    is_constant_in,
    monotonic_effect_via_canonical,
    monotonically_associated,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
