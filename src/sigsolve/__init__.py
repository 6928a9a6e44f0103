"""sigsolve: exact toolkit for signaling games with costly monitoring.

Builds the normal forms of a signaling game and of its costly-monitoring
variant, enumerates all extreme Nash equilibria exactly, groups them into
components with integer indices, and sweeps the monitoring cost to check
which pooling components survive small costs close to their original outcome.
"""

from .catalog import beer_quiche
from .game import (
    ReceiverStrategy,
    ReceiverStrategyC,
    SenderStrategy,
    SignalingGame,
    classify_outcome,
    enumerate_plays,
    outcome_distance,
    outcome_of_profile,
    validate_game,
)
from .normalform import (
    BimatrixGame,
    StrategyClass,
    build_normal_form,
    build_sgcm_normal_form,
    embed_map,
    monitored_form,
    reduce_normal_form,
    reduced_sgcm,
    strategy_spaces,
    strategy_spaces_c,
)
from .equilibrium import (
    Component,
    MixedEquilibrium,
    NashSubset,
    component_outcome,
    enumerate_extreme_equilibria,
    group_components,
    is_equilibrium,
    maximal_nash_subsets,
    solve_components,
)
from .indices import (
    DrawStore,
    IndexResult,
    PerturbationConfig,
    component_index,
    duplicate_containment_check,
    equilibrium_index,
)
from .sweep import (
    SweepRecord,
    ThresholdResult,
    cost_sweep,
    distance_scaling,
    resolve_base_component,
    survival_threshold,
    verify_theorem_bound,
)

__version__ = "0.1.0"
