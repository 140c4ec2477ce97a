"""Total (admissible) orders on closed subintervals of [0,1].

Build aggregation functions (quasi-arithmetic means, endpoint projections,
pairwise generator means, Archimedean t-norms/t-conorms), decide whether a
pair of them orders intervals without collisions, rank interval data with
the resulting total orders, and analyze when a generated order coincides
with a projection order.
"""

from .admissibility import (
    Outcome,
    Verdict,
    Witness,
    admissible_for_all_weight_orders,
    check_pair,
    is_conjunctive,
    is_disjunctive,
    make_witness,
    nilpotent_witness,
    oracle_search,
    rule_k0_k1,
    rule_nilpotent,
    rule_quasi_linear,
)
from .aggregators import (
    AggregationError,
    AggregationFunction,
    KProjection,
    QuasiLinear,
    SchurPair,
    TConorm,
    TNorm,
    aggregator_from_config,
    exponential_mean,
    geometric_mean,
    k_mean,
    logit_mean,
    quasi_linear_mean,
    root_power_mean,
    schur_pair_mean,
    tconorm,
    tnorm,
)
from .battery import BatteryCase, BatteryRow, build_battery, run_battery
from .coincidence import (
    CoincidenceReport,
    DisagreementWitness,
    SchurClass,
    k_alpha_crossover,
    midpoint_order_coincidence,
    orders_coincide,
    projection_disagreement_witness,
    schur_classify,
)
from .generators import (
    Composite,
    Convexity,
    Generator,
    GeneratorError,
    ScanOutcome,
    ScanResult,
    collision_gap,
    collision_scan,
    composite,
    exponential,
    find_collision,
    generator_from_config,
    identity,
    logarithm,
    logit,
    negated_log,
    negated_log_complement,
    one_minus,
    power,
    registry_composite_shape,
    validate_generator,
)
from .intervals import (
    BOUNDARY_SLACK,
    DataError,
    DomainError,
    Interval,
    PartialComparison,
    interval_grid,
    load_intervals,
    partial_compare,
    read_intervals_csv,
    read_intervals_json,
    write_ranked_csv,
)
from .orders import (
    AlphaBetaOrder,
    GeneratedPairOrder,
    Ordering,
    OrderSpecError,
    compare,
    order_from_config,
    rank_indices,
    refines_interval_order,
    sign_matrix,
    sort_intervals,
    tie_classes,
)

__version__ = "0.1.0"
