"""naifslab: a desk-scale numerical laboratory for the topological pressure
of non-autonomous iterated function systems."""

from .space import (
    MetricError,
    PointCloud,
    Potential,
    SpaceSpec,
    build_cloud,
    distance,
)
from .naifs import (
    FactorMapSpec,
    GenerationSchedule,
    MapSpec,
    NAIFS,
    Word,
    check_semiconjugacy,
    count_words,
    enumerate_words,
    fiber_indices,
    generation_at,
    power_system,
    reachable_points,
    truncate_system,
)
from .pressure import (
    AveragedPartitionSum,
    EpsSummary,
    ExtremalSetResult,
    PartitionSumResult,
    PressureCurve,
    SupEntropyEstimate,
    averaged_partition_sum,
    max_separated,
    min_spanning,
    partition_sum_separated,
    partition_sum_spanning,
    pressure_estimate,
    sup_entropy_estimate,
)
from .theorems import (
    EquicontinuityReport,
    InequalityReport,
    check_basic_properties,
    check_equicontinuity,
    check_factor_conjugacy,
    check_factor_lower,
    check_factor_upper,
    check_power_rule,
    check_truncation_monotonicity,
    default_proxy_tol,
    random_explicit_instance,
    run_finite_inequality_suite,
    summarize_reports,
)
from .cli import ConfigError, ExperimentConfig, run

__version__ = "0.1.0"
