"""Monochromatic k-term arithmetic progressions in random 2-colorings.

A library plus CLI for studying when a uniform random 2-coloring of
{1, ..., n} contains a monochromatic k-term arithmetic progression:
exact enumeration oracles at small n, almost-disjoint AP families,
closed-form probability bounds, and a reproducible Monte Carlo engine
that locates the empirical threshold in n and checks its 2^(k/2)-type
growth in k.
"""

__version__ = "0.1.0"

from .coloring import (
    Coloring,
    RandomStream,
    batch_has_mono_ap,
    count_mono_aps,
    has_mono_ap,
    mono_in_family,
    random_coloring,
)
from .errors import BruteForceCapError, SearchCeilingError
from .family import (
    APFamily,
    BlockPlan,
    block_count,
    block_plan,
    family_density,
    greedy_max_family,
    is_almost_disjoint,
    large_diff_family,
    large_diff_family_size,
)
from .montecarlo import (
    ProbEstimate,
    ScalingReport,
    ScalingRow,
    ThresholdResult,
    estimate_prob,
    scaling_report,
    standard_error,
    threshold_search,
    wilson_interval,
)
from .probability import (
    BonferroniBound,
    BoundReport,
    ExactDistribution,
    bonferroni_lower,
    exact_prob_mono,
    expected_mono,
    markov_upper,
    mono_count_distribution,
    mono_pair_count,
    mono_single_count,
    p0_lower_first_moment,
    p0_upper_blocks,
    threshold_scale_lower,
    threshold_scale_upper,
    union_mono_exact,
)
from .progressions import (
    Progression,
    contained_in,
    count_aps,
    elements,
    enumerate_aps,
    intersection_size,
)

__all__ = [
    "__version__",
    "APFamily",
    "BlockPlan",
    "BonferroniBound",
    "BoundReport",
    "BruteForceCapError",
    "Coloring",
    "ExactDistribution",
    "ProbEstimate",
    "Progression",
    "RandomStream",
    "ScalingReport",
    "ScalingRow",
    "SearchCeilingError",
    "ThresholdResult",
    "batch_has_mono_ap",
    "block_count",
    "block_plan",
    "bonferroni_lower",
    "contained_in",
    "count_aps",
    "count_mono_aps",
    "elements",
    "enumerate_aps",
    "estimate_prob",
    "exact_prob_mono",
    "expected_mono",
    "family_density",
    "greedy_max_family",
    "has_mono_ap",
    "intersection_size",
    "is_almost_disjoint",
    "large_diff_family",
    "large_diff_family_size",
    "markov_upper",
    "mono_count_distribution",
    "mono_in_family",
    "mono_pair_count",
    "mono_single_count",
    "p0_lower_first_moment",
    "p0_upper_blocks",
    "random_coloring",
    "scaling_report",
    "standard_error",
    "threshold_scale_lower",
    "threshold_scale_upper",
    "threshold_search",
    "union_mono_exact",
    "wilson_interval",
]
