"""arccover: Monte Carlo toolkit for one-dimensional random covering processes."""

__version__ = "0.1.0"

from .tails import TailFunction, parse_tail, karamata_ratio, rv_limit_probe, cf_estimate
from .torus import (
    CoverResult,
    run_to_cover,
    snapshot_vacant,
    vacancy_probability_exact,
    pair_vacancy_exact,
)
from .circle import (
    CircleConfiguration,
    VacantIntervals,
    ProjectionSet,
    sample_truncated,
    vacant_set,
    is_covered,
    count_missing_lattice,
    project_W,
    project_X,
    shepp_series,
)
from .stats import (
    EmpiricalDistribution,
    KSResult,
    OffspringLaw,
    gumbel_cdf,
    exp_cdf,
    ks_distance,
    coupon_collector_sample,
    preexp_bounds,
    branching_run,
    kesten_stigum_check,
)
from .seeding import derive_seed
