"""Heavy-tail claim size modeling toolkit.

Tail-adjusted claim-size distributions (survival products and discrete
mixtures over Pareto/GPD bases), minimum Anderson-Darling estimation with
rank weighting, a Monte-Carlo longest-run test for Pareto tails, and
bootstrap inference.
"""

from .core_dist import (
    BracketError,
    DistributionSpec,
    Family,
    OrderedSample,
    ParameterError,
    cdf,
    density,
    edf_positions,
    exponential,
    gpd,
    invert_cdf,
    pareto,
    quantile,
    sample,
    shifted_weibull,
    stepped_pareto,
    survival,
)
from .tail_model import (
    AdjustedModel,
    LowerAdjustment,
    ModelInvalidError,
    UpperAdjustment,
    adjusted_cdf,
    adjusted_quantile,
    adjusted_survival,
    composed_ev_index,
    lower_gpd_adjuster,
    model_from_json,
    model_to_json,
    transition_probability_limit,
    validate_conditions,
)
from .claim_process import (
    InflationScenario,
    sample_max_principle,
    sample_mechanism,
    sample_min_principle,
    sample_thinned,
    simulate_inflation_scenario,
    substream,
    thinned_cdf_closed,
)
from .estimation import (
    FitResult,
    MadConfig,
    PipelinePlan,
    Weighting,
    ad_statistic,
    fit_gpd_ml,
    fit_mad,
    fit_pipeline,
    hill_estimate,
    mad_objective,
    spacings_estimate,
)
from .gof import Margins, TailTestResult, pareto_tail_test, qq_coordinates, run_lengths
from .resampling import BootstrapSummary, bootstrap_fit

__version__ = "0.12.0"
