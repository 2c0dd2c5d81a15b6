"""Kernel density estimation on the circle with data-driven smoothing.

The package estimates a circular density (or its derivatives) from
angular data and picks the smoothing parameter automatically.  The main
entry points are the selector functions (`select_dpi`, `select_ste`,
`select_rt`, `select_lcv`, `select_gold`), the estimator surface
(`kde`, `kde_deriv`, `psi_hat`), and the kernel family toolkit
(`KernelSpec`, `bandwidth`, `concentration_from_bandwidth`).  A
Monte-Carlo benchmarking harness lives in `circkde.simulate` and a
command-line front end in `circkde.cli`.
"""

from .errors import (
    BracketingError,
    FitError,
    ToleranceError,
    UnsupportedKernelError,
)
from .estimators import (
    CircularSample,
    DensityGrid,
    FunctionalEstimate,
    default_grid,
    grid_ise,
    ise,
    ise_weights,
    kde,
    kde_deriv,
    kde_values,
    psi_hat,
    truth_on_ise_grid,
)
from .kernels import (
    UNIFORM_BANDWIDTH,
    UNIFORM_FALLBACK,
    KernelConstants,
    KernelFamily,
    KernelSpec,
    bandwidth,
    bandwidth_approx,
    concentration_from_bandwidth,
    derivative_weights,
    fourier_coefficient,
    is_uniform_fallback,
    kernel_constants,
    kernel_value,
    roughness,
    wrap_angle,
)
from .mixture import (
    FitReport,
    MixtureModel,
    fit_em,
    mixture_density,
    mixture_fourier,
    mixture_sample,
    psi_from_model,
    select_aic,
)
from .selectors import (
    SelectorConfig,
    SelectorMethod,
    SmoothingSelection,
    TraceEntry,
    amise_value,
    default_gold_grid,
    optimal_h_amise,
    pilot_h_amse,
    select_dpi,
    select_gold,
    select_lcv,
    select_rt,
    select_ste,
)
from .simulate import (
    ModelSpec,
    SimResult,
    builtin_models,
    emit_table,
    realized_ise,
    run_monte_carlo,
)
from .special import (
    bessel_ratio,
    bessel_ratios,
    find_root,
    integrate_circle,
    inv_bessel_ratio,
    polylog,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "BracketingError",
    "FitError",
    "ToleranceError",
    "UnsupportedKernelError",
    # estimators
    "CircularSample",
    "DensityGrid",
    "FunctionalEstimate",
    "default_grid",
    "grid_ise",
    "ise",
    "ise_weights",
    "kde",
    "kde_deriv",
    "kde_values",
    "psi_hat",
    "truth_on_ise_grid",
    # kernels
    "UNIFORM_BANDWIDTH",
    "UNIFORM_FALLBACK",
    "KernelConstants",
    "KernelFamily",
    "KernelSpec",
    "bandwidth",
    "bandwidth_approx",
    "concentration_from_bandwidth",
    "derivative_weights",
    "fourier_coefficient",
    "is_uniform_fallback",
    "kernel_constants",
    "kernel_value",
    "roughness",
    "wrap_angle",
    # mixtures
    "FitReport",
    "MixtureModel",
    "fit_em",
    "mixture_density",
    "mixture_fourier",
    "mixture_sample",
    "psi_from_model",
    "select_aic",
    # selectors
    "SelectorConfig",
    "SelectorMethod",
    "SmoothingSelection",
    "TraceEntry",
    "amise_value",
    "default_gold_grid",
    "optimal_h_amise",
    "pilot_h_amse",
    "select_dpi",
    "select_gold",
    "select_lcv",
    "select_rt",
    "select_ste",
    # simulation harness
    "ModelSpec",
    "SimResult",
    "builtin_models",
    "emit_table",
    "realized_ise",
    "run_monte_carlo",
    # special functions
    "bessel_ratio",
    "bessel_ratios",
    "find_root",
    "integrate_circle",
    "inv_bessel_ratio",
    "polylog",
]
