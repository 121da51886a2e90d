"""Randomization-based causal inference with many covariates.

Point estimation, debiasing, and variance estimation for the average
treatment effect in completely randomized experiments where the covariate
count p may be a nontrivial fraction of the sample size n, plus the
Monte Carlo harness used to study the estimators' operating
characteristics.
"""

__version__ = "0.1.0"

from .design import (
    Assignment,
    HatStructure,
    build_hat_structure,
    complete_randomization,
    enumerate_assignments,
    substream,
)
from .dgp import (
    BaseTables,
    CellConfig,
    build_cell,
    gen_base_tables,
    p_for_alpha,
    t_residual,
    trans,
    worst_case_residual,
)
from .estimators import (
    ObservedData,
    ScienceTable,
    debias_correction,
    observe,
    tau_adj,
    tau_db,
    tau_lin,
    tau_lin_db,
    tau_unadj,
)
from .finitepop import (
    sample_variance,
    scale,
    scaled_covariance,
    scaled_variance,
)
from .harness import (
    ESTIMATORS,
    CellResult,
    enumeration_check,
    run_cell,
    run_factorial,
)
from .inference import (
    EfficiencyBounds,
    OracleVariances,
    ResidualSet,
    VarianceEstimate,
    efficiency_bounds,
    estimate_variance,
    hc3_variance,
    necessary_bound,
    neyman_variance_unadj,
    oracle_variances,
    residuals,
    rl2_curve,
    variance_components,
    wald_ci,
)

from .blas import pin_openblas as _pin_openblas

#: one record per loaded OpenBLAS library (path, config, threads, pinned);
#: pinned last, once the submodules have loaded numpy's and scipy's copies
BLAS = _pin_openblas()

__all__ = [name for name in dir() if not name.startswith("_")]
