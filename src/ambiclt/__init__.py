"""Numerics for central limit behaviour under mean ambiguity.

The toolkit models each experiment by a finite set of equivalent discrete
laws with a common variance and ambiguous mean, and provides four mutually
checking routes to the limiting worst-case expectations:

- closed-form indicator limits and the reflected-drift transition density
  (:mod:`ambiclt.closed_form`),
- a finite-difference solver for the nonlinear drift-control PDE
  (:mod:`ambiclt.pde`),
- exact finite-n worst cases by backward dynamic programming, with seeded
  Monte Carlo policy bounds (:mod:`ambiclt.worst_case`),
- the drift-switching statistics themselves (:mod:`ambiclt.statistics`),

plus a robust hypothesis-testing workbench (:mod:`ambiclt.hyptest`) and a
command-line front end (:mod:`ambiclt.cli`).
"""

from .measures import (
    AmbiguityInterval,
    BadParameters,
    DegenerateSigma,
    DiscreteMeasure,
    MeasureSet,
    SupportMismatch,
    VarianceAmbiguous,
    coin_example,
    interval,
    load_measure_set,
    measure_set_from_text,
    validate_measure_set,
)
from .statistics import (
    VARIANT_M,
    VARIANT_TILDE,
    LengthMismatch,
    SwitchRule,
    condition1_diagnostic,
    path_statistic,
    statistic_trace,
)
from .closed_form import (
    BadInterval,
    BadTime,
    NotMonotone,
    lower_indicator_limit,
    monotone_reduction,
    normal_cdf,
    one_sided_limit,
    reflected_density,
    shift_reduce,
    upper_indicator_limit,
)
from .terminal import TerminalFunction
from .pde import (
    GeneratorSpec,
    OutOfDomain,
    PdeGrid,
    UnstableGrid,
    dpp_check,
    epsilon_extrapolate,
    solve_g_expectation,
)
from .worst_case import (
    ConvergenceReport,
    DpLattice,
    DriftPolicy,
    McEstimate,
    StateExplosion,
    builtin_policies,
    convergence_report,
    dp_lattice,
    enumerate_worst_case,
    inf_dp_special_tilde,
    mc_policy_value,
    product_model_value,
    simulate_statistic_values,
    sup_dp_clt,
    sup_dp_deviation,
    sup_dp_lln,
    sup_dp_scaled,
    sup_dp_special,
)
from .hyptest import (
    EmptyTheta,
    Infeasible,
    NoConvergence,
    TestSpec,
    ThetaSet,
    calibrate_interval,
    optimize_ab,
    size_power_simulation,
    test_decision,
    wrong_acceptance,
)

__version__ = "0.1.0"
