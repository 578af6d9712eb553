"""Third-order quasi-compact schemes for space tempered fractional diffusion.

The package splits into coefficient generation (:mod:`tempfrac.calculus`),
quadrature reference evaluators (:mod:`tempfrac.oracle`), discrete operator
assembly (:mod:`tempfrac.operators`), spectral stability diagnostics
(:mod:`tempfrac.spectral`), implicit solvers in one and two dimensions
(:mod:`tempfrac.solver1d`, :mod:`tempfrac.solver2d`), and a
manufactured-solution verification harness (:mod:`tempfrac.verification`).
"""

from .calculus import (
    ExpansionCoefficients,
    GrunwaldWeights,
    QuasiCompactCoefficients,
    TemperedParams,
    WeightTable,
    exact_power_derivative,
    expansion_coefficients,
    grunwald_weights,
    quasi_compact_coefficients,
    tempered_weights,
    weight_sum_limit,
)
from .operators import (
    CompactMatrixB,
    Grid1D,
    TimeGrid,
    apply_compact,
    apply_quasi_compact_derivative,
    assemble_B,
    assemble_H,
    assemble_P,
)
from .oracle import OracleConvergenceError, quadrature_oracle, tempered_derivative, tempered_integral
from .solver1d import (
    BlowupError,
    ProblemSpec1D,
    SeparableSource,
    Solution1D,
    solve_left,
    solve_right,
    solve_two_sided,
)
from .solver2d import ProblemSpec2D, Solution2D, solve_adi
from .spectral import (
    DefinitenessReport,
    HPlusSplit,
    RegimeError,
    check_B_bounds,
    check_P_definiteness,
    generating_function_range,
    hplus_split,
    stability_predicate,
    w3_sign_root,
)
from .verification import (
    ConvergenceReport,
    ManufacturedCase,
    build_example_5_4_source,
    case_ex5_1,
    case_ex5_2,
    case_ex5_3,
    case_ex5_4,
    error_norm,
    make_case,
    run_convergence_study,
)

__version__ = "0.1.0"
