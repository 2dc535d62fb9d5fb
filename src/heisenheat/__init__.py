"""Heat kernels of the Heisenberg-group operator family, with verification.

Closed-form evaluation of the transformed fundamental solutions (rho_hat,
rho_tilde and the twisted two-point kernel H), the Hermite eigenfunction
expansion that reconstructs rho_hat independently, and a set of numerical
oracles (finite-difference PDE residuals, DFT Gaussian inversion, semigroup
and initial-condition quadrature checks) that validate every identity used
in the derivation.
"""

from .hermite import eval_scaled_hermite, gauss_hermite_nodes
from .kernels import (
    FieldSample,
    GridAxis,
    GridSpec,
    KernelParams,
    apply_kernel,
    coefficients_ab,
    evaluate_on_grid,
    heat_kernel_h,
    rho_hat,
    rho_tilde,
)
from .series import (
    SeriesConfig,
    UValue,
    mehler_sum,
    rho_hat_series,
    u_series,
)

__version__ = "0.1.0"

__all__ = [
    "eval_scaled_hermite",
    "gauss_hermite_nodes",
    "FieldSample",
    "GridAxis",
    "GridSpec",
    "KernelParams",
    "apply_kernel",
    "coefficients_ab",
    "evaluate_on_grid",
    "heat_kernel_h",
    "rho_hat",
    "rho_tilde",
    "SeriesConfig",
    "UValue",
    "mehler_sum",
    "rho_hat_series",
    "u_series",
    "__version__",
]
