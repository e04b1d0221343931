"""Frozen-argument boundary value problems on (0,1).

Forward spectral computation, exact analysis of the main-equation
matrices, inverse recovery of the potential from a spectrum, and
iso-spectral family construction in the degenerate cases.
"""

from .characteristic import (
    EigenvalueCollisionError,
    RootConvergenceError,
    Spectrum,
    asymptotic_eigenvalue,
    delta_direct,
    delta_from_spectrum,
    delta_from_w,
    eigenvalues,
    extract_w,
    zero_potential_delta,
)
from .chebyshev import (
    IntPolynomial,
    cheb_T,
    cheb_U,
    cheb_eval,
    imag_scaled_cheb_int,
    matrix_poly_eval,
    scaled_cheb_int,
)
from .core_params import (
    Case,
    Classification,
    Kind,
    ProblemConfig,
    SignPair,
    classify,
    make_config,
    normalize_to_half,
    sign_pair,
)
from .frozen_matrix import (
    FrozenMatrix,
    KernelDescriptor,
    build_matrix,
    char_poly_j1,
    char_polys_j1,
    det_closed_form,
    det_exact,
    eigvec_j1,
    kernel,
    numeric_spectrum_j1,
    rank,
    reduce_to_j1,
    reductions_j1,
    spectrum_closed_form,
    theorem1_poly,
)
from .interval_ops import (
    GridFunction,
    q_apply,
    q_inverse,
    r_apply,
    r_inverse,
    read_csv,
    subinterval_midpoints,
    write_csv,
)
from .inverse_pipeline import (
    EXAMPLE_CASES,
    ExampleReport,
    SpectrumMismatchError,
    build_isospectral_potential,
    invert_from_spectrum,
    quadratic_profile,
    reference_example,
)
from .main_equation import (
    InconsistentSystemError,
    MainEqSolution,
    forward_w_direct,
    forward_w_matrix,
    null_direction,
    solve_inverse,
)

__version__ = "0.1.0"
