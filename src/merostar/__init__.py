"""Meromorphic function classes on the punctured unit disc.

Truncated Laurent series with a simple pole at the origin, membership
checks for four related classes, the catalog of sharpness functions, and
seedable verification suites over the numbered results.
"""

from .classes import (
    ClassSpec,
    Family,
    MembershipVerdict,
    Status,
    check_class,
    check_me,
    check_mf,
    check_remark2,
    check_starlike,
    coeff_bound,
    coeff_sufficient_me,
    class_margins,
    coeff_weight,
    grid_margins,
    me_margins,
)
from .convolution import (
    KernelSpec,
    check_thm32,
    convolve_with_kernel,
    kernel,
    neighborhood_sample,
    stability_premise,
)
from .extremal import (
    mf_not_me_witness,
    remark1_witness,
    starlike_not_mf_witness,
    theorem21_extremal,
    theorem21_tail_bound,
    theorem23_extremal,
    theorem23_tail_bound,
)
from .harness import (
    SUITE_IDS,
    classify_me,
    classify_tme,
    load_series,
    load_tme,
    run_suite,
    save_report,
    save_series,
)
from .partial_sums import (
    RatioBoundReport,
    check_ratio_bounds,
    eq16_function,
)
from .reporting import CheckResult, CheckStatus, VerificationReport
from .series import (
    DiscGrid,
    LaurentFunction,
    deserialize_coeffs,
    from_coeffs,
    refinement_grid,
    serialize_coeffs,
)
from .tme import (
    TmeFunction,
    check_distortion,
    check_tme_exact,
    decompose,
    distortion_bounds,
    recompose,
    refute_on_axis,
    sharp_function,
)
from .tolerances import EXACT_TOL, MARGIN_TOL, ZERO_TOL

__version__ = "0.1.0"

__all__ = [
    "ClassSpec",
    "Family",
    "MembershipVerdict",
    "Status",
    "check_class",
    "check_me",
    "check_mf",
    "check_remark2",
    "check_starlike",
    "coeff_bound",
    "coeff_sufficient_me",
    "class_margins",
    "coeff_weight",
    "grid_margins",
    "me_margins",
    "KernelSpec",
    "check_thm32",
    "convolve_with_kernel",
    "kernel",
    "neighborhood_sample",
    "stability_premise",
    "mf_not_me_witness",
    "remark1_witness",
    "starlike_not_mf_witness",
    "theorem21_extremal",
    "theorem21_tail_bound",
    "theorem23_extremal",
    "theorem23_tail_bound",
    "SUITE_IDS",
    "classify_me",
    "classify_tme",
    "load_series",
    "load_tme",
    "run_suite",
    "save_report",
    "save_series",
    "RatioBoundReport",
    "check_ratio_bounds",
    "eq16_function",
    "CheckResult",
    "CheckStatus",
    "VerificationReport",
    "DiscGrid",
    "LaurentFunction",
    "deserialize_coeffs",
    "from_coeffs",
    "refinement_grid",
    "serialize_coeffs",
    "TmeFunction",
    "check_distortion",
    "check_tme_exact",
    "decompose",
    "distortion_bounds",
    "recompose",
    "refute_on_axis",
    "sharp_function",
    "EXACT_TOL",
    "MARGIN_TOL",
    "ZERO_TOL",
    "__version__",
]
