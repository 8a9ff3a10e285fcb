"""Coherent-state frames and numerical Weyl-law verification."""

__version__ = "0.1.0"

from .windows import (
    CConstants,
    SeparabilityError,
    Window,
    c_constants,
    make_bump_window,
    make_cosine_window,
    scale,
)
from .domains import (
    EmptyErosionError,
    GridDomain,
    dilate,
    erode,
    load_mask,
    measure,
    rectangle_domain,
    save_mask,
)
from .operators import (
    DiscreteOperator,
    apply,
    assemble_euclidean,
    assemble_hyperbolic,
    export_matrix,
)
from .eigen import (
    Certificate,
    CertificationError,
    Spectrum,
    count_below,
    count_certificate,
    dense_spectrum,
    load_spectrum,
    save_spectrum,
    spectrum_below,
)
from .frames import (
    CoherentFrame,
    FrameError,
    PhaseSpaceFunction,
    adjoint,
    analytic_symbol,
    build_frame,
    forward,
    load_phase,
    save_phase,
    symbol,
    trace_via_frame,
)
from .weyl import (
    ExponentFit,
    RieszCurve,
    build_curve,
    euclidean_leading,
    exact_spectrum_box,
    exact_spectrum_interval,
    fit_remainder_exponent,
    hyperbolic_leading,
    li_yau_bound,
    phase_space_volume,
    riesz_mean,
    save_curve,
)
