"""convalg: certified subconvolutive weights on abelian groups.

Builds the weight functions that turn weighted L_p spaces on sigma-compact
abelian groups into convolution algebras, and emits machine-checkable
certificates for positivity, evenness, subconvolutivity with rigorous
truncation tails, polynomial decay, submultiplicativity, weight equivalence,
and the Beurling-Domar regularity criterion.
"""

from .certificates import (
    Certificate,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    TruncationSpec,
    Window,
)
from .certify import (
    check_b,
    check_evenness,
    check_poly_decay,
    check_positivity,
    check_submultiplicative,
    circle_grid_window,
    ess_inf_check,
    line_grid_window,
    pruefer_ball_window,
    rationals_ball_window,
    sum_sample_window,
    weight_equivalence,
)
from .convolution import conv_at, conv_exact, TailUnavailableError
from .domar import CONVERGENT, DIVERGENT, domar_classify, domar_partial
from .formulas import BUILTIN_NAMES, FormulaWeight, builtin_weight
from .groups import (
    GroupMismatchError,
    LayerError,
    PrueferGroup,
    PrueferPoint,
    ProductGroup,
    ProductPoint,
    RationalPoint,
    RationalsGroup,
    RealGroup,
    RealPoint,
    SumGroup,
    SumPoint,
    add,
    even_floor,
    layer_of,
    neg,
    nmul,
    sub,
)
from .intervals import Interval
from .quadrature import (
    BeurlingResult,
    QuadratureSpec,
    RatioResult,
    beta_segment_quadrature,
    beurling_integral,
    circle_conv_ratio,
    line_conv_closed_form,
    line_conv_quadrature,
    line_conv_ratio,
    wrap_segment_closed,
)
from .rational import Rational, format_rational, parse_rational, sigma
from .sequences import (
    QSequence,
    build_q_sequence,
    check_q_fractional_bound,
    countex_divergence_lower_bound,
    q_fractional_interval,
    sigma_conv_ratio,
    sigma_subconvolutive_constant,
)
from .serialize import (
    canonical_dumps,
    certificate_to_json,
    descriptor_to_json,
    point_to_json,
    weight_from_provenance,
    weight_to_provenance,
)
from .weights import (
    AlgebraWeight,
    AlphaSequence,
    DirectSumWeight,
    EuclideanWeight,
    LayerWeight,
    ProductWeight,
    RationalsLayerWeight,
    SubsetCoeffs,
    WeightFn,
    algebra_weight,
    default_alphas,
    default_coeffs,
    direct_sum_weight,
    euclidean_weight,
    nested_finite_weight,
    product_weight,
    pruefer_weight,
    rationals_weight,
    scale_for_b,
)

__version__ = "0.1.0"
