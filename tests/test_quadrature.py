import math
from fractions import Fraction as F

import numpy as np
import pytest

import convalg as ca
from convalg.formulas import BUILTINS
from convalg.quadrature import (
    QuadratureSpec,
    _gl_nodes,
    beta_segment_oracle,
    beta_segment_quadrature,
    circle_conv_ratio_value,
    circle_conv_value,
    composite_integral,
    line_conv_closed_form,
    line_conv_quadrature,
    wrap_segment_closed,
    wrap_segment_quadrature,
)


def test_beta_segment_equals_pi_on_grid():
    for k in range(1, 21):
        t = k / 21.0
        assert abs(beta_segment_quadrature(t) - beta_segment_oracle()) < 1e-9


def test_beta_segment_quadrature_converges_with_order():
    errs = []
    for nodes in (4, 8, 16):
        spec = QuadratureSpec(nodes=nodes)
        errs.append(max(abs(beta_segment_quadrature(k / 11.0, spec) - math.pi)
                        for k in range(1, 11)))
    # strictly decreasing until machine precision is reached
    assert errs[0] > errs[1] > errs[2]
    assert max(abs(beta_segment_quadrature(k / 11.0, QuadratureSpec(nodes=32)) - math.pi)
               for k in range(1, 11)) < 1e-12


def test_wrap_segment_closed_vs_quadrature():
    for t in (0.05, 0.2, 0.5, 0.9):
        assert wrap_segment_closed(t) == pytest.approx(wrap_segment_quadrature(t), abs=1e-9)


def test_circle_conv_limits():
    # conv tends to 2 pi at 0+ and the ratio sqrt(t) * conv tends to 0
    assert circle_conv_value(1e-8) == pytest.approx(2 * math.pi, rel=1e-3)
    assert circle_conv_ratio_value(1e-10) < 1e-4
    # near t=1 the ratio approaches pi from below
    assert circle_conv_ratio_value(1 - 1e-9) == pytest.approx(math.pi, rel=1e-3)


def test_circle_conv_ratio_enclosure():
    res = ca.circle_conv_ratio()
    assert res.sup.lo <= res.sup.hi
    assert res.sup.hi < 2 * math.pi  # finite, well below the crude cap
    # M dominates the ratio at every grid point
    m = 256
    for k in range(1, m):
        assert circle_conv_ratio_value(k / m) <= res.sup.hi
    assert res.certificate.verdict == "holds"


def test_line_conv_quadrature_matches_closed_form():
    for k in range(-10, 11):
        t = float(k)
        iv = line_conv_quadrature(t)
        closed = line_conv_closed_form(t)
        assert iv.lo <= closed <= iv.hi
        assert abs(0.5 * (iv.lo + iv.hi) - closed) < 1e-6


def test_line_conv_value_at_zero():
    iv = line_conv_quadrature(0.0)
    assert iv.lo <= math.pi / 2 <= iv.hi


def test_line_panel_refinement_reduces_error():
    from convalg.quadrature import composite_integral

    def f(s):
        return 1.0 / ((1.0 + s * s) * (1.0 + (1.0 - s) ** 2))

    closed = line_conv_closed_form(1.0)
    errs = []
    for panels in (4, 16, 64):
        value = composite_integral(f, -150.0, 150.0, panels, 8)
        errs.append(abs(value - closed))
    assert errs[0] > errs[1] > errs[2]


def test_line_conv_ratio_encloses_two_pi():
    res = ca.line_conv_ratio()
    assert res.sup.lo <= 2 * math.pi <= res.sup.hi
    assert res.certificate.payload["max_quadrature_error"] < 1e-6
    res2 = ca.line_conv_ratio(dim=2)
    assert res2.sup.lo <= (2 * math.pi) ** 2 <= res2.sup.hi


def test_beurling_integral_classifications():
    finite = ca.beurling_integral(ca.builtin_weight("poly2"))
    assert finite.classification == "finite"
    assert finite.integral.lo > 0
    for name in ("poly2-exp", "poly2-exp-log"):
        res = ca.beurling_integral(ca.builtin_weight(name))
        assert res.classification == "infinite"
    with pytest.raises(ValueError):
        ca.beurling_integral(ca.builtin_weight("circle-quarter"))


def test_beurling_integral_grows_with_cutoff_for_divergent():
    w = ca.builtin_weight("poly2-exp")
    small = ca.beurling_integral(w, cutoff=25.0)
    large = ca.beurling_integral(w, cutoff=100.0)
    assert large.integral.lo > small.integral.hi


# --------------------------------------------------------------------------
# Mirrored panels: the same double as the two composite sums
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_gl_nodes_exactly_symmetric(n):
    xs, ws = _gl_nodes(n)
    assert all(xs[i] == -xs[n - 1 - i] for i in range(n))
    assert all(ws[i] == ws[n - 1 - i] for i in range(n))


LINE_BUILTINS = [name for name, b in BUILTINS.items() if b.domain == "real"]
MIRRORED_CUTOFFS = (12.5, 25.0, 50.0, 100.0, 400.0)
UNMIRRORED_CUTOFFS = (33.3, 1000 / 3)


def _edges_mirror(cutoff: float) -> bool:
    panels = max(64, int(2 * cutoff))
    right = np.linspace(0.0, cutoff, panels + 1).tolist()
    return np.linspace(-cutoff, 0.0, panels + 1).tolist() == [-e for e in reversed(right)]


def _two_sided(w, cutoff: float, spec: QuadratureSpec) -> float:
    """The Beurling partial integral as two composite sums over [0, T] and [-T, 0]."""
    def f(t: float) -> float:
        return max(0.0, w.log_eval(t)) / (1.0 + t * t)

    panels = max(64, int(2 * cutoff))
    return composite_integral(f, 0.0, cutoff, panels, spec.nodes) \
        + composite_integral(f, -cutoff, 0.0, panels, spec.nodes)


def test_mirror_cutoffs_cover_both_paths():
    assert all(_edges_mirror(c) for c in MIRRORED_CUTOFFS)
    assert not any(_edges_mirror(c) for c in UNMIRRORED_CUTOFFS)
    assert [name for name in LINE_BUILTINS if not BUILTINS[name].even] == ["poly2-exp-signed"]


@pytest.mark.parametrize("scale", [F(1), F(1, 2), F(3)])
@pytest.mark.parametrize("name", LINE_BUILTINS)
def test_beurling_partial_integral_bit_for_bit(name, scale):
    w = ca.builtin_weight(name).rescaled(scale)
    spec = QuadratureSpec()
    for cutoff in MIRRORED_CUTOFFS + UNMIRRORED_CUTOFFS:
        value = ca.beurling_integral(w, cutoff, spec).certificate.payload["partial_integral"]
        assert value.hex() == _two_sided(w, cutoff, spec).hex(), cutoff
