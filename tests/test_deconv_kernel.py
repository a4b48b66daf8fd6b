"""Tests for the deconvolving kernel: quadrature evaluation, lookup tables,
operator norms, and tail envelopes."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voldeconv import (
    ObservationSet,
    build_table,
    builtin_kernel,
    estimate_density,
    eval_table,
    eval_w,
    noise_density,
    sup_bound,
    vh_quadrature,
)
from voldeconv.deconv_kernel import DeconvTable
from voldeconv.errors import ConfigError, NumericalFailure, RangeError
from voldeconv.noise_model import phi_k
from voldeconv.quadrature import gauss_legendre
from voldeconv.smoothing_kernel import KernelSpec

SPEC = builtin_kernel("poly3")

# frozen 512-node quadrature values
SUP_H10 = 0.18356029421689227
SUP_H05 = 0.3067239005428777
# gamma_0(h) * h^{-4} * exp(-pi/(2h)) over h = 1, 0.7, 0.5, 0.4
RATE_RATIOS = (0.03815843619662878, 0.09869199788000832, 0.21207586508168522, 0.3245863758247269)


def test_quadrature_returns_real():
    out = vh_quadrature(SPEC, 1.0, np.array([-2.0, 0.0, 2.0]))
    assert out.dtype == np.float64
    assert out.shape == (3,)
    assert isinstance(vh_quadrature(SPEC, 1.0, 0.5), float)


def test_quadrature_rejects_complex_residual():
    # a window without even symmetry makes the inversion integral complex;
    # the imaginary-part check must refuse to return its real part
    skewed = KernelSpec(
        name="skewed",
        phi_w=lambda s: (1.0 - s**2) ** 3 * (1.0 + 0.5 * np.sin(3.0 * s)) * (np.abs(s) <= 1.0),
    )
    with pytest.raises(NumericalFailure) as exc:
        vh_quadrature(skewed, 1.0, np.linspace(-5.0, 5.0, 11))
    assert exc.value.residual > 1e-9


@pytest.mark.parametrize("h", [0.25, 1.0, 2.46, 4.64])
def test_half_rule_matches_full_complex_sum(h):
    # the full 512-node sum (1/2pi) sum_k c_k exp(-i s_k x); vh_quadrature's
    # docstring bounds the half rule's departure from it by 1e-14 of max |v_h|
    x = np.linspace(-290.0, 290.0, 5801)
    nodes, weights = gauss_legendre(512)
    coef = weights * SPEC.phi_w(nodes) / phi_k(nodes / h)
    full = coef @ np.exp(-1j * np.outer(nodes, x)) / (2.0 * np.pi)
    half = vh_quadrature(SPEC, h, x)
    scale = np.max(np.abs(full.real))
    assert np.max(np.abs(full.imag)) <= 1e-14 * scale
    assert np.max(np.abs(half - full.real)) <= 1e-14 * scale
    # sup_bound is the same half-rule fold of (1/2pi) sum_k |c_k|
    np.testing.assert_allclose(
        sup_bound(SPEC, h), np.sum(np.abs(coef)) / (2.0 * np.pi), rtol=1e-13
    )


def test_sup_bound_rejects_asymmetric_coefficients():
    odd = KernelSpec(
        name="odd",
        phi_w=lambda s: (1.0 - s**2) ** 3 * (1.0 + 0.1 * s) * (np.abs(s) <= 1.0),
    )
    with pytest.raises(NumericalFailure, match="conjugate symmetric") as exc:
        sup_bound(odd, 1.0)
    assert exc.value.residual > 1e-9


def test_bandwidth_guards():
    with pytest.raises(RangeError):
        vh_quadrature(SPEC, 0.0, 0.0)
    with pytest.raises(RangeError):
        vh_quadrature(SPEC, -1.0, 0.0)
    with pytest.raises(RangeError):
        vh_quadrature(SPEC, np.pi / 601.0, 0.0)  # below the resolvable floor
    assert np.isfinite(vh_quadrature(SPEC, np.pi / 599.0, 0.0))


def test_smoothing_identity_pins_orientation():
    # integrating the deconvolver against the noise density must reproduce
    # the smoothing kernel; the mirrored kernel fails this by ~5e-2
    z = np.linspace(-80.0, 8.0, 8801)
    kz = noise_density(z)
    h = 1.0
    for y in (-3.0, -1.1, 0.0, 0.7, 2.3):
        lhs = np.trapezoid(vh_quadrature(SPEC, h, (y - z) / h) * kz, z)
        assert abs(lhs - float(eval_w(SPEC, y / h))) < 1e-6
    y = 1.1
    mirrored = np.trapezoid(vh_quadrature(SPEC, h, (z - y) / h) * kz, z)
    assert abs(mirrored - float(eval_w(SPEC, y / h))) > 1e-3


def test_unit_mass():
    x = np.arange(-250.0, 250.0 + 1e-9, 0.02)
    for h in (0.6, 1.0):
        v = vh_quadrature(SPEC, h, x)
        assert abs(np.trapezoid(v, x) - 1.0) < 1e-6


def test_asymmetry_is_real():
    # the noise channel is skewed, so the deconvolver cannot be even; the
    # odd part is a large fraction of the sup bound
    v_pos = vh_quadrature(SPEC, 1.0, 2.3)
    v_neg = vh_quadrature(SPEC, 1.0, -2.3)
    assert abs(v_pos - v_neg) > 0.3 * sup_bound(SPEC, 1.0)


def test_sup_bound_frozen_values():
    assert sup_bound(SPEC, 1.0) == pytest.approx(SUP_H10, rel=1e-12)
    assert sup_bound(SPEC, 0.5) == pytest.approx(SUP_H05, rel=1e-12)


def test_sup_bound_node_doubling():
    from numpy.polynomial.legendre import leggauss

    from voldeconv import phi_k

    nodes, weights = leggauss(1024)
    for h in (1.0, 0.5):
        doubled = float(weights @ np.abs(SPEC.phi_w(nodes) / phi_k(nodes / h))) / (2.0 * np.pi)
        assert abs(sup_bound(SPEC, h) - doubled) < 1e-8


def test_sup_bound_dominates_kernel():
    rng = np.random.default_rng(3)
    for h in (1.0, 0.7, 0.5, 0.4):
        g0 = sup_bound(SPEC, h)
        dense = vh_quadrature(SPEC, h, np.linspace(-30.0, 30.0, 1501))
        assert np.max(np.abs(dense)) <= g0 * (1.0 + 1e-12)
    g0 = sup_bound(SPEC, 0.8)
    pts = rng.uniform(-50.0, 50.0, 1000)
    assert np.max(np.abs(vh_quadrature(SPEC, 0.8, pts))) <= g0 * (1.0 + 1e-12)


def test_sup_bound_growth_rate():
    # gamma_0(h) = O(h^{1+rho} e^{pi/(2h)}): normalized values stay bounded
    ratios = [sup_bound(SPEC, h) * h**-4.0 * np.exp(-np.pi / (2.0 * h)) for h in (1.0, 0.7, 0.5, 0.4)]
    np.testing.assert_allclose(ratios, RATE_RATIOS, rtol=1e-9)
    assert max(ratios) < 0.4


def test_lipschitz_bound():
    rng = np.random.default_rng(1)
    for h in (0.5, 1.0):
        g0 = sup_bound(SPEC, h)
        x = rng.uniform(-20.0, 20.0, 200)
        u = rng.uniform(-2.0, 2.0, 200)
        lhs = np.abs(vh_quadrature(SPEC, h, x + u) - vh_quadrature(SPEC, h, x))
        assert np.all(lhs <= g0 * np.abs(u) * (1.0 + 1e-9))


def test_tail_envelope_fitted_constant():
    # |v_h(x)| <= D * env(h, x) for one constant D, with the envelope
    # env = e^{pi/(2h)} + (1/h) e^{(pi/2) q} log q, q = (1 + pi/|x|)/h, which
    # decreases in |x| to e^{pi/(2h)}; measured max ratio 3.7e-3, frozen with
    # wide margin
    D = 0.01
    for h in (0.5, 1.0):
        for ax in (5.0, 10.0, 20.0):
            q = (1.0 + np.pi / ax) / h
            env = np.exp(np.pi / (2.0 * h)) + np.exp((np.pi / 2.0) * q) * np.log(q) / h
            for x in (ax, -ax):
                assert abs(vh_quadrature(SPEC, h, x)) <= D * env


def test_build_table_matches_quadrature():
    tbl = build_table(SPEC, 0.8, -40.0, 40.0, 4097)
    assert tbl.bandwidth == 0.8
    assert tbl.kernel.name == "poly3"
    idx = np.linspace(0, 4096, 37, dtype=int)
    direct = vh_quadrature(SPEC, 0.8, tbl.grid_x[idx])
    assert np.max(np.abs(tbl.values[idx] - direct)) < 1e-9 * tbl.sup_bound


def test_table_interpolation_error():
    tbl = build_table(SPEC, 0.8, -40.0, 40.0, 4097)
    mid = (tbl.grid_x[:-1] + tbl.grid_x[1:]) / 2.0
    err = np.max(np.abs(eval_table(tbl, mid) - vh_quadrature(SPEC, 0.8, mid)))
    assert err < 1e-4 * tbl.sup_bound


def test_table_slow_path_outside_range():
    tbl = build_table(SPEC, 0.8, -10.0, 10.0, 1001)
    outside = np.array([-15.0, 12.5, 40.0])
    np.testing.assert_array_equal(eval_table(tbl, outside), vh_quadrature(SPEC, 0.8, outside))


@st.composite
def _lattice_points(draw):
    """A table on a random lattice and points that probe every bracket case:
    random points across and beyond the span, every knot and both its
    floating-point neighbours, both ends and points past them."""
    lo = draw(st.floats(-300.0, 10.0))
    tbl = build_table(
        SPEC, draw(st.floats(0.3, 3.0)), lo, lo + draw(st.floats(1e-3, 590.0)),
        draw(st.integers(2, 5000)),
    )
    t = tbl.grid_x
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = t[-1] - t[0]
    x = np.concatenate((
        rng.uniform(t[0] - 0.1 * width, t[-1] + 0.1 * width, 2000),
        t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
        [t[0] - width, t[-1] + width, -1e6, 1e6],
    ))
    return tbl, rng.permutation(x)


@settings(max_examples=40, deadline=None)
@given(_lattice_points())
def test_eval_table_is_interp_on_span_and_quadrature_off_span(case):
    # the index-arithmetic lookup is the exact reference it replaced:
    # np.interp on the lattice, the direct integral off it
    tbl, x = case
    t = tbl.grid_x
    on = (x >= t[0]) & (x <= t[-1])
    got = eval_table(tbl, x)
    np.testing.assert_array_equal(got[on], np.interp(x[on], t, tbl.values))
    np.testing.assert_array_equal(got[~on], vh_quadrature(SPEC, tbl.bandwidth, x[~on]))


def test_eval_table_nan_in_nan_out():
    tbl = build_table(SPEC, 0.8, -10.0, 10.0, 1001)
    x = np.array([[np.nan, 0.3], [-np.nan, tbl.grid_x[-1]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no invalid-cast warning for NaN
        got = eval_table(tbl, x)
        assert np.isnan(eval_table(tbl, np.nan))
    assert np.isnan(got[0, 0]) and np.isnan(got[1, 0])
    assert got[0, 1] == np.interp(0.3, tbl.grid_x, tbl.values)
    assert got[1, 1] == tbl.values[-1]


def test_deconv_table_is_uniform_by_construction():
    # the lattice is linspace(x_min, x_max, values.size) and cannot be
    # anything else; the constructor checks only what it is built from
    tbl = build_table(SPEC, 0.8, -290.0, 290.0, 29001)
    np.testing.assert_array_equal(tbl.grid_x, np.linspace(-290.0, 290.0, 29001))
    np.testing.assert_array_equal(
        tbl.slope, np.append(np.diff(tbl.values) / np.diff(tbl.grid_x), 0.0)
    )

    def table(x_min, x_max, values):
        return DeconvTable(tbl.bandwidth, SPEC, x_min, x_max, values)

    with pytest.raises(ConfigError, match=r"at least 2 points, got shape \(1,\)"):
        table(-1.0, 1.0, np.zeros(1))
    with pytest.raises(ConfigError, match=r"table values must be 1-D, got shape \(1, 11\)"):
        table(-1.0, 1.0, np.zeros((1, 11)))
    for lo, hi in [(1.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (-1.0, np.inf), (-np.inf, 1.0)]:
        with pytest.raises(ConfigError, match=re.escape(f"need finite x_min < x_max, got [{lo}, {hi}]")):
            table(lo, hi, np.zeros(11))
    assert table(-1.0, 1.0, np.zeros(2)).grid_x.tolist() == [-1.0, 1.0]


def test_deconv_table_refuses_non_finite_values_and_bad_bandwidth_or_bound():
    tbl = build_table(SPEC, 0.8, -10.0, 10.0, 101)

    def table(bandwidth=tbl.bandwidth, values=tbl.values):
        return DeconvTable(bandwidth, SPEC, tbl.x_min, tbl.x_max, values)

    values = tbl.values.copy()
    values[[7, 40]] = [np.nan, np.inf]
    with pytest.raises(ConfigError, match="table values must be finite, got 2 non-finite, "
                                          "the first at index 7"):
        table(values=values)
    for h in (-1.0, 0.0, np.nan, np.inf, True):
        with pytest.raises(ConfigError, match=re.escape(f"bandwidth must be finite and positive, got {h!r}")):
            table(bandwidth=h)
    # a bandwidth outside the noise window was built, and refused at its first sup_bound
    with pytest.raises(RangeError, match=re.escape("bandwidth 0.0001 puts quadrature nodes at "
                                                   "|t| = 10000.0, beyond")):
        DeconvTable(1e-4, SPEC, -1.0, 1.0, [0.0, 1.0])


def test_table_sup_bound_is_computed_from_its_kernel_and_bandwidth(monkeypatch):
    # build_table makes one coefficient pass, for v_h; the bound's pass runs
    # on first use, and its value is the module function's, bit for bit
    from voldeconv import deconv_kernel

    passes = []
    half_rule = deconv_kernel._half_rule_coefficients
    monkeypatch.setattr(deconv_kernel, "_half_rule_coefficients",
                        lambda spec, h: passes.append(h) or half_rule(spec, h))
    tbl = build_table(SPEC, 0.8, -10.0, 10.0, 101)
    assert passes == [0.8]
    assert tbl.sup_bound == sup_bound(SPEC, 0.8)
    assert passes == [0.8] * 3
    assert tbl.sup_bound == sup_bound(SPEC, 0.8) and passes == [0.8] * 4  # cached


def test_table_of_an_int_list_equals_the_table_of_its_array():
    x = np.array([-1.5, -0.5, 0.0, 0.25, 1.0, 2.0])
    listed = DeconvTable(1.0, SPEC, -1.0, 1.0, [1, 2, 3, 5])
    arrayed = DeconvTable(1.0, SPEC, -1.0, 1.0, np.array([1.0, 2.0, 3.0, 5.0]))
    assert listed.values.dtype == np.float64
    np.testing.assert_array_equal(listed.grid_x, arrayed.grid_x)
    np.testing.assert_array_equal(eval_table(listed, x), eval_table(arrayed, x))
    values = np.linspace(0.0, 1.0, 5)
    assert DeconvTable(1.0, SPEC, -1.0, 1.0, values).values is values  # no copy


@settings(max_examples=12, deadline=None)
@given(st.floats(0.4, 4.64))
def test_table_trapezoid_mass_is_one(h):
    # v_h integrates to phi_w(0) / phi_k(0) = 1; on criterion 08's table
    # [-290, 290] x 29001 the trapezoid mass was measured within 3.6e-8 of 1
    # for h in [0.4, 4.64] (5.0e-7 at h = 0.3, 6.7e-6 at h = 0.2)
    tbl = build_table(SPEC, h, -290.0, 290.0, 29001)
    assert abs(np.trapezoid(tbl.values, tbl.grid_x) - 1.0) < 1e-6


def test_build_table_config_errors():
    with pytest.raises(ConfigError):
        build_table(SPEC, 0.8, -1.0, -1.0, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any quadrature runs
        with pytest.raises(ConfigError, match=r"finite x_min < x_max, got \[0.0, inf\]"):
            build_table(SPEC, 0.8, 0.0, np.inf, 100)
    with pytest.raises(ConfigError):
        build_table(SPEC, 0.8, -1.0, 1.0, 1)
    with pytest.raises(ConfigError, match="n_points must be an integer, got 10.7"):
        build_table(SPEC, 0.8, -1.0, 1.0, 10.7)


@pytest.mark.parametrize("h", [np.inf, np.nan, -0.5])
def test_build_table_names_a_bad_bandwidth(h):
    with pytest.raises(RangeError, match=f"bandwidth must be finite and positive, got {h}"):
        build_table(SPEC, h, -1.0, 1.0, 100)


def _single_vector_estimate(tbl, y, axes):
    """estimate_density on the one observation vector y: the product kernel
    prod_k v_h((x_k - y_k) / h) / h^p on the tensor grid of axes."""
    p = len(y)
    obs = ObservationSet(
        delta=1.0,
        log_sq=np.asarray(y, dtype=float),
        times=tuple(float(k) for k in range(1, p + 1)),
    )
    assert obs.m == 1
    return estimate_density(obs, tbl, axes).values


def test_multivariate_reduces_to_univariate():
    # p = 2 (the GEMM sweep) is the outer product of two p = 1 estimates
    # (the interval sums)
    h = 0.9
    tbl = build_table(SPEC, h, -20.0, 20.0, 2001)
    y = np.array([0.4, -1.1])
    axes = (np.array([-4.2, 0.0, 3.3]), np.array([-2.0, 1.7]))
    joint = _single_vector_estimate(tbl, y, axes)
    one = [_single_vector_estimate(tbl, y[k : k + 1], axes[k : k + 1]) for k in range(2)]
    np.testing.assert_allclose(joint, np.outer(*one), rtol=1e-12, atol=0.0)


def test_multivariate_product_structure():
    h = 0.9
    tbl = build_table(SPEC, h, -20.0, 20.0, 2001)
    rng = np.random.default_rng(8)
    y = rng.uniform(-2.0, 2.0, 3)
    axes = [y[k] + h * rng.uniform(-15.0, 15.0, 4) for k in range(3)]
    vals = [eval_table(tbl, (axes[k] - y[k]) / h) for k in range(3)]
    prod = np.einsum("a,b,c->abc", *vals) / h**3
    np.testing.assert_allclose(
        _single_vector_estimate(tbl, y, axes), prod, rtol=1e-12, atol=0.0
    )


def test_multivariate_bound():
    h = 0.8
    tbl = build_table(SPEC, h, -40.0, 40.0, 4097)
    g0 = sup_bound(SPEC, h)
    rng = np.random.default_rng(9)
    axes = [h * rng.uniform(-35.0, 35.0, 32) for _ in range(2)]
    vals = _single_vector_estimate(tbl, np.zeros(2), axes) * h**2
    assert np.max(np.abs(vals)) <= g0**2 * (1.0 + 1e-9)
