"""Tests for closed-form target densities: stationary Gaussians, the
two-time joint laws, the switching mixture, scale changes, and the 1-D
stationary-density formula."""

import math

import numpy as np
import pytest

from voldeconv import (
    OUParams,
    RegimeSwitchParams,
    TruthDensity,
    invariant_density_1d,
    markov_transition,
    ou_bivariate,
    ou_logsq_marginal,
    regime_bivariate,
    regime_marginal,
    scaled_truth,
)
from voldeconv.errors import ConfigError, DomainError
from voldeconv.quadrature import gauss_legendre_box, tensor_quadrature

STD = OUParams(a=1.0, mu=0.0, b=np.sqrt(2.0))  # stationary N(0, 1)
REGIME = RegimeSwitchParams(
    a0=1.0, a1=1.0, ou0=OUParams(4.0, -2.0, 1.0), ou1=OUParams(4.0, 2.0, 1.0)
)


def _mass(truth):
    """Mass over the truncation box by tensor Gauss-Legendre quadrature,
    400 nodes per axis."""
    xs, ws = gauss_legendre_box(truth.truncation_box, 400)
    return tensor_quadrature(truth.grid_values(xs), ws)


def _gauss(x, mu, var):
    return np.exp(-((x - mu) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def test_marginal_standard_normal():
    truth = ou_logsq_marginal(STD)
    assert truth.dimension == 1
    assert float(truth.evaluator(np.array([0.0]))) == pytest.approx(0.3989422804014327, rel=1e-13)
    x = np.linspace(-8.0, 8.0, 1601)
    np.testing.assert_allclose(truth.grid_values((x,)), _gauss(x, 0.0, 1.0), rtol=1e-12)
    assert abs(_mass(truth) - 1.0) < 1e-10


def test_evaluator_takes_one_point():
    # a scalar serves p = 1; any other shape than (p,) is refused
    truth = ou_logsq_marginal(STD)
    assert truth.evaluator(0.5) == truth.evaluator(np.array([0.5])) == float(
        truth.vector_eval(np.array([0.5]))
    )
    with pytest.raises(ConfigError, match=r"point shape \(2,\) does not match dimension 1"):
        truth.evaluator(np.zeros(2))
    with pytest.raises(ConfigError, match=r"point shape \(1, 2\) does not match dimension 2"):
        ou_bivariate(STD, 0.0, 1.0).evaluator(np.zeros((1, 2)))


def test_dimension_is_the_box_length():
    # the box fixes p: no constructor takes it beside the box
    assert TruthDensity(lambda pts: pts[..., 0], ((0.0, 1.0),)).dimension == 1
    with pytest.raises(TypeError):
        TruthDensity(2, lambda pts: pts[..., 0], ((0.0, 1.0),))
    truths = {
        1: [ou_logsq_marginal(STD), regime_marginal(REGIME), scaled_truth(regime_marginal(REGIME), 2.0),
            invariant_density_1d(lambda x: -x, lambda x: 1.0, (-np.inf, np.inf), 0.0)],
        2: [ou_bivariate(STD, 0.5, 1.0), regime_bivariate(REGIME, 0.5, 1.0),
            scaled_truth(regime_bivariate(REGIME, 0.5, 1.0), 2.0)],
    }
    for p, group in truths.items():
        for truth in group:
            assert truth.dimension == len(truth.truncation_box) == p


def test_grid_values_needs_one_axis_per_coordinate():
    with pytest.raises(ConfigError, match="got 2 axes for a 1-dimensional density"):
        ou_logsq_marginal(STD).grid_values((np.zeros(3), np.zeros(3)))


def test_marginal_matches_simulation():
    import scipy.stats as sst

    from voldeconv import simulate_ou

    path = simulate_ou(STD, 100_000, 1.0, seed=19)  # spacing = relaxation time
    assert sst.kstest(path[::2], "norm").statistic < 0.01


def test_bivariate_factorizes_at_large_gap():
    truth = ou_bivariate(STD, 1.0, 41.0)  # a(t-s) = 40
    marg = ou_logsq_marginal(STD)
    for q in ((0.7, -1.1), (0.0, 0.0), (-2.0, 1.4)):
        joint = float(truth.evaluator(np.array(q)))
        split = float(marg.evaluator(np.array([q[0]]))) * float(marg.evaluator(np.array([q[1]])))
        assert abs(joint - split) < 1e-12


def test_bivariate_value_at_origin():
    # 1/(2 pi sqrt(1 - e^{-2})) for unit variance and correlation e^{-1}
    truth = ou_bivariate(STD, 1.0, 2.0)
    expected = 1.0 / (2.0 * np.pi * np.sqrt(1.0 - np.exp(-2.0)))
    assert expected == pytest.approx(0.171157629443331, rel=1e-12)
    assert float(truth.evaluator(np.zeros(2))) == pytest.approx(expected, rel=1e-12)


def test_bivariate_short_gap_correlation():
    # infer the correlation from the on-diagonal peak: rho = 1 - a(t-s)
    gap = 1e-6
    truth = ou_bivariate(STD, 1.0, 1.0 + gap)
    f00 = float(truth.evaluator(np.zeros(2)))
    rho = np.sqrt(1.0 - 1.0 / (2.0 * np.pi * f00) ** 2)
    assert abs(rho - (1.0 - gap)) < 1e-9


def test_bivariate_mass_and_order():
    truth = ou_bivariate(STD, 1.0, 1.5)
    assert abs(_mass(truth) - 1.0) < 1e-4
    with pytest.raises(DomainError):
        ou_bivariate(STD, 1.5, 1.0)
    with pytest.raises(DomainError):
        ou_bivariate(STD, 1.0, 1.0)


@pytest.mark.parametrize("bivariate, params", [(ou_bivariate, STD), (regime_bivariate, REGIME)])
@pytest.mark.parametrize("s, t", [(0.5, np.inf), (-np.inf, 1.0), (np.inf, 1.0), (np.nan, 1.0)])
def test_bivariate_times_must_be_finite(bivariate, params, s, t):
    # an infinite gap would give the independence law (rho = 0)
    with pytest.raises(DomainError) as info:
        bivariate(params, s, t)
    assert str(info.value) == f"s and t must be finite, got s={s}, t={t}"


def test_regime_marginal_mixture():
    truth = regime_marginal(REGIME)
    var = REGIME.ou0.stationary_var
    x = np.linspace(-5.0, 5.0, 401)
    expected = 0.5 * _gauss(x, -2.0, var) + 0.5 * _gauss(x, 2.0, var)
    np.testing.assert_allclose(truth.grid_values((x,)), expected, rtol=1e-12)
    assert abs(_mass(truth) - 1.0) < 1e-4


def test_regime_bivariate_weights_sum_to_one():
    # q11 pi1 + q10 pi0 + q01 pi1 + q00 pi0 = 1 by column stochasticity
    q = markov_transition(REGIME.a0, REGIME.a1, 0.05)
    pi = REGIME.stationary_probs
    total = q[1, 1] * pi[1] + q[1, 0] * pi[0] + q[0, 1] * pi[1] + q[0, 0] * pi[0]
    assert total == pytest.approx(1.0, abs=1e-14)


def test_regime_bivariate_mass():
    truth = regime_bivariate(REGIME, 1.0, 1.05)
    assert abs(_mass(truth) - 1.0) < 1e-4
    with pytest.raises(DomainError):
        regime_bivariate(REGIME, 1.05, 1.0)


def test_regime_bivariate_marginal_consistency():
    from numpy.polynomial.legendre import leggauss

    truth = regime_bivariate(REGIME, 1.0, 1.25)
    marg = regime_marginal(REGIME)
    nodes, weights = leggauss(400)
    lo, hi = -12.0, 12.0
    ys = (hi - lo) / 2.0 * nodes + (hi + lo) / 2.0
    for x0 in (-2.0, 0.0, 0.5, 3.1):
        vals = truth.vector_eval(np.column_stack([np.full(ys.size, x0), ys]))
        integral = (hi - lo) / 2.0 * float(weights @ vals)
        assert abs(integral - float(marg.evaluator(np.array([x0])))) < 1e-6


def test_regime_bivariate_two_modes():
    # short gap: mixture of on-diagonal peaks at (mu_i, mu_i)
    truth = regime_bivariate(REGIME, 1.0, 1.05)
    x = np.linspace(-4.0, 4.0, 81)
    vals = truth.grid_values((x, x))
    peaks = []
    for i in range(1, 80):
        for j in range(1, 80):
            patch = vals[i - 1 : i + 2, j - 1 : j + 2].copy()
            center = patch[1, 1]
            patch[1, 1] = -np.inf
            if center > patch.max() and center > 0.05 * vals.max():
                peaks.append((x[i], x[j]))
    assert len(peaks) == 2
    cell = x[1] - x[0]
    found = sorted(peaks)
    assert abs(found[0][0] + 2.0) <= cell and abs(found[0][1] + 2.0) <= cell
    assert abs(found[1][0] - 2.0) <= cell and abs(found[1][1] - 2.0) <= cell


def test_regime_bivariate_factorizes_at_large_gap():
    truth = regime_bivariate(REGIME, 1.0, 31.0)
    marg = regime_marginal(REGIME)
    for q in ((-2.0, 2.0), (0.0, 0.0), (1.5, -1.0)):
        joint = float(truth.evaluator(np.array(q)))
        split = float(marg.evaluator(np.array([q[0]]))) * float(marg.evaluator(np.array([q[1]])))
        assert abs(joint - split) < 1e-10


def test_nonnegativity_on_random_sample():
    rng = np.random.default_rng(123)
    pts1 = rng.uniform(-30.0, 30.0, 10_000)
    truth1 = regime_marginal(REGIME)
    assert np.all(truth1.vector_eval(pts1[:, None]) >= 0.0)
    pts2 = rng.uniform(-30.0, 30.0, (10_000, 2))
    truth2 = regime_bivariate(REGIME, 1.0, 1.05)
    assert np.all(truth2.vector_eval(pts2) >= 0.0)


def test_scaled_truth_jacobian():
    base = regime_marginal(REGIME)
    doubled = scaled_truth(base, 2.0)
    x = np.linspace(-8.0, 8.0, 33)
    np.testing.assert_allclose(
        doubled.vector_eval(x[:, None]),
        base.vector_eval((x / 2.0)[:, None]) / 2.0,
        rtol=1e-12,
    )
    assert abs(_mass(doubled) - 1.0) < 1e-4
    lo, hi = doubled.truncation_box[0]
    b_lo, b_hi = base.truncation_box[0]
    assert lo == pytest.approx(2.0 * b_lo) and hi == pytest.approx(2.0 * b_hi)


def test_scaled_truth_bivariate_modes():
    # on the log sigma^2 = 2 xi scale, modes move to (2 mu_i, 2 mu_i)
    doubled = scaled_truth(regime_bivariate(REGIME, 1.0, 1.05), 2.0)
    x = np.linspace(-8.0, 8.0, 81)
    vals = doubled.grid_values((x, x))
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    assert (abs(x[i] - 4.0) < 0.2 and abs(x[j] - 4.0) < 0.2) or (
        abs(x[i] + 4.0) < 0.2 and abs(x[j] + 4.0) < 0.2
    )


def test_invariant_density_recovers_gaussian():
    params = OUParams(a=2.0, mu=1.0, b=1.5)
    truth = invariant_density_1d(
        lambda x: -params.a * (x - params.mu),
        lambda x: params.b,
        (-np.inf, np.inf),
        0.0,
    )
    x = np.linspace(params.mu - 5.0, params.mu + 5.0, 201)
    expected = _gauss(x, params.mu, params.stationary_var)
    assert np.max(np.abs(truth.vector_eval(x[:, None]) - expected)) < 1e-8
    assert abs(_mass(truth) - 1.0) < 1e-8


def test_invariant_density_x0_invariance():
    params = OUParams(a=2.0, mu=0.0, b=2.0)
    drift = lambda x: -params.a * x
    diff = lambda x: params.b
    t1 = invariant_density_1d(drift, diff, (-np.inf, np.inf), 0.0)
    t2 = invariant_density_1d(drift, diff, (-np.inf, np.inf), 1.7)
    x = np.linspace(-6.0, 6.0, 121)
    assert np.max(np.abs(t1.vector_eval(x[:, None]) - t2.vector_eval(x[:, None]))) < 1e-10


def test_invariant_density_on_a_finite_interval():
    # drift -x, unit diffusion: exp(-x^2) normalized over (-3, 5), whose
    # truncation box is the interval itself
    truth = invariant_density_1d(lambda x: -x, lambda x: 1.0, (-3.0, 5.0), 0.0)
    assert truth.truncation_box == ((-3.0, 5.0),)
    norm = 0.5 * np.sqrt(np.pi) * (math.erf(3.0) + math.erf(5.0))
    assert truth.evaluator(0.0) == pytest.approx(1.0 / norm, rel=1e-9)


@pytest.mark.parametrize("x0", [-3.0, 5.0, 7.0])
def test_invariant_density_needs_an_interior_x0(x0):
    with pytest.raises(DomainError, match=rf"x0 = {x0} must be interior to \(-3.0, 5.0\)"):
        invariant_density_1d(lambda x: -x, lambda x: 1.0, (-3.0, 5.0), x0)


def test_invariant_density_rejects_transient_dynamics():
    with pytest.raises(DomainError, match="not positive recurrent"):
        invariant_density_1d(lambda x: x, lambda x: 1.0, (-np.inf, np.inf), 0.0)
    with pytest.raises(DomainError, match=r"recurrent on \(-3.0, 5.0\): normalizer inf"):
        invariant_density_1d(lambda x: 1e3 * x, lambda x: 1.0, (-3.0, 5.0), 0.0)


def test_invariant_density_rejects_degenerate_diffusion():
    with pytest.raises(DomainError):
        invariant_density_1d(lambda x: -x, lambda x: 0.0, (-np.inf, np.inf), 0.0)
    # the probe lattice is -50, -49.5, ..., 50: the first bad point is 2.0
    with pytest.raises(DomainError, match=r"positive on the interval, got -1.0 at x = 2.0"):
        invariant_density_1d(lambda x: -x, lambda x: 1.0 if x < 2.0 else -1.0, (-np.inf, np.inf), 0.0)


@pytest.mark.parametrize("factor", [0.0, np.nan, np.inf])
def test_scaled_truth_names_a_bad_factor(factor):
    with pytest.raises(DomainError, match=f"scale factor must be finite and nonzero, got {factor}"):
        scaled_truth(ou_logsq_marginal(STD), factor)
