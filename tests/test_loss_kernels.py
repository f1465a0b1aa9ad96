import numpy as np
import pytest

from swig_toolkit import (
    FocalParams,
    LossParts,
    SmoothingParams,
    focal_loss,
    l1_reg,
    smoothed_ce,
    total_loss,
)
from swig_toolkit.loss_kernels import LossError


def bce(logits, targets):
    x = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    return float(np.mean(np.logaddexp(0, x) - t * x))


def central_diff(fn, x, step=1e-5):
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (fn(hi) - fn(lo)) / (2 * step)
    return grad


def assert_grad_close(analytic, numeric, rtol=1e-4):
    # absolute floor keeps fp noise on near-zero gradients from dominating
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-6)
    assert np.max(np.abs(analytic - numeric) / denom) <= rtol


class TestFocalLoss:
    def test_half_bce_at_gamma0_alpha_half(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=8) * 3
            t = (rng.random(8) < 0.5).astype(float)
            loss, _ = focal_loss(x, t, FocalParams(alpha=0.5, gamma=0.0))
            assert loss == pytest.approx(0.5 * bce(x, t), abs=1e-12)

    def test_bce_at_gamma0_alpha1_positive_targets(self):
        # alpha weights positives by alpha and negatives by 1-alpha, so the
        # exact-BCE identity at alpha=1 holds on all-positive targets
        rng = np.random.default_rng(1)
        x = rng.normal(size=16) * 3
        t = np.ones(16)
        loss, _ = focal_loss(x, t, FocalParams(alpha=1.0, gamma=0.0))
        assert loss == pytest.approx(bce(x, t), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        loss, _ = focal_loss([20.0], [1.0], FocalParams())
        assert loss < 1e-6

    def test_frozen_reference_value(self):
        # mpmath (50 digits) evaluation of the formula on these inputs
        loss, _ = focal_loss([0.3, -1.2], [1.0, 0.0], FocalParams(alpha=0.25, gamma=2.0))
        assert loss == pytest.approx(0.017839239011864747547, abs=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            x = rng.normal(size=n) * 3
            t = (rng.random(n) < 0.5).astype(float)
            params = FocalParams(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 4)))
            _, grad = focal_loss(x, t, params)
            numeric = central_diff(lambda v: focal_loss(v, t, params)[0], x)
            assert_grad_close(grad, numeric)

    def test_sum_reduction(self):
        x = np.array([0.5, -0.5, 1.0])
        t = np.array([1.0, 0.0, 1.0])
        mean_loss, mean_grad = focal_loss(x, t)
        sum_loss, sum_grad = focal_loss(x, t, reduction="sum")
        assert sum_loss == pytest.approx(mean_loss * 3)
        assert np.allclose(sum_grad, mean_grad * 3)

    def test_shape_mismatch(self):
        with pytest.raises(LossError):
            focal_loss([1.0, 2.0], [1.0])

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=6) * 5
            t = (rng.random(6) < 0.5).astype(float)
            loss, _ = focal_loss(x, t)
            assert loss >= 0


class TestSmoothedCe:
    def test_epsilon_zero_is_plain_ce(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(2, 10))
            x = rng.normal(size=k) * 3
            target = int(rng.integers(k))
            loss, _ = smoothed_ce(x, target, SmoothingParams(0.0))
            shifted = x - x.max()
            ce = float(np.log(np.exp(shifted).sum()) - shifted[target])
            assert loss == pytest.approx(ce, abs=1e-12)

    def test_uniform_logits_give_log_k(self):
        for k in (2, 3, 7):
            for eps in (0.0, 0.2, 0.5):
                loss, _ = smoothed_ce(np.zeros(k), 0, SmoothingParams(eps))
                assert loss == pytest.approx(np.log(k), abs=1e-12)

    def test_frozen_reference_value(self):
        # mpmath (50 digits) evaluation on logits [2,0,0], target 0, eps 0.2
        loss, _ = smoothed_ce([2.0, 0.0, 0.0], 0, SmoothingParams(0.2))
        assert loss == pytest.approx(0.63954476622188450487, abs=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 10))
            x = rng.normal(size=k) * 3
            target = int(rng.integers(k))
            params = SmoothingParams(float(rng.uniform(0, 0.9)))
            _, grad = smoothed_ce(x, target, params)
            numeric = central_diff(lambda v: smoothed_ce(v, target, params)[0], x)
            assert_grad_close(grad, numeric)

    def test_shift_invariance(self):
        x = np.array([1.0, -2.0, 0.5])
        a, _ = smoothed_ce(x, 1)
        b, _ = smoothed_ce(x + 100.0, 1)
        assert a == pytest.approx(b, abs=1e-9)

    def test_convexity_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            x, y = rng.normal(size=k) * 3, rng.normal(size=k) * 3
            target = int(rng.integers(k))
            mid, _ = smoothed_ce((x + y) / 2, target)
            fx, _ = smoothed_ce(x, target)
            fy, _ = smoothed_ce(y, target)
            assert mid <= (fx + fy) / 2 + 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(LossError):
            smoothed_ce([1.0, 2.0], 2)


class TestL1Reg:
    def test_zero_at_equality(self):
        loss, grad = l1_reg([1.0, 2.0], [1.0, 2.0])
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_known_value(self):
        loss, _ = l1_reg([1.0, 3.0], [0.0, 1.0])
        assert loss == pytest.approx(1.5)

    def test_random_matches_reference_sum(self):
        rng = np.random.default_rng(7)
        p, t = rng.normal(size=16), rng.normal(size=16)
        loss, _ = l1_reg(p, t)
        reference = sum(abs(a - b) for a, b in zip(p, t)) / 16
        assert loss == pytest.approx(reference, abs=1e-12)

    def test_subgradient(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            p, t = rng.normal(size=n), rng.normal(size=n)
            _, grad = l1_reg(p, t)
            numeric = central_diff(lambda v: l1_reg(v, t)[0], p)
            assert_grad_close(grad, numeric)


class TestTotalLoss:
    def test_zero(self):
        assert total_loss(LossParts(0, 0, 0, 0, (0, 0, 0))) == 0

    def test_unweighted_sum(self):
        assert total_loss(LossParts(1, 1, 1, 1, (1, 1, 1))) == 7

    def test_random_resummation(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            vals = rng.random(7)
            parts = LossParts(vals[0], vals[1], vals[2], vals[3], tuple(vals[4:]))
            assert total_loss(parts) == pytest.approx(float(vals.sum()), abs=1e-12)

    def test_rejects_negative_part(self):
        with pytest.raises(LossError):
            LossParts(-1, 0, 0, 0, (0, 0, 0))

    def test_rejects_wrong_noun_count(self):
        with pytest.raises(LossError):
            LossParts(0, 0, 0, 0, (0, 0))


@pytest.mark.parametrize("make,message", [
    (lambda: FocalParams(alpha=0.0), "alpha"),
    (lambda: FocalParams(alpha=1.5), "alpha"),
    (lambda: FocalParams(gamma=-1.0), "gamma"),
    (lambda: SmoothingParams(epsilon=1.0), "epsilon"),
    (lambda: SmoothingParams(epsilon=-0.1), "epsilon"),
    (lambda: focal_loss([0.0], [1.0], reduction="max"), "unknown reduction 'max'"),
    (lambda: smoothed_ce([0.0], 0), "at least 2 classes"),
    (lambda: l1_reg([0.0, 1.0], [0.0]), "shape"),
], ids=["alpha-0", "alpha-above-1", "gamma-negative", "epsilon-1", "epsilon-negative",
        "reduction", "single-class", "l1-shape"])
def test_invalid_loss_argument_is_a_loss_error(make, message):
    with pytest.raises(LossError, match=message):
        make()
