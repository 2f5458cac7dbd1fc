import math

import numpy as np
import pytest

from gvvad.errors import ShapeError, ValidationError
from gvvad.numerics import (
    AdamState,
    adam_step,
    bce,
    finite_diff_grad,
    rng_from,
    seed_sequence,
    stable_sigmoid,
)


class TestStableSigmoid:
    def test_zero_is_half(self):
        assert stable_sigmoid(0.0) == 0.5

    def test_saturation_stays_inside_unit_interval(self):
        hi = stable_sigmoid(800.0)
        lo = stable_sigmoid(-800.0)
        assert hi < 1.0 and hi > 1.0 - 1e-12
        assert lo > 0.0 and lo < 1e-12

    def test_never_exactly_zero_or_one(self):
        xs = np.concatenate([np.linspace(-1e3, 1e3, 2001), [-1e6, 1e6]])
        out = stable_sigmoid(xs)
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)

    def test_symmetry_identity(self):
        rng = rng_from(3, "sigmoid")
        xs = rng.uniform(-30, 30, size=1000)
        np.testing.assert_allclose(stable_sigmoid(xs) + stable_sigmoid(-xs), 1.0, atol=1e-15)

    def test_monotone(self):
        xs = np.linspace(-20, 20, 5000)
        assert np.all(np.diff(stable_sigmoid(xs)) > 0)


class TestBce:
    def test_perfect_prediction_is_tiny(self):
        eps = 1e-7
        loss = bce(1, 1.0, eps)
        assert loss == pytest.approx(-math.log(1.0 - eps))
        assert loss < 2e-7

    def test_half_is_ln2(self):
        assert bce(1, 0.5) == pytest.approx(math.log(2), abs=1e-12)
        assert bce(0, 0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_nonnegative_everywhere(self):
        rng = rng_from(4, "bce")
        for _ in range(500):
            y = int(rng.integers(0, 2))
            y_hat = float(rng.uniform(-0.5, 1.5))
            assert bce(y, y_hat) > 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            bce(2, 0.5)
        with pytest.raises(ValidationError):
            bce(1, 0.5, clamp_eps=0.7)


class TestAdam:
    def test_zero_grad_is_fixed_point_without_decay(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState(weight_decay=0.0)
        out = adam_step(params, {"w": np.zeros(3)}, state)
        np.testing.assert_array_equal(out["w"], params["w"])
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        # Bias-corrected Adam's first step is exactly -lr * sign(g) up to eps.
        for g in (0.3, -2.0, 17.5):
            state = AdamState(lr=0.001, weight_decay=0.0)
            out = adam_step({"w": np.array([5.0])}, {"w": np.array([g])}, state)
            step = out["w"][0] - 5.0
            assert step == pytest.approx(-0.001 * np.sign(g), abs=1e-9)

    def test_converges_on_quadratic(self):
        theta = np.array([1.0])
        state = AdamState(lr=0.001, weight_decay=0.0)
        trail = [abs(theta[0])]
        for _ in range(100):
            theta = adam_step({"t": theta}, {"t": 2.0 * theta}, state)["t"]
            trail.append(abs(theta[0]))
        assert all(b < a for a, b in zip(trail[1:], trail[2:]))

    def test_deterministic_bitwise(self):
        rng = rng_from(9, "adam")
        params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=4)}
        grads = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=4)}

        def run():
            state = AdamState()
            p = {k: v.copy() for k, v in params.items()}
            for _ in range(5):
                p = adam_step(p, grads, state)
            return p

        a, b = run(), run()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_moments_track_param_shapes(self):
        state = AdamState()
        adam_step({"w": np.zeros((2, 2))}, {"w": np.ones((2, 2))}, state)
        assert state.first_moment["w"].shape == (2, 2)
        assert state.second_moment["w"].shape == (2, 2)
        with pytest.raises(ShapeError):
            adam_step({"w": np.zeros(3)}, {"w": np.zeros(3)}, state)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            adam_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, AdamState())
        with pytest.raises(ShapeError):
            adam_step({"w": np.zeros(3)}, {"v": np.zeros(3)}, AdamState())


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float(t @ t), np.array([1.0, 2.0]), h=1e-5)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda t: 7.5, np.array([1.0, -1.0, 0.5]), h=1e-5)
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_does_not_mutate_input(self):
        theta = np.array([1.0, 2.0])
        finite_diff_grad(lambda t: float(t.sum()), theta, h=1e-4)
        np.testing.assert_array_equal(theta, [1.0, 2.0])

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValidationError):
            finite_diff_grad(lambda t: 0.0, np.zeros(2), h=0.0)


class TestSeeding:
    def test_same_tokens_same_stream(self):
        a = rng_from(1, "x").normal(size=8)
        b = rng_from(1, "x").normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_different_tokens_differ(self):
        a = rng_from(1, "x").normal(size=8)
        b = rng_from(1, "y").normal(size=8)
        assert not np.array_equal(a, b)

    def test_token_types_are_distinguished(self):
        assert seed_sequence(1).entropy != seed_sequence("1").entropy

    def test_rejects_unsupported_tokens(self):
        with pytest.raises(TypeError):
            seed_sequence(1.5)
