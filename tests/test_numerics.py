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

    def test_bit_identical_to_two_masked_branches(self):
        # The one-pass form over exp(-|x|) must equal, bit for bit, the
        # formulation that evaluates each branch on its own mask.
        def two_branch(xs):
            out = np.empty_like(xs)
            pos = xs >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-xs[pos]))
            ex = np.exp(xs[~pos])
            out[~pos] = ex / (1.0 + ex)
            return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))

        rng = rng_from(5, "sigmoid-branches")
        xs = np.concatenate([np.linspace(-800.0, 800.0, 100_001), rng.uniform(-800.0, 800.0, 100_000),
                             rng.normal(0.0, 3.0, 1000), [0.0, -0.0, 1e-300, -1e-300]])
        points = (-0.0, 0.0, -745.5, 745.5, -1.5, 2.5)
        with np.errstate(over="raise", invalid="raise"):
            got = stable_sigmoid(xs)
            want = two_branch(xs)
            scalars = [stable_sigmoid(x) for x in points]
            scalars_want = two_branch(np.array(points))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for value, expected in zip(scalars, scalars_want):
            assert isinstance(value, float)
            assert np.float64(value).view(np.int64) == expected.view(np.int64)


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
        param = np.array([1.0, -2.0, 3.0])
        state = AdamState(weight_decay=0.0)
        out = adam_step(param, np.zeros(3), state)
        np.testing.assert_array_equal(out, param)
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        # Bias-corrected Adam's first step is exactly -lr * sign(g) up to eps.
        for g in (0.3, -2.0, 17.5):
            state = AdamState(lr=0.001, weight_decay=0.0)
            out = adam_step(np.array([5.0]), np.array([g]), state)
            step = out[0] - 5.0
            assert step == pytest.approx(-0.001 * np.sign(g), abs=1e-9)

    def test_converges_on_quadratic(self):
        theta = np.array([1.0])
        state = AdamState(lr=0.001, weight_decay=0.0)
        trail = [abs(theta[0])]
        for _ in range(100):
            theta = adam_step(theta, 2.0 * theta, state)
            trail.append(abs(theta[0]))
        assert all(b < a for a, b in zip(trail[1:], trail[2:]))

    def test_deterministic_bitwise(self):
        rng = rng_from(9, "adam")
        params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=4)}
        grads = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=4)}

        def run():
            out = {}
            for k, p in params.items():
                state = AdamState()
                p = p.copy()
                for _ in range(5):
                    p = adam_step(p, grads[k], state)
                out[k] = p
            return out

        a, b = run(), run()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_concatenated_key_matches_per_key_bitwise(self):
        # Adam is elementwise: stepping one state over the concatenated array
        # must equal stepping one state per slice, bit for bit, weight decay
        # included.
        rng = rng_from(10, "adam-flat")
        shapes = {"w1": (4, 3), "b1": (4,), "w2": (4,), "b2": ()}
        p = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        per_key_state = {k: AdamState(lr=0.01, weight_decay=0.05) for k in shapes}
        flat_state = AdamState(lr=0.01, weight_decay=0.05)
        theta = np.concatenate([p[k].ravel() for k in shapes])
        for _ in range(6):
            grads = {k: rng.normal(size=shape) for k, shape in shapes.items()}
            p = {k: adam_step(p[k], grads[k], per_key_state[k]) for k in shapes}
            flat_grad = np.concatenate([grads[k].ravel() for k in shapes])
            theta = adam_step(theta, flat_grad, flat_state)
        assert flat_state.step == 6
        assert all(state.step == 6 for state in per_key_state.values())
        expected = np.concatenate([p[k].ravel() for k in shapes])
        assert np.array_equal(theta.view(np.int64), expected.view(np.int64))

    def test_moments_track_param_shapes(self):
        state = AdamState()
        adam_step(np.zeros((2, 2)), np.ones((2, 2)), state)
        assert state.first_moment.shape == (2, 2)
        assert state.second_moment.shape == (2, 2)
        with pytest.raises(ShapeError):
            adam_step(np.zeros(3), np.zeros(3), state)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            adam_step(np.zeros(3), np.zeros(4), AdamState())
        state = AdamState()
        with pytest.raises(ShapeError):
            adam_step(np.zeros(3), np.zeros((1, 3)), state)  # broadcastable is not enough
        assert state.step == 0


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
