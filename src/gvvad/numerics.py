"""Small dense-math kernel: stable sigmoid, BCE, Adam, finite differences, seeding.

Everything runs on plain numpy arrays in float64. All randomness in the
package flows through ``seed_sequence``: tokens (ints and strings) are hashed
into the key of a counter-based generator, so any intermediate sample can be
regenerated in isolation from its tokens.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError, ValidationError

# Smallest/largest float64 strictly inside (0, 1); sigmoid outputs are clamped
# here so downstream logs never see exact 0 or 1.
_SIGMOID_FLOOR = float(np.nextafter(0.0, 1.0))
_SIGMOID_CEIL = float(np.nextafter(1.0, 0.0))

# Default clamp of bce's prediction, away from 0 and 1.
DEFAULT_CLAMP_EPS = 1e-7

# Adam's moment decay rates and denominator guard.
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


def seed_sequence(*tokens: int | str) -> np.random.SeedSequence:
    """Hash a list of int/str tokens into a numpy SeedSequence."""
    digest = hashlib.sha256()
    for tok in tokens:
        if isinstance(tok, (bool, np.bool_, np.integer)):
            tok = int(tok)
        if isinstance(tok, int):
            digest.update(b"i")
            digest.update(tok.to_bytes(16, "little", signed=True))
        elif isinstance(tok, str):
            data = tok.encode("utf-8")
            digest.update(b"s")
            digest.update(len(data).to_bytes(4, "little"))
            digest.update(data)
        else:
            raise TypeError(f"seed tokens must be int or str, got {type(tok).__name__}")
    words = np.frombuffer(digest.digest(), dtype="<u4")
    return np.random.SeedSequence([int(w) for w in words])


def rng_from(*tokens: int | str) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by the token hash."""
    return np.random.Generator(np.random.Philox(seed_sequence(*tokens)))


def derived_int_seed(*tokens: int | str) -> int:
    """A single 63-bit integer seed derived from the tokens."""
    return int(seed_sequence(*tokens).generate_state(1, np.uint64)[0] >> 1)


def is_binary(arr: np.ndarray) -> bool:
    """True when every element of ``arr`` equals 0 or 1 (strings never do, bools always do)."""
    if arr.dtype == np.bool_:
        return True
    return bool(((arr == 0) | (arr == 1)).all())


def stable_sigmoid(x):
    """Numerically stable logistic, clamped strictly inside (0, 1).

    Uses the two-branch formulation (1/(1+exp(-x)) for x >= 0, else
    exp(x)/(1+exp(x))) in one pass over ex = exp(-|x|), so no exp ever
    overflows; saturated outputs are nudged off exact 0/1 so log-losses stay
    finite.
    """
    arr = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(arr))
    denom = 1.0 + ex
    out = np.where(arr >= 0, 1.0, ex)
    out /= denom
    np.minimum(np.maximum(out, _SIGMOID_FLOOR, out=out), _SIGMOID_CEIL, out=out)
    return float(out) if arr.ndim == 0 else out


def bce(y, y_hat, clamp_eps: float = DEFAULT_CLAMP_EPS, return_grad: bool = False):
    """Binary cross-entropy with the prediction clamped to [eps, 1-eps].

    With ``return_grad`` it returns ``(loss, d loss / d y_hat)``. The clamp is
    part of the objective: outside it the loss is flat and the derivative 0.
    Scalar arguments give floats; equal-shape arrays of labels and
    predictions (one entry per bag) give arrays of the same values
    elementwise, all under the one ``clamp_eps``.
    """
    labels = np.asarray(y)
    if not is_binary(labels):
        raise ValidationError(f"label must be 0 or 1, got {y!r}")
    if not 0.0 < clamp_eps < 0.5:
        raise ValidationError(f"clamp_eps must be in (0, 0.5), got {clamp_eps}")
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if labels.shape != y_hat.shape:
        raise ShapeError(f"labels {labels.shape} and predictions {y_hat.shape} must have one shape")
    p = np.minimum(np.maximum(y_hat, clamp_eps), 1.0 - clamp_eps)
    positive = labels.astype(bool, copy=False)  # binary: nonzero is 1
    # math.log per element, not np.log: numpy's float64 log may take a
    # CPU-specific SIMD path, and a loss must not depend on the host. The
    # same pass takes the derivative, 0 where the clamp is active and for a
    # NaN prediction (q != v).
    loss, grad = [], []
    for q, v, pos in zip(p.ravel().tolist(), y_hat.ravel().tolist(), positive.ravel().tolist()):
        if pos:
            loss.append(-math.log(q))
            grad.append(-1.0 / q if q == v else 0.0)
        else:
            loss.append(-math.log1p(-q))
            grad.append(1.0 / (1.0 - q) if q == v else 0.0)
    loss, grad = np.array(loss).reshape(p.shape), np.array(grad).reshape(p.shape)
    if loss.ndim == 0:
        loss, grad = float(loss), float(grad)
    return (loss, grad) if return_grad else loss


@dataclass
class AdamState:
    """Adam state with decoupled weight decay over one parameter array.

    R runs stacked as an (R, P) array step together under one ``lr`` and
    ``weight_decay`` and share the ``step`` count. The moment buffers are
    created on the first step and afterwards must keep matching the
    parameter shape.
    """

    lr: float = 0.001
    weight_decay: float = 0.005
    step: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


def adam_step(param, grad, state: AdamState, out=None) -> np.ndarray:
    """One Adam update; returns the new param and advances ``state`` in place.

    The new param is written into ``out`` when one is given (``param``
    itself included) and ``out`` is returned, with the same bits as a call
    that allocates its result. Weight decay is decoupled: the parameter
    first shrinks by lr * wd, then the moment update is applied, so decay
    never enters the moment estimates. Bias correction uses the
    post-increment step count.
    """
    p = np.asarray(param, dtype=np.float64)
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != p.shape:
        raise ShapeError(f"grad has shape {g.shape}, param has {p.shape}")
    if out is not None and out.shape != p.shape:
        raise ShapeError(f"out has shape {out.shape}, param has {p.shape}")
    if state.first_moment is None:
        state.first_moment = np.zeros_like(p)
        state.second_moment = np.zeros_like(p)
    m, v = state.first_moment, state.second_moment
    if m.shape != p.shape:
        raise ShapeError(f"moment has shape {m.shape}, param has {p.shape}")
    state.step += 1
    c1 = 1.0 - _BETA1 ** state.step
    c2 = 1.0 - _BETA2 ** state.step
    # p - lr * wd * p - lr * (m / c1) / (sqrt(v / c2) + eps), each operation
    # in that order, in the result and two scratch arrays (0-d ones included).
    # p is read only before the result is first written, so out may be p.
    if out is None:
        out = np.empty_like(p)
    num, den = np.empty_like(p), np.empty_like(p)
    np.multiply(p, state.lr * state.weight_decay, out=num)
    np.subtract(p, num, out=out)
    np.multiply(g, 1.0 - _BETA1, out=num)
    m *= _BETA1
    m += num
    np.multiply(g, 1.0 - _BETA2, out=den)
    den *= g
    v *= _BETA2
    v += den
    np.divide(v, c2, out=den)
    np.sqrt(den, out=den)
    den += _ADAM_EPS
    np.divide(m, c1, out=num)
    num *= state.lr
    num /= den
    out -= num
    return out


def finite_diff_grad(f: Callable[[np.ndarray], float], theta: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function at ``theta``."""
    if h <= 0:
        raise ValidationError(f"step size must be positive, got {h}")
    theta = np.array(theta, dtype=np.float64, copy=True)
    grad = np.zeros_like(theta)
    flat = theta.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(theta))
        flat[i] = orig - h
        f_minus = float(f(theta))
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad
