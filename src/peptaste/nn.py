"""Minimal differentiable building blocks for the sequence autoencoder.

Everything runs in 64-bit floats so finite-difference gradient checks have
numerical headroom.  Layers cache their forward inputs; backward() must be
called once per forward() and writes each gradient into the layer's
existing grads array, so a ParameterBuffer can gather every parameter and
gradient of a model into one contiguous array each.  The L1 penalty applies
to dense weights only, contributing lambda * sign(W) to their gradients and
lambda * sum|W| to the recorded total loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ValidationError

BCE_EPS = 1e-7

# elements per block of the in-place elementwise loops (256 KiB of float64)
CHUNK = 32_768


def _blocks(size: int):
    for start in range(0, size, CHUNK):
        yield slice(start, min(start + CHUNK, size))


class Layer:
    """Base layer: subclasses fill params/grads dicts keyed by tensor name.

    A layer with parameters allocates a zeroed gradient array for each, and
    backward() overwrites it in place.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def penalty(self) -> float:
        return 0.0


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int, l1_lambda: float = 0.0, rng=None):
        super().__init__()
        if n_in < 1 or n_out < 1:
            raise ConfigError("dense layer sizes must be >= 1")
        if l1_lambda < 0:
            raise ConfigError("l1_lambda must be >= 0")
        rng = rng or np.random.default_rng(0)
        limit = np.sqrt(1.0 / n_in)
        self.params["W"] = rng.uniform(-limit, limit, (n_in, n_out))
        self.params["b"] = np.zeros(n_out)
        self.grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        self.l1_lambda = l1_lambda
        self._x = None

    def forward(self, x, train=False, rng=None):
        if x.shape[-1] != self.params["W"].shape[0]:
            raise ValidationError(
                f"dense layer expected input width {self.params['W'].shape[0]}, "
                f"got {x.shape[-1]}"
            )
        self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad):
        W, dW = self.params["W"], self.grads["W"]
        np.matmul(self._x.T, grad, out=dW)
        if self.l1_lambda:
            dW += self.l1_lambda * np.sign(W)
        np.sum(grad, axis=0, out=self.grads["b"])
        return grad @ W.T

    def penalty(self) -> float:
        if not self.l1_lambda:
            return 0.0
        return self.l1_lambda * float(np.abs(self.params["W"]).sum())


class Conv1D(Layer):
    """Stride-1, same-padding 1-D convolution over (batch, length, channels)."""

    def __init__(self, in_channels: int, filters: int = 32, kernel: int = 3, rng=None):
        super().__init__()
        if filters < 1 or kernel < 1:
            raise ConfigError("conv filters and kernel must be >= 1")
        if kernel % 2 == 0:
            raise ConfigError("same padding requires an odd kernel size")
        rng = rng or np.random.default_rng(0)
        limit = np.sqrt(1.0 / (in_channels * kernel))
        self.params["W"] = rng.uniform(-limit, limit, (kernel, in_channels, filters))
        self.params["b"] = np.zeros(filters)
        self.grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        self._cols = None

    def forward(self, x, train=False, rng=None):
        k, cin, _ = self.params["W"].shape
        if x.ndim != 3 or x.shape[2] != cin:
            raise ValidationError(
                f"conv expected (batch, length, {cin}) input, got shape {x.shape}"
            )
        pad = k // 2
        xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        length = x.shape[1]
        # (batch, length, kernel, channels) view of every window
        self._cols = np.stack([xp[:, i : i + length, :] for i in range(k)], axis=2)
        return np.einsum("blkc,kcf->blf", self._cols, self.params["W"]) + self.params["b"]

    def backward(self, grad):
        k = self.params["W"].shape[0]
        pad = k // 2
        np.einsum("blkc,blf->kcf", self._cols, grad, out=self.grads["W"])
        np.sum(grad, axis=(0, 1), out=self.grads["b"])
        dcols = np.einsum("blf,kcf->blkc", grad, self.params["W"])
        batch, length = grad.shape[0], grad.shape[1]
        dxp = np.zeros((batch, length + 2 * pad, dcols.shape[3]))
        for i in range(k):
            dxp[:, i : i + length, :] += dcols[:, :, i, :]
        return dxp[:, pad : pad + length, :]


class ReLU(Layer):
    def forward(self, x, train=False, rng=None):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad):
        return grad * self._mask


class Sigmoid(Layer):
    def forward(self, x, train=False, rng=None):
        self._y = 1.0 / (1.0 + np.exp(-x))
        return self._y

    def backward(self, grad):
        return grad * self._y * (1.0 - self._y)


class Dropout(Layer):
    """Inverted dropout: active only in train mode, identity in eval mode."""

    def __init__(self, rate: float):
        super().__init__()
        if not 0 <= rate < 1:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0:
            self._mask = None
            return x
        if rng is None:
            raise ConfigError("train-mode dropout needs a seeded generator")
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class Flatten(Layer):
    def forward(self, x, train=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class Reshape(Layer):
    def __init__(self, shape: tuple[int, ...]):
        super().__init__()
        self.shape = shape

    def forward(self, x, train=False, rng=None):
        return x.reshape((x.shape[0],) + self.shape)

    def backward(self, grad):
        return grad.reshape(grad.shape[0], -1)


class Stack:
    """A plain sequential composition of layers."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, train=False, rng=None):
        for i, layer in enumerate(self.layers):
            try:
                x = layer.forward(x, train=train, rng=rng)
            except ValidationError as exc:
                raise ValidationError(f"layer {i}: {exc}") from exc
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def penalty(self) -> float:
        return sum(layer.penalty() for layer in self.layers)

    def param_slots(self, prefix=""):
        """(name, layer, key) for every parameter, in layer order."""
        for i, layer in enumerate(self.layers):
            for key in layer.params:
                yield f"{prefix}{i}.{type(layer).__name__}.{key}", layer, key


def bce_loss(pred: np.ndarray, target: np.ndarray):
    """Mean binary cross-entropy over every element, with its gradient.

    Predictions are clamped to [eps, 1-eps]; positions where the clamp is
    active get zero gradient (the clamp is flat there).
    """
    if np.isnan(pred).any() or np.isnan(target).any():
        raise NumericError("NaN input to binary cross-entropy")
    clipped = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    loss = -np.mean(target * np.log(clipped) + (1 - target) * np.log(1 - clipped))
    inside = (pred > BCE_EPS) & (pred < 1.0 - BCE_EPS)
    grad = np.where(
        inside, (-target / clipped + (1 - target) / (1 - clipped)) / pred.size, 0.0
    )
    return float(loss), grad


def kl_loss(mean: np.ndarray, logvar: np.ndarray):
    """KL(q || N(0, I)) summed over latent dims, averaged over the batch.

    Returns (loss, d/dmean, d/dlogvar).
    """
    if np.isnan(mean).any() or np.isnan(logvar).any():
        raise NumericError("NaN input to KL divergence")
    batch = mean.shape[0]
    per_example = -0.5 * np.sum(1 + logvar - mean**2 - np.exp(logvar), axis=1)
    loss = float(per_example.mean())
    dmean = mean / batch
    dlogvar = 0.5 * (np.exp(logvar) - 1.0) / batch
    return loss, dmean, dlogvar


class ParameterBuffer:
    """Named layer tensors moved into one contiguous float64 array.

    Every parameter, and its gradient, becomes a view into `values` (and
    `grads`), in the order the slots are given; the layers keep using their
    params and grads dicts, so the optimizer and whole-model weight copies
    each work on a single array.
    """

    def __init__(self, slots):
        slots = list(slots)  # (name, layer, key)
        self.shapes = {name: layer.params[key].shape for name, layer, key in slots}
        total = sum(math.prod(shape) for shape in self.shapes.values())
        self.values = np.empty(total)
        self.grads = np.zeros(total)
        values, grads = self.views(self.values), self.views(self.grads)
        for name, layer, key in slots:
            values[name][...] = layer.params[key]
            layer.params[key] = values[name]
            layer.grads[key] = grads[name]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor's view into flat, a buffer laid out like `values`."""
        out, offset = {}, 0
        for name, shape in self.shapes.items():
            size = math.prod(shape)
            out[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        return out


@dataclass
class AdamConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")


class Adam:
    """Bias-corrected Adam (Kingma & Ba, 2015) over one flat parameter array.

    step() updates the array in place, CHUNK elements at a time through two
    chunk-sized scratch arrays, so it allocates nothing.  Per element it
    computes m_hat = m / (1 - beta1^t), v_hat = v / (1 - beta2^t) and
    p -= (lr * m_hat) / (sqrt(v_hat) + eps), in that order.
    """

    def __init__(self, params: np.ndarray, config: AdamConfig | None = None):
        flat = params.ndim == 1 and params.flags.c_contiguous
        if not flat or params.dtype != np.float64:
            raise ValidationError("Adam needs a contiguous 1-D float64 parameter array")
        self.config = config or AdamConfig()
        self.params = params
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty((2, min(CHUNK, params.size)))
        self.step_count = 0

    def step(self, grads: np.ndarray):
        if grads.shape != self.params.shape:
            raise ValidationError(
                f"gradient shape {grads.shape} does not match "
                f"parameters {self.params.shape}"
            )
        cfg = self.config
        self.step_count += 1
        t = self.step_count
        bias1 = 1 - cfg.beta1**t
        bias2 = 1 - cfg.beta2**t
        for s in _blocks(self.params.size):
            p, g, m, v = self.params[s], grads[s], self.m[s], self.v[s]
            a, b = self._scratch[:, : s.stop - s.start]
            m *= cfg.beta1
            np.multiply(g, 1 - cfg.beta1, out=a)
            m += a
            v *= cfg.beta2
            np.multiply(g, 1 - cfg.beta2, out=a)
            a *= g
            v += a
            np.divide(m, bias1, out=a)
            a *= cfg.learning_rate
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            b += cfg.epsilon
            a /= b
            p -= a


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    n_checked: int

    def ok(self, tolerance: float) -> bool:
        return self.max_rel_error < tolerance


def grad_check(loss_fn, named_params, h: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn() must recompute the loss and return (loss, grads) where grads
    maps each name in named_params to the analytic gradient array.  The
    analytic gradients are copied before any parameter is perturbed, since
    loss_fn may return arrays it overwrites on its next call.  The relative
    error denominator is floored at 1e-3 so near-zero gradients are compared
    absolutely.
    """
    _, grads = loss_fn()
    analytic_grads = {name: np.array(grads[name], dtype=float) for name in named_params}
    worst = 0.0
    worst_name = ""
    n = 0
    for name, arr in named_params.items():
        analytic = analytic_grads[name]
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = loss_fn()
            flat[i] = orig - h
            down, _ = loss_fn()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            a = analytic.ravel()[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-3)
            n += 1
            if rel > worst:
                worst = rel
                worst_name = f"{name}[{i}]"
    return GradCheckReport(worst, worst_name, n)
