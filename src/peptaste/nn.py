"""Minimal differentiable building blocks for the sequence autoencoder.

Everything runs in 64-bit floats so finite-difference gradient checks have
numerical headroom.  Layers cache their forward inputs; backward() must be
called once per forward() and writes each gradient into the layer's
existing grads array, so a ParameterBuffer can gather every parameter and
gradient of a model into one contiguous array each.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import re

import numpy as np

from .errors import ConfigError, NumericError, ValidationError

BCE_EPS = 1e-7

# elements per block of the in-place elementwise loops (256 KiB of float64)
CHUNK = 32_768
# an Adam step is split across CPUs only while every share keeps this many
# blocks; smaller models update on the caller's thread alone
SHARE_MIN_CHUNKS = 4


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


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int, rng=None):
        super().__init__()
        if n_in < 1 or n_out < 1:
            raise ConfigError("dense layer sizes must be >= 1")
        rng = rng or np.random.default_rng(0)
        limit = np.sqrt(1.0 / n_in)
        self.params["W"] = rng.uniform(-limit, limit, (n_in, n_out))
        self.params["b"] = np.zeros(n_out)
        self.grads = {name: np.zeros_like(p) for name, p in self.params.items()}
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
        np.matmul(self._x.T, grad, out=self.grads["W"])
        np.sum(grad, axis=0, out=self.grads["b"])
        return grad @ self.params["W"].T


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


# Adam's moment decay rates and denominator term (Kingma & Ba, 2015)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def check_learning_rate(learning_rate: float) -> None:
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ConfigError(f"learning_rate must be finite and > 0, got {learning_rate}")


class Adam:
    """Bias-corrected Adam (Kingma & Ba, 2015) over one flat parameter array.

    step() updates the array in place.  The array is cut into one
    contiguous share per usable CPU, at multiples of CHUNK, while every
    share keeps SHARE_MIN_CHUNKS blocks or more; otherwise it is one share.
    Share 0 runs on the caller's thread and the others on one process-wide
    helper pool, started by the first step that has more than one share,
    and a step returns only when every share has ended.  Each share works
    CHUNK elements at a time through its own two chunk-sized scratch
    arrays, so a step allocates no array.  Per element it computes
    m_hat = m / (1 - BETA1^t), v_hat = v / (1 - BETA2^t) and
    p -= (lr * m_hat) / (sqrt(v_hat) + EPSILON), in that order, so any
    share count gives the same bits.
    """

    def __init__(self, params: np.ndarray, learning_rate: float = 0.001):
        flat = params.ndim == 1 and params.flags.c_contiguous
        if not flat or params.dtype != np.float64:
            raise ValidationError("Adam needs a contiguous 1-D float64 parameter array")
        check_learning_rate(learning_rate)
        self.learning_rate = learning_rate
        self.params = params
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        # (slice, parameter, m and v views, scratch) of each share
        self._shares = [
            (s, params[s], self.m[s], self.v[s], np.empty((2, min(CHUNK, s.stop - s.start))))
            for s in _share_slices(params.size)
        ]
        self.step_count = 0

    def step(self, grads: np.ndarray):
        if grads.shape != self.params.shape:
            raise ValidationError(
                f"gradient shape {grads.shape} does not match "
                f"parameters {self.params.shape}"
            )
        self.step_count += 1
        t = self.step_count
        rates = (self.learning_rate, 1 - BETA1**t, 1 - BETA2**t)
        work = [(p, grads[s], m, v, scratch) for s, p, m, v, scratch in self._shares]
        helpers = [_helper_pool().submit(_adam_update, *w, *rates) for w in work[1:]]
        try:
            _adam_update(*work[0], *rates)
        finally:
            # every share has ended before the step returns or raises
            errors = [future.exception() for future in helpers]
        for exc in errors:
            if exc is not None:
                raise exc


def _adam_update(p, g, m, v, scratch, learning_rate, bias1, bias2):
    """One Adam step over one share, in place, CHUNK elements at a time."""
    for s in _blocks(p.size):
        pb, gb, mb, vb = p[s], g[s], m[s], v[s]
        a, b = scratch[:, : s.stop - s.start]
        mb *= BETA1
        np.multiply(gb, 1 - BETA1, out=a)
        mb += a
        vb *= BETA2
        np.multiply(gb, 1 - BETA2, out=a)
        a *= gb
        vb += a
        np.divide(mb, bias1, out=a)
        a *= learning_rate
        np.divide(vb, bias2, out=b)
        np.sqrt(b, out=b)
        b += EPSILON
        a /= b
        pb -= a


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share_slices(size: int) -> list[slice]:
    """Contiguous shares of a size-element array, cut at multiples of CHUNK:
    one per usable CPU while each keeps SHARE_MIN_CHUNKS blocks, else one."""
    blocks = -(-size // CHUNK)
    shares = max(1, min(_usable_cpus(), blocks // SHARE_MIN_CHUNKS))
    cuts = [min(size, CHUNK * (blocks * i // shares)) for i in range(shares + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


_helpers = None  # the pool that runs shares 1.. of every multi-share step


def _helper_pool():
    global _helpers
    if _helpers is None:
        # imported here: commands that never train start no thread
        from concurrent.futures import ThreadPoolExecutor

        _helpers = ThreadPoolExecutor(
            max(1, _usable_cpus() - 1), thread_name_prefix="peptaste-adam"
        )
    return _helpers


# thread-count getters of the OpenBLAS builds numpy ships or links; each
# has a setter of the same name with "set" for "get"
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_blas_threads = None  # (getter, setter) once looked up; () when none is found


def _blas_thread_functions():
    """The loaded OpenBLAS's thread-count getter and setter, or ()."""
    global _blas_threads
    if _blas_threads is None:
        _blas_threads = ()
        try:
            with open("/proc/self/maps", encoding="utf-8") as fh:
                paths = sorted(set(re.findall(r"(/\S*blas\S*\.so\S*)", fh.read())))
            libs = [ctypes.CDLL(path) for path in paths]
        except OSError:
            libs = []
        for lib in libs:
            for name in _BLAS_THREAD_GETTERS:
                get = getattr(lib, name, None)
                put = getattr(lib, name.replace("_get_", "_set_"), None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    _blas_threads = (get, put)
                    return _blas_threads
    return _blas_threads


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with the loaded OpenBLAS on one thread, then restore
    the thread count it had, also when the body raises.  Matrix products
    then give the same bits whatever thread count the environment sets.
    Without an OpenBLAS thread setter (another BLAS, or no /proc/self/maps)
    this does nothing."""
    functions = _blas_thread_functions()
    if not functions:
        yield
        return
    get, put = functions
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
