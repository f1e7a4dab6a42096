import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peptaste import nn
from peptaste.errors import ConfigError, NumericError, ValidationError
from conftest import grad_check


class TestLayers:
    def test_dense_zero_map(self):
        layer = nn.Dense(3, 1)
        layer.params["W"][...] = 0.0
        layer.params["b"][...] = 0.0
        out = layer.forward(np.ones((4, 3)))
        assert np.all(out == 0.0)

    def test_dense_shape_error_names_layer(self):
        stack = nn.Stack([nn.Dense(3, 2)])
        with pytest.raises(ValidationError, match="layer 0"):
            stack.forward(np.ones((1, 4)))

    def test_conv_delta_kernel_is_identity(self):
        layer = nn.Conv1D(1, filters=1, kernel=3)
        layer.params["W"][...] = 0.0
        layer.params["W"][1, 0, 0] = 1.0  # center tap only
        layer.params["b"][...] = 0.0
        x = np.random.default_rng(0).random((2, 7, 1))
        assert np.allclose(layer.forward(x), x)

    def test_conv_matches_direct_loops(self):
        # oracle: straight-line triple loop over batch, position, and tap
        rng = np.random.default_rng(1)
        layer = nn.Conv1D(3, filters=2, kernel=3, rng=rng)
        x = rng.random((2, 5, 3))
        out = layer.forward(x)
        W, b = layer.params["W"], layer.params["b"]
        xp = np.pad(x, ((0, 0), (1, 1), (0, 0)))
        expected = np.zeros((2, 5, 2))
        for n in range(2):
            for pos in range(5):
                for f in range(2):
                    acc = b[f]
                    for k in range(3):
                        for c in range(3):
                            acc += xp[n, pos + k, c] * W[k, c, f]
                    expected[n, pos, f] = acc
        assert np.allclose(out, expected, atol=1e-12)

    def test_two_layer_stack_matches_direct_evaluation(self):
        rng = np.random.default_rng(2)
        stack = nn.Stack(
            [nn.Dense(4, 3, rng=rng), nn.ReLU(), nn.Dense(3, 2, rng=rng)]
        )
        x = rng.random((5, 4))
        out = stack.forward(x)
        w1, b1 = stack.layers[0].params["W"], stack.layers[0].params["b"]
        w2, b2 = stack.layers[2].params["W"], stack.layers[2].params["b"]
        expected = np.maximum(x @ w1 + b1, 0) @ w2 + b2
        assert np.allclose(out, expected, atol=1e-12)

    def test_dropout_eval_mode_is_identity(self):
        layer = nn.Dropout(0.5)
        x = np.random.default_rng(3).random((4, 4))
        assert np.array_equal(layer.forward(x, train=False), x)

    def test_dropout_needs_rng_in_train_mode(self):
        with pytest.raises(ConfigError):
            nn.Dropout(0.5).forward(np.ones((2, 2)), train=True)

    def test_inverted_dropout_expectation(self):
        # averaging many seeded masks reproduces the eval-mode output
        layer = nn.Dropout(0.3)
        x = np.ones((1, 8))
        rng = np.random.default_rng(4)
        total = np.zeros_like(x)
        n = 20_000
        for _ in range(n):
            total += layer.forward(x, train=True, rng=rng)
        assert np.allclose(total / n, x, atol=0.01, rtol=0.01)

    def test_dropout_rate_validation(self):
        with pytest.raises(ConfigError):
            nn.Dropout(1.0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            nn.Conv1D(3, filters=2, kernel=4)


class TestLosses:
    def test_bce_at_half_is_log_two(self):
        target = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = nn.bce_loss(np.full((2, 2), 0.5), target)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_bce_nan_rejected(self):
        with pytest.raises(NumericError):
            nn.bce_loss(np.array([[np.nan]]), np.array([[1.0]]))

    def test_bce_minimized_at_target(self):
        # scan p for each target value: minimum must sit at p == t
        grid = np.linspace(0.01, 0.99, 99)
        for t in (0.0, 1.0):
            losses = [nn.bce_loss(np.array([[p]]), np.array([[t]]))[0] for p in grid]
            assert grid[int(np.argmin(losses))] == pytest.approx(t, abs=0.011)

    def test_kl_zero_at_prior(self):
        loss, dm, dl = nn.kl_loss(np.zeros((3, 4)), np.zeros((3, 4)))
        assert loss == 0.0
        assert np.all(dm == 0.0) and np.all(dl == 0.0)

    def test_kl_analytic_value(self):
        loss, _, _ = nn.kl_loss(np.array([[1.0]]), np.array([[0.0]]))
        assert loss == pytest.approx(0.5, abs=1e-12)

    def test_kl_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            mean = rng.normal(size=(4, 6))
            logvar = rng.normal(size=(4, 6))
            assert nn.kl_loss(mean, logvar)[0] >= -1e-12


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = np.array([1.0, -2.0])
        opt = nn.Adam(p)
        opt.step(np.zeros(2))
        assert np.array_equal(p, [1.0, -2.0])

    def test_first_step_magnitude(self):
        # oracle: hand evaluation of the bias-corrected recurrence
        p = np.array([0.0])
        opt = nn.Adam(p)
        opt.step(np.array([1.0]))
        assert p[0] == pytest.approx(-0.001, abs=1e-8)

    def test_deterministic_runs(self):
        def run():
            rng = np.random.default_rng(6)
            p = rng.random(9)
            opt = nn.Adam(p)
            for _ in range(100):
                opt.step(rng.random(9) - 0.5)
            return p

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        opt = nn.Adam(np.zeros(2))
        with pytest.raises(ValidationError):
            opt.step(np.zeros(3))

    def test_chunked_update_matches_whole_array_update(self):
        # oracle: one whole-array pass in the same operation order, over a
        # buffer that spans several chunks and ends in a partial one
        rng = np.random.default_rng(9)
        size = 2 * nn.CHUNK + 123
        p = rng.normal(size=size)
        ref = p.copy()
        m, v = np.zeros(size), np.zeros(size)
        opt = nn.Adam(p)
        for t in range(1, 6):
            g = rng.normal(size=size)
            opt.step(g)
            m = nn.BETA1 * m + (1 - nn.BETA1) * g
            v = nn.BETA2 * v + (1 - nn.BETA2) * g * g
            m_hat = m / (1 - nn.BETA1**t)
            v_hat = v / (1 - nn.BETA2**t)
            ref -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + nn.EPSILON)
        assert np.array_equal(p, ref)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", -0.001),
            ("learning_rate", 0.0),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
        ],
    )
    def test_invalid_config_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            nn.Adam(np.zeros(3), **{field: value})

    def test_non_flat_parameters_rejected(self):
        with pytest.raises(ValidationError):
            nn.Adam(np.zeros((2, 2)))


class ReferenceAdam:
    """Adam as one loop over the whole array on the caller's thread, with one
    scratch pair: the step that the shared update must equal bit for bit."""

    def __init__(self, params, learning_rate):
        self.learning_rate = learning_rate
        self.params = params
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty((2, min(nn.CHUNK, params.size)))
        self.step_count = 0

    def step(self, grads):
        self.step_count += 1
        t = self.step_count
        bias1 = 1 - nn.BETA1**t
        bias2 = 1 - nn.BETA2**t
        for s in nn._blocks(self.params.size):
            p, g, m, v = self.params[s], grads[s], self.m[s], self.v[s]
            a, b = self._scratch[:, : s.stop - s.start]
            m *= nn.BETA1
            np.multiply(g, 1 - nn.BETA1, out=a)
            m += a
            v *= nn.BETA2
            np.multiply(g, 1 - nn.BETA2, out=a)
            a *= g
            v += a
            np.divide(m, bias1, out=a)
            a *= self.learning_rate
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            b += nn.EPSILON
            a /= b
            p -= a


def shares_forced(chunk: int, cpus: int):
    """nn with CHUNK-element blocks, cpus usable CPUs and one block enough
    for a share, so small arrays split into 1 to cpus shares."""
    return mock.patch.multiple(nn, CHUNK=chunk, SHARE_MIN_CHUNKS=1, _usable_cpus=lambda: cpus)


class TestAdamShares:
    @settings(max_examples=150, deadline=None)
    @given(
        chunk=st.integers(1, 16),
        chunks=st.floats(0.05, 5.0),
        cpus=st.integers(1, 4),
        steps=st.integers(1, 5),
        learning_rate=st.sampled_from([0.001, 0.37]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shares_equal_the_single_loop(
        self, chunk, chunks, cpus, steps, learning_rate, seed
    ):
        size = max(1, round(chunks * chunk))
        rng = np.random.default_rng(seed)
        start = rng.normal(size=size)
        with shares_forced(chunk, cpus):
            opt = nn.Adam(start.copy(), learning_rate)
            ref = ReferenceAdam(start.copy(), learning_rate)
            blocks = -(-size // chunk)
            assert len(opt._shares) == min(cpus, blocks)
            for _ in range(steps):
                # gradients over many magnitudes, with exact zeros
                g = rng.normal(size=size) * 10.0 ** rng.integers(-8, 3, size=size)
                g[rng.random(size) < 0.1] = 0.0
                opt.step(g)
                ref.step(g)
        for name in ("params", "m", "v"):
            assert getattr(opt, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_share_boundaries_are_chunk_multiples(self):
        with shares_forced(8, 3):
            cuts = [s.start for s in nn._share_slices(8 * 7 + 5)]
        assert cuts == [0, 16, 40]

    def test_helper_share_error_reaches_the_caller(self):
        update = nn._adam_update

        def fail_off_caller(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper share failed")
            update(*args)

        with shares_forced(4, 3):
            opt = nn.Adam(np.zeros(24))
            assert len(opt._shares) == 3
            with mock.patch.object(nn, "_adam_update", fail_off_caller):
                with pytest.raises(RuntimeError, match="helper share failed"):
                    opt.step(np.ones(24))
            # share 0 ran on the caller's thread; the failed shares did not
            assert np.all(opt.params[:8] < 0) and np.all(opt.params[8:] == 0)

    def test_default_design_model_splits_in_cpu_shares(self):
        # the VAE at latent 2000 and hidden 128 has 891,477 parameters
        with mock.patch.object(nn, "_usable_cpus", lambda: 2):
            cuts = [(s.start, s.stop) for s in nn._share_slices(891_477)]
        assert cuts == [(0, 14 * nn.CHUNK), (14 * nn.CHUNK, 891_477)]
        with mock.patch.object(nn, "_usable_cpus", lambda: 64):
            assert len(nn._share_slices(891_477)) == 28 // nn.SHARE_MIN_CHUNKS
        assert len(nn._share_slices(nn.SHARE_MIN_CHUNKS * nn.CHUNK)) == 1

class TestGradCheck:
    def test_dense_bce_gradients(self):
        rng = np.random.default_rng(7)
        layer = nn.Dense(3, 2, rng=rng)
        layer.params["b"][...] = rng.normal(scale=0.1, size=2)
        sig = nn.Sigmoid()
        x = rng.random((4, 3))
        target = (rng.random((4, 2)) > 0.5).astype(float)

        def loss_fn():
            out = sig.forward(layer.forward(x))
            loss, grad = nn.bce_loss(out, target)
            layer.backward(sig.backward(grad))
            return loss, {"W": layer.grads["W"], "b": layer.grads["b"]}

        report = grad_check(
            loss_fn, {"W": layer.params["W"], "b": layer.params["b"]}
        )
        assert report.ok(1e-6)

    def test_reused_gradient_buffer(self):
        # loss_fn overwrites one gradient array on every call, as a model's
        # gradient buffer does; the check must keep the unperturbed gradient
        w = np.array([0.3, -1.2, 2.0])
        buf = np.empty(3)

        def loss_fn():
            np.multiply(3.0, w**2, out=buf)
            return float((w**3).sum()), {"w": buf}

        assert grad_check(loss_fn, {"w": w}).ok(1e-6)

    def test_in_place_dense_gradient_matches_allocating_form(self):
        rng = np.random.default_rng(10)
        layer = nn.Dense(300, 130, rng=rng)
        x = rng.normal(size=(4, 300))
        grad = rng.normal(size=(4, 130))
        layer.forward(x)
        layer.backward(grad)
        assert np.array_equal(layer.grads["W"], x.T @ grad)
        assert np.array_equal(layer.grads["b"], grad.sum(axis=0))

    def test_conv_gradients(self):
        rng = np.random.default_rng(8)
        conv = nn.Conv1D(2, filters=3, kernel=3, rng=rng)
        conv.params["b"][...] = rng.normal(scale=0.1, size=3)
        x = rng.random((2, 5, 2))
        target = rng.random((2, 5, 3))

        def loss_fn():
            out = conv.forward(x)
            diff = out - target
            loss = float((diff**2).mean())
            conv.backward(2 * diff / diff.size)
            return loss, {"W": conv.grads["W"], "b": conv.grads["b"]}

        report = grad_check(
            loss_fn, {"W": conv.params["W"], "b": conv.params["b"]}
        )
        assert report.ok(1e-6)
