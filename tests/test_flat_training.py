"""Training on the flat parameter buffer: oracle and allocation tests.

The per-array Adam below is the optimizer the flat, chunked one replaced;
it stays here as the reference the flat update must match bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from peptaste import nn
from peptaste.sequences import Peptide, encode_batch
from peptaste.vae import SequenceVae, VaeConfig
from conftest import named_params


class PerArrayAdam:
    """Bias-corrected Adam looping over separate parameter arrays."""

    def __init__(self, params, learning_rate):
        self.learning_rate = learning_rate
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.step_count = 0

    def step(self, grads):
        self.step_count += 1
        t = self.step_count
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= nn.BETA1
            m += (1 - nn.BETA1) * g
            v *= nn.BETA2
            v += (1 - nn.BETA2) * g * g
            m_hat = m / (1 - nn.BETA1**t)
            v_hat = v / (1 - nn.BETA2**t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + nn.EPSILON)


def small_config(**overrides):
    base = dict(
        max_len=8,
        latent_dim=6,
        hidden_units=10,
        conv_filters=4,
        dropout_rate=0.2,
        batch_size=4,
        seed=3,
    )
    base.update(overrides)
    return VaeConfig(**base)


def batches(max_len, n=24, seed=0):
    rng = np.random.default_rng(seed)
    residues = list("ACDEFGHIKLMNPQRSTVWY")
    peps = [
        Peptide("".join(rng.choice(residues, size=int(rng.integers(2, max_len + 1)))))
        for _ in range(n)
    ]
    data = encode_batch(peps, max_len)
    return [data[i : i + 4] for i in range(0, n, 4)]


@pytest.mark.parametrize("l1_lambda", [0.0, 0.01])
def test_flat_training_matches_per_array_adam(l1_lambda):
    cfg = small_config(l1_lambda=l1_lambda)
    flat, reference = SequenceVae(cfg), SequenceVae(cfg)
    params = named_params(reference)
    names = list(params)
    oracle = PerArrayAdam([params[n] for n in names], cfg.learning_rate)
    data = batches(cfg.max_len)
    rng_flat, rng_ref = np.random.default_rng(1), np.random.default_rng(1)
    for step in range(30):
        x = data[step % len(data)]
        got = flat.train_step(x, rng_flat)
        eps = rng_ref.standard_normal((x.shape[0], cfg.latent_dim))
        want, grads = reference.loss_and_grads(x, eps, rng=rng_ref)
        oracle.step([grads[n] for n in names])
        assert got == want
    for name, arr in named_params(flat).items():
        assert np.array_equal(arr, params[name]), name
    assert flat.optimizer.step_count == 30


def test_weight_copies_round_trip():
    cfg = small_config(l1_lambda=0.01)
    model = SequenceVae(cfg)
    rng = np.random.default_rng(2)
    data = batches(cfg.max_len)
    for x in data[:3]:
        model.train_step(x, rng)
    saved = model.copy_weights()
    before = {name: arr.copy() for name, arr in named_params(model).items()}
    assert list(saved) == list(before)
    assert not any(np.shares_memory(a, model.buffer.values) for a in saved.values())
    for x in data[3:]:
        model.train_step(x, rng)
    assert not np.array_equal(named_params(model)["mean.W"], before["mean.W"])
    model.load_weights(saved)
    for name, arr in named_params(model).items():
        assert np.array_equal(arr, before[name]), name
        assert np.array_equal(saved[name], before[name]), name


def test_layers_train_through_buffer_views():
    model = SequenceVae(small_config())
    for name, arr in named_params(model).items():
        assert np.shares_memory(arr, model.buffer.values), name
    grads = model.loss_and_grads(
        batches(8)[0], np.zeros((4, 6)), rng=np.random.default_rng(0)
    )[1]
    for name, arr in grads.items():
        assert np.shares_memory(arr, model.buffer.grads), name
    assert model.parameter_count() == sum(a.size for a in grads.values())


def test_adam_step_allocates_under_a_megabyte():
    # perf guard: the design workload's model size (latent 2000, hidden 128)
    model = SequenceVae(VaeConfig(max_len=14, latent_dim=2000, hidden_units=128))
    assert model.parameter_count() == 891_477
    model.buffer.grads[:] = np.random.default_rng(0).normal(size=model.parameter_count())
    model.optimizer.step(model.buffer.grads)
    tracemalloc.start()
    try:
        model.optimizer.step(model.buffer.grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
