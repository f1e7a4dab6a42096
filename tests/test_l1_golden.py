"""Golden digests of VAE training with and without the L1 penalty.

The design goldens all train at l1_lambda 0, so they cannot see the L1
term.  These digests pin `vae.train_la` on 20 fixed random peptides with a
tiny model, at l1_lambda 0 and 0.01: the sha256 covers the repr of every
epoch's LossRecord, the bytes of the final parameter buffer and the 8
sequences the trained model then generates.  Both runs trigger convergence
at epoch 7.  They were recorded while each dense layer still added its own
L1 subgradient and penalty, and gave the same digests with one and with two
BLAS threads on a 2-core x86-64 machine (OpenBLAS).
"""

import hashlib

import numpy as np
import pytest

from peptaste import vae
from peptaste.sequences import Peptide, encode_batch
from conftest import random_peptide

GOLDEN = {
    0.0: "6c0e4f9b803b48b796a5d4ce69e7f40f94ac62053fc7a638cf0b890f1e98004e",
    0.01: "b90abc00aeb7a558c356e145ec19eb414380a461b04bd2cec7815aef5ff9caa9",
}


def training_digest(l1_lambda: float) -> str:
    rng = np.random.default_rng(5)
    peptides = [Peptide(random_peptide(rng, 2, 8)) for _ in range(20)]
    cfg = vae.VaeConfig(
        max_len=8,
        latent_dim=6,
        hidden_units=10,
        conv_filters=4,
        dropout_rate=0.2,
        epochs=12,
        extension_epochs=2,
        batch_size=4,
        l1_lambda=l1_lambda,
        seed=3,
    )
    model = vae.SequenceVae(cfg)
    vae.train_la(model, encode_batch(peptides, cfg.max_len))
    generated = model.generate(8)
    h = hashlib.sha256()
    for record in model.history:
        h.update(repr(record).encode())
    h.update(model.buffer.values.tobytes())
    h.update("\n".join(str(p) for p in generated).encode())
    return h.hexdigest()


@pytest.mark.parametrize("l1_lambda", sorted(GOLDEN))
def test_training_matches_golden(l1_lambda):
    assert training_digest(l1_lambda) == GOLDEN[l1_lambda]
