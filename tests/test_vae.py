import itertools

import numpy as np
import pytest

from peptaste import vae
from peptaste.errors import ConfigError, NumericError, TrainingDiverged
from peptaste.sequences import Peptide, encode_batch
from peptaste.vae import (
    Action,
    LossRecord,
    Phase,
    PhasedController,
    SequenceVae,
    VaeConfig,
)


def tiny_config(**overrides):
    base = dict(
        max_len=6,
        latent_dim=4,
        epochs=8,
        hidden_units=8,
        conv_filters=4,
        dropout_rate=0.1,
        batch_size=4,
        seed=0,
        generation_count=5,
    )
    base.update(overrides)
    return VaeConfig(**base)


def toy_data(n=12, max_len=6, seed=0):
    rng = np.random.default_rng(seed)
    peps = []
    for _ in range(n):
        length = int(rng.integers(2, max_len + 1))
        peps.append(Peptide("".join(rng.choice(list("ACDEG"), size=length))))
    return peps, encode_batch(peps, max_len)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            VaeConfig(max_len=6, latent_dim=1)
        with pytest.raises(ConfigError):
            VaeConfig(max_len=6, epochs=1)
        with pytest.raises(ConfigError):
            VaeConfig(max_len=6, extension_epochs=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", -0.001),
            ("learning_rate", 0.0),
            ("learning_rate", float("nan")),
            ("l1_lambda", -0.01),
            ("l1_lambda", float("nan")),
            ("l1_lambda", float("inf")),
        ],
    )
    def test_optimizer_settings_validated(self, field, value):
        with pytest.raises(ConfigError, match=field):
            VaeConfig(max_len=6, **{field: value})

    def test_extension_default_is_fifth_of_epochs(self):
        assert VaeConfig(max_len=6, epochs=500).extension == 100
        assert VaeConfig(max_len=6, epochs=13).extension == 3
        assert VaeConfig(max_len=6, epochs=13, extension_epochs=0).extension == 0


class TestBuild:
    def test_deterministic_init(self):
        cfg = tiny_config(seed=42)
        a, b = SequenceVae(cfg), SequenceVae(cfg)
        for x, y in zip(a.named_params().values(), b.named_params().values()):
            assert np.array_equal(x, y)

    def test_latent_head_width(self):
        cfg = tiny_config(latent_dim=7)
        model = SequenceVae(cfg)
        assert model.head_mean.params["W"].shape[1] == 7
        assert model.head_logvar.params["W"].shape[1] == 7

    def test_parameter_count_matches_shape_arithmetic(self):
        # oracle: closed-form sum over the declared layer shapes
        cfg = tiny_config(max_len=5, latent_dim=3, hidden_units=6, conv_filters=4)
        model = SequenceVae(cfg)
        L, F, H, Z, K = 5, 4, 6, 3, 3
        expected = (
            (K * 21 * F + F)          # encoder conv
            + (L * F * H + H)         # encoder dense
            + 2 * (H * Z + Z)         # two latent heads
            + (Z * H + H)             # decoder dense 1
            + (H * L * F + L * F)     # decoder dense 2
            + (K * F * 21 + 21)       # decoder conv
        )
        assert model.parameter_count() == expected


class TestController:
    def test_phase_partition(self):
        ctl = PhasedController(epochs=500, extension_epochs=100)
        assert ctl.phase1_end == 250
        assert ctl.phase_of(1) is Phase.PHASE_I
        assert ctl.phase_of(250) is Phase.PHASE_I
        assert ctl.phase_of(251) is Phase.PHASE_II
        assert ctl.phase_of(500) is Phase.PHASE_II
        assert ctl.phase_of(501) is Phase.EXTENSION
        # every epoch maps to exactly one phase
        for epoch in range(1, ctl.max_epochs + 1):
            assert ctl.phase_of(epoch) in (Phase.PHASE_I, Phase.PHASE_II, Phase.EXTENSION)

    def test_phase1_tracks_best_total(self):
        ctl = PhasedController(epochs=4, extension_epochs=0)
        assert ctl.observe(1, LossRecord(1.0, 0.6, 0.4)) is Action.SNAPSHOT
        assert ctl.observe(2, LossRecord(1.2, 0.7, 0.5)) is Action.NONE
        assert ctl.best.loss_tol == 1.0 and ctl.best_epoch == 1

    def test_trigger_requires_all_three_strict(self):
        # exhaustive over the 8 orderings of the triple comparison
        base = LossRecord(0.30, 0.20, 0.10)
        for tol_less, rec_less, kl_less in itertools.product((True, False), repeat=3):
            ctl = PhasedController(epochs=4, extension_epochs=0)
            ctl.observe(1, base)
            ctl.observe(2, LossRecord(0.35, 0.25, 0.12))  # phase I, worse
            record = LossRecord(
                0.29 if tol_less else 0.31,
                0.19 if rec_less else 0.21,
                0.09 if kl_less else 0.11,
            )
            action = ctl.observe(3, record)
            if tol_less and rec_less and kl_less:
                assert action is Action.TRIGGER
                assert ctl.trigger_epoch == 3
            else:
                assert action is Action.NONE
                assert ctl.trigger_epoch is None

    def test_trigger_on_strict_triple_improvement(self):
        ctl = PhasedController(epochs=4, extension_epochs=0)
        ctl.observe(1, LossRecord(0.30, 0.20, 0.10))
        ctl.observe(2, LossRecord(0.32, 0.22, 0.11))
        assert ctl.observe(3, LossRecord(0.25, 0.18, 0.07)) is Action.TRIGGER

    def test_no_trigger_when_kl_stalls(self):
        ctl = PhasedController(epochs=4, extension_epochs=2)
        ctl.observe(1, LossRecord(0.30, 0.20, 0.10))
        ctl.observe(2, LossRecord(0.32, 0.22, 0.11))
        # total and reconstruction improve but KL does not
        assert ctl.observe(3, LossRecord(0.25, 0.18, 0.12)) is Action.NONE
        assert ctl.observe(4, LossRecord(0.26, 0.19, 0.12)) is Action.NONE
        # extension epochs use the same dual-constraint rule
        assert ctl.observe(5, LossRecord(0.26, 0.19, 0.12)) is Action.NONE
        assert ctl.observe(6, LossRecord(0.29, 0.19, 0.09)) is Action.TRIGGER
        assert ctl.phase_of(6) is Phase.EXTENSION

    def test_dual_trigger_stronger_than_phase1_rule(self):
        # any record passing the dual constraint also improves loss_tol
        rng = np.random.default_rng(0)
        for _ in range(200):
            best = LossRecord(*np.abs(rng.normal(size=3)) + 0.1)
            cand = LossRecord(*np.abs(rng.normal(size=3)) + 0.1)
            dual = (
                cand.loss_tol < best.loss_tol
                and cand.loss_rec < best.loss_rec
                and cand.loss_kl < best.loss_kl
            )
            if dual:
                assert cand.loss_tol < best.loss_tol


class TestTraining:
    def test_history_and_invariant(self):
        _, data = toy_data()
        model = SequenceVae(tiny_config())
        outcome = vae.train_la(model, data)
        assert len(outcome.history) >= model.config.epochs // 2
        for rec in outcome.history:
            assert rec.loss_tol == pytest.approx(
                rec.loss_rec + rec.loss_kl + rec.l1_penalty, rel=1e-9
            )
            assert rec.loss_rec >= 0 and rec.loss_kl >= -1e-12

    def test_trigger_epoch_in_late_phase(self):
        _, data = toy_data()
        model = SequenceVae(tiny_config(epochs=10))
        outcome = vae.train_la(model, data)
        if outcome.trigger_epoch is not None:
            assert outcome.trigger_epoch > 5
            assert outcome.phase_reached in (Phase.PHASE_II, Phase.EXTENSION)
        else:
            assert outcome.phase_reached is Phase.FALLBACK

    def test_fallback_restores_phase1_best(self):
        _, data = toy_data()
        # extension 0 and a trigger made impossible by a huge best bar is not
        # constructible from outside; instead verify on a real run that hit
        # fallback: restored weights equal the stored snapshot
        model = SequenceVae(tiny_config(epochs=4, extension_epochs=0, seed=5))
        outcome = vae.train_la(model, data)
        if outcome.phase_reached is Phase.FALLBACK:
            snap = model.snapshot
            phase1 = outcome.history[: 2]
            assert snap["record"].loss_tol == min(r.loss_tol for r in phase1)
            for name, arr in model.named_params().items():
                assert np.array_equal(arr, snap["weights"][name])

    def test_same_seed_bit_identical(self):
        _, data = toy_data()
        m1, m2 = SequenceVae(tiny_config(seed=9)), SequenceVae(tiny_config(seed=9))
        vae.train_la(m1, data)
        vae.train_la(m2, data)
        for a, b in zip(m1.named_params().values(), m2.named_params().values()):
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_attaches_history(self):
        _, data = toy_data()
        # a catastrophic learning rate lets epoch 1 record cleanly, then the
        # exploded weights overflow in epoch 2
        model = SequenceVae(tiny_config(learning_rate=1e30, batch_size=16))
        with pytest.raises(TrainingDiverged) as err:
            vae.train_la(model, data)
        assert len(err.value.history) >= 1


class TestEncodeGenerate:
    def test_encode_deterministic_and_shaped(self):
        peps, data = toy_data()
        model = SequenceVae(tiny_config())
        z1 = model.encode(peps)
        z2 = model.encode(peps)
        assert z1.shape == (len(peps), 4)
        assert np.array_equal(z1, z2)

    def test_encode_matches_forward_recomputation(self):
        peps, data = toy_data()
        model = SequenceVae(tiny_config())
        z = model.encode(peps)
        h = model.trunk.forward(data, train=False)
        expected = h @ model.head_mean.params["W"] + model.head_mean.params["b"]
        assert np.allclose(z, expected)

    def test_generate_deterministic(self):
        model = SequenceVae(tiny_config())
        a = model.generate(6, seed=3)
        b = model.generate(6, seed=3)
        assert [str(p) for p in a] == [str(p) for p in b]

    def test_generate_outputs_valid_peptides(self):
        model = SequenceVae(tiny_config())
        for pep in model.generate(10, seed=1):
            assert len(pep) >= 2

    def test_jitter_zero_reproduces_reconstructions(self):
        peps, data = toy_data()
        model = SequenceVae(tiny_config(generation_count=20))
        vae.train_la(model, data)
        mu = model.encode(peps)
        recon = model.reconstruct(peps)
        rng = np.random.default_rng(17)
        idx = rng.integers(0, len(mu), size=10)
        got = model.generate(10, mode="jitter", tau=0.0, seed=17, source_mu=mu)
        # the same index draw drives both paths, so compare directly where
        # the model's own reconstruction is valid
        matches = 0
        checked = 0
        for g, i in zip(got, idx):
            if recon[i] is not None:
                checked += 1
                if str(g) == str(recon[i]):
                    matches += 1
        assert checked > 0 and matches == checked

    def test_jitter_needs_source(self):
        model = SequenceVae(tiny_config())
        with pytest.raises(ConfigError):
            model.generate(3, mode="jitter")

    def test_rejection_budget_error(self):
        model = SequenceVae(tiny_config())
        # force every decode to be empty: bias the decoder's pad channel high
        model.decoder.layers[-2].params["b"][...] = -50.0
        model.decoder.layers[-2].params["b"][20] = 50.0
        model.decoder.layers[-2].params["W"][...] = 0.0
        with pytest.raises(NumericError, match="acceptance rate"):
            model.generate(3, seed=0)
