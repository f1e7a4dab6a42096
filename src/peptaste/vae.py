"""Sequence variational autoencoder with loss-supervised phased training.

The training loss is reconstruction cross-entropy plus KL divergence to
N(0, I) plus an L1 penalty lambda * sum|W| on the dense weights only, whose
subgradient lambda * sign(W) joins those weights' gradients.

Training is split into an exploration phase that tracks the best total
loss, a convergence phase whose trigger demands a simultaneous strict
improvement in total loss, reconstruction loss, and KL divergence over
the stored best, and an elastic extension entered when convergence never
triggers.  If the extension also fails, the exploration-phase best weights
are restored, so training always leaves a model to sample from.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError, NumericError, TrainingDiverged, ValidationError
from .sequences import NUM_CHANNELS, Peptide, decode_argmax, encode_batch

GENERATION_MODES = ("prior", "jitter")


def check_generation_mode(mode: str):
    if mode not in GENERATION_MODES:
        raise ConfigError(f"unknown generation mode {mode!r}")


@dataclass(frozen=True)
class VaeConfig:
    max_len: int
    latent_dim: int = 2000
    epochs: int = 500
    extension_epochs: int | None = None  # defaults to ceil(0.2 * epochs)
    hidden_units: int = 128
    conv_filters: int = 32
    conv_kernel: int = 3
    dropout_rate: float = 0.1
    l1_lambda: float = 0.01
    learning_rate: float = 0.001
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.max_len < 2:
            raise ConfigError(f"max_len must be >= 2, got {self.max_len}")
        if self.latent_dim < 2:
            raise ConfigError(f"latent_dim must be >= 2, got {self.latent_dim}")
        if self.epochs < 2:
            raise ConfigError(f"epochs must be >= 2, got {self.epochs}")
        if self.hidden_units < 1:
            raise ConfigError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if self.conv_filters < 1:
            raise ConfigError(f"conv_filters must be >= 1, got {self.conv_filters}")
        if self.extension_epochs is not None and self.extension_epochs < 0:
            raise ConfigError("extension_epochs must be >= 0")
        if self.conv_kernel < 1 or self.conv_kernel % 2 == 0:
            raise ConfigError("conv_kernel must be a positive odd number")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.l1_lambda) and self.l1_lambda >= 0):
            raise ConfigError(
                f"l1_lambda must be finite and >= 0, got {self.l1_lambda}"
            )
        nn.check_learning_rate(self.learning_rate)

    @property
    def extension(self) -> int:
        if self.extension_epochs is not None:
            return self.extension_epochs
        return math.ceil(0.2 * self.epochs)


@dataclass(frozen=True)
class LossRecord:
    loss_tol: float
    loss_rec: float
    loss_kl: float
    l1_penalty: float = 0.0

    def finite(self) -> bool:
        return bool(np.isfinite(self.loss_tol))


class Phase(enum.Enum):
    PHASE_I = "I"
    PHASE_II = "II"
    EXTENSION = "extension"
    FALLBACK = "fallback"


class Action(enum.Enum):
    NONE = "none"
    SNAPSHOT = "snapshot"
    TRIGGER = "trigger"


class PhasedController:
    """Pure state machine over per-epoch loss records.

    Epochs 1..ceil(E/2): snapshot whenever loss_tol improves on the best.
    Later epochs (including the extension): trigger only when loss_tol,
    loss_rec, and loss_kl are all strictly below the stored best triple.
    """

    def __init__(self, epochs: int, extension_epochs: int):
        if epochs < 2:
            raise ConfigError("epochs must be >= 2")
        self.epochs = epochs
        self.extension_epochs = extension_epochs
        self.phase1_end = math.ceil(epochs / 2)
        self.best: LossRecord | None = None
        self.best_epoch: int | None = None
        self.trigger_epoch: int | None = None

    @property
    def max_epochs(self) -> int:
        return self.epochs + self.extension_epochs

    def phase_of(self, epoch: int) -> Phase:
        if epoch <= self.phase1_end:
            return Phase.PHASE_I
        if epoch <= self.epochs:
            return Phase.PHASE_II
        return Phase.EXTENSION

    def observe(self, epoch: int, record: LossRecord) -> Action:
        if self.trigger_epoch is not None:
            raise ConfigError("controller already triggered")
        if epoch <= self.phase1_end:
            if self.best is None or record.loss_tol < self.best.loss_tol:
                self.best = record
                self.best_epoch = epoch
                return Action.SNAPSHOT
            return Action.NONE
        if (
            self.best is not None
            and record.loss_tol < self.best.loss_tol
            and record.loss_rec < self.best.loss_rec
            and record.loss_kl < self.best.loss_kl
        ):
            self.best = record
            self.best_epoch = epoch
            self.trigger_epoch = epoch
            return Action.TRIGGER
        return Action.NONE


@dataclass
class TrainOutcome:
    phase_reached: Phase
    trigger_epoch: int | None
    history: list[LossRecord]
    best_epoch: int | None
    best: LossRecord | None


class SequenceVae:
    """Encoder/decoder pair over one-hot peptide matrices.

    Encoder: Conv1D -> ReLU -> Dropout -> flatten -> Dense -> ReLU feeding
    separate mean and log-variance heads; the decoder mirrors the encoder
    back to a (max_len, 21) sigmoid map.
    """

    def __init__(self, config: VaeConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config
        flat = c.max_len * c.conv_filters
        self.trunk = nn.Stack(
            [
                nn.Conv1D(NUM_CHANNELS, c.conv_filters, c.conv_kernel, rng=rng),
                nn.ReLU(),
                nn.Dropout(c.dropout_rate),
                nn.Flatten(),
                nn.Dense(flat, c.hidden_units, rng=rng),
                nn.ReLU(),
            ]
        )
        self.head_mean = nn.Dense(c.hidden_units, c.latent_dim, rng=rng)
        self.head_logvar = nn.Dense(c.hidden_units, c.latent_dim, rng=rng)
        self.decoder = nn.Stack(
            [
                nn.Dense(c.latent_dim, c.hidden_units, rng=rng),
                nn.ReLU(),
                nn.Dense(c.hidden_units, flat, rng=rng),
                nn.ReLU(),
                nn.Reshape((c.max_len, c.conv_filters)),
                nn.Conv1D(c.conv_filters, NUM_CHANNELS, c.conv_kernel, rng=rng),
                nn.Sigmoid(),
            ]
        )
        # the L1 penalty's dense layers: the encoder's, then the decoder's
        layers = self.trunk.layers + self.decoder.layers
        first, *decoder = [d for d in layers if isinstance(d, nn.Dense)]
        self._l1_groups = ([first, self.head_mean, self.head_logvar], decoder)
        self.buffer = nn.ParameterBuffer(self._registry())
        self.optimizer = nn.Adam(self.buffer.values, c.learning_rate)
        self.history: list[LossRecord] = []
        self.snapshot: dict | None = None

    # --- parameter bookkeeping -------------------------------------------

    def _registry(self):
        yield from self.trunk.param_slots("enc.")
        for key in self.head_mean.params:
            yield f"mean.{key}", self.head_mean, key
        for key in self.head_logvar.params:
            yield f"logvar.{key}", self.head_logvar, key
        yield from self.decoder.param_slots("dec.")

    def parameter_count(self) -> int:
        return self.buffer.values.size

    def copy_weights(self) -> dict[str, np.ndarray]:
        """Views, by parameter name, into one copy of the parameter buffer."""
        return self.buffer.views(self.buffer.values.copy())

    def load_weights(self, weights: dict[str, np.ndarray]):
        np.concatenate(
            [weights[name].ravel() for name in self.buffer.shapes], out=self.buffer.values
        )

    # --- forward / training ----------------------------------------------

    def encode_matrix(self, x: np.ndarray) -> np.ndarray:
        """Deterministic latent means for encoded input (no dropout)."""
        h = self.trunk.forward(x, train=False)
        return self.head_mean.forward(h)

    def encode(self, peptides) -> np.ndarray:
        return self.encode_matrix(encode_batch(peptides, self.config.max_len))

    def decode(self, z: np.ndarray) -> np.ndarray:
        return self.decoder.forward(z, train=False)

    def loss_and_grads(self, x: np.ndarray, eps: np.ndarray, rng=None):
        """Full training loss (reconstruction + KL + L1) and its gradients.

        The gradients are views into the model's gradient buffer, which the
        next call overwrites.

        eps is the reparameterization noise; rng seeds the dropout masks
        (eval-mode dropout when omitted).  Passing both explicitly makes
        the computation a deterministic function of the parameters, which
        the finite-difference gradient check relies on.
        """
        train = rng is not None
        h = self.trunk.forward(x, train=train, rng=rng)
        mu = self.head_mean.forward(h)
        logvar = self.head_logvar.forward(h)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * eps
        out = self.decoder.forward(z, train=train, rng=rng)

        rec, drec = nn.bce_loss(out, x)
        kl, dmu_kl, dlogvar_kl = nn.kl_loss(mu, logvar)

        dz = self.decoder.backward(drec)
        dmu = dz + dmu_kl
        dlogvar = dz * eps * 0.5 * sigma + dlogvar_kl
        dh = self.head_mean.backward(dmu) + self.head_logvar.backward(dlogvar)
        self.trunk.backward(dh)

        l1 = 0.0
        if lam := self.config.l1_lambda:
            # lam * sum|W| per layer, the encoder's and the decoder's terms
            # summed apart, then added: tests/test_l1_golden.py pins the bits
            l1 = sum(
                sum(lam * float(np.abs(layer.params["W"]).sum()) for layer in group)
                for group in self._l1_groups
            )
            for layer in itertools.chain(*self._l1_groups):
                layer.grads["W"] += lam * np.sign(layer.params["W"])

        record = LossRecord(rec + kl + l1, rec, kl, l1)
        return record, self.buffer.views(self.buffer.grads)

    def train_step(self, x: np.ndarray, rng) -> LossRecord:
        """One Adam update on a batch; returns that batch's loss record."""
        eps = rng.standard_normal((x.shape[0], self.config.latent_dim))
        record, _ = self.loss_and_grads(x, eps, rng=rng)
        self.optimizer.step(self.buffer.grads)
        return record

    # --- generation --------------------------------------------------------

    def generate(
        self,
        n: int,
        mode: str = "prior",
        tau: float = 0.5,
        source_mu: np.ndarray | None = None,
    ) -> list[Peptide]:
        """Sample decoded peptides, rejecting decodes shorter than 2 residues.

        Prior mode draws z from the standard normal; jitter mode perturbs
        the latent mean of a random source row by tau-scaled noise.  The
        rejection budget is 100 * n attempts.  The draws come from the
        model's generation stream, [config.seed, 2]; training uses
        [config.seed, 1].
        """
        if n < 1:
            raise ConfigError(f"generation count must be >= 1, got {n}")
        check_generation_mode(mode)
        if mode == "jitter":
            if source_mu is None or len(source_mu) == 0:
                raise ConfigError("jitter mode needs source latent means")
        rng = np.random.default_rng([self.config.seed, 2])
        out: list[Peptide] = []
        attempts = 0
        budget = 100 * n
        while len(out) < n:
            if attempts >= budget:
                raise NumericError(
                    f"generation rejected too many samples: {attempts} attempts "
                    f"produced {len(out)}/{n} valid sequences "
                    f"(acceptance rate {len(out) / attempts:.4f})"
                )
            chunk = min(n, budget - attempts)
            if mode == "prior":
                z = rng.standard_normal((chunk, self.config.latent_dim))
            else:
                idx = rng.integers(0, len(source_mu), size=chunk)
                noise = rng.standard_normal((chunk, self.config.latent_dim))
                z = source_mu[idx] + tau * noise
            probs = self.decode(z)
            for row in probs:
                if attempts >= budget or len(out) == n:
                    break
                attempts += 1
                try:
                    out.append(decode_argmax(row))
                except ValidationError:
                    continue
        return out


def train_la(model: SequenceVae, data: np.ndarray) -> TrainOutcome:
    """Run the three-phase loss-supervised schedule on one model.

    Each epoch's record is the mean of its minibatch training losses.
    Divergence aborts with the history attached.  The returned outcome
    carries the phase reached and the full loss history.
    """
    if data.ndim != 3 or data.shape[0] == 0:
        raise ValidationError("training data must be a non-empty (n, len, 21) array")
    cfg = model.config
    controller = PhasedController(cfg.epochs, cfg.extension)
    rng = np.random.default_rng([cfg.seed, 1])
    n = data.shape[0]

    for epoch in range(1, controller.max_epochs + 1):
        perm = rng.permutation(n)
        batch_records = []
        for start in range(0, n, cfg.batch_size):
            batch = data[perm[start : start + cfg.batch_size]]
            try:
                batch_records.append(model.train_step(batch, rng))
            except NumericError as exc:
                raise TrainingDiverged(
                    f"numeric failure at epoch {epoch}: {exc}", model.history
                ) from exc
        record = LossRecord(
            float(np.mean([r.loss_tol for r in batch_records])),
            float(np.mean([r.loss_rec for r in batch_records])),
            float(np.mean([r.loss_kl for r in batch_records])),
            float(np.mean([r.l1_penalty for r in batch_records])),
        )
        model.history.append(record)
        if not record.finite():
            raise TrainingDiverged(
                f"loss became non-finite at epoch {epoch}", model.history
            )
        action = controller.observe(epoch, record)
        if action is Action.SNAPSHOT or action is Action.TRIGGER:
            model.snapshot = {
                "epoch": epoch,
                "record": record,
                "weights": model.copy_weights(),
            }
        if action is Action.TRIGGER:
            break
    else:
        # no trigger anywhere: restore the exploration-phase best
        model.load_weights(model.snapshot["weights"])
    trigger = controller.trigger_epoch
    return TrainOutcome(
        phase_reached=Phase.FALLBACK if trigger is None else controller.phase_of(trigger),
        trigger_epoch=trigger,
        history=list(model.history),
        best_epoch=controller.best_epoch,
        best=controller.best,
    )
