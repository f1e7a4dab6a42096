"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines directly.
Each criterion pins its tolerance here; nothing is deferred to calibration.
"""

import filecmp
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from peptaste import corpus as corpus_mod
from peptaste import descriptors, latent, physchem, pipeline, similarity, vae
from peptaste.cli import main
from peptaste.sequences import AMINO_ACIDS, Peptide, encode_batch
from peptaste.toxicity.ensemble import enumerate_weight_vectors
from peptaste.toxicity.metrics import compute_metrics, metrics_from_probas
from peptaste.vae import Action, LossRecord, Phase, PhasedController, SequenceVae
from conftest import grad_check, named_params, reconstructions


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


# --- 1: gradient correctness -------------------------------------------------


def test_01_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    n_params = 0
    for trial in range(20):
        rng = np.random.default_rng(trial)
        cfg = vae.VaeConfig(
            max_len=int(rng.integers(3, 6)),
            latent_dim=int(rng.integers(2, 4)),
            epochs=4,
            hidden_units=int(rng.integers(3, 7)),
            conv_filters=int(rng.integers(2, 4)),
            dropout_rate=float(rng.choice([0.0, 0.2])),
            l1_lambda=float(rng.choice([0.0, 0.01])),
            batch_size=2,
            seed=trial,
        )
        model = SequenceVae(cfg)
        # jitter every parameter to a generic point so no relu input sits
        # exactly on its kink (zero-init biases otherwise guarantee kinks)
        for arr in named_params(model).values():
            arr += 0.05 * rng.standard_normal(arr.shape)
        x = np.zeros((2, cfg.max_len, 21))
        for b in range(2):
            length = int(rng.integers(2, cfg.max_len + 1))
            for i in range(cfg.max_len):
                channel = int(rng.integers(0, 20)) if i < length else 20
                x[b, i, channel] = 1.0
        eps = rng.standard_normal((2, cfg.latent_dim))
        params = named_params(model)
        n_params += sum(a.size for a in params.values())

        def loss_fn():
            record, grads = model.loss_and_grads(
                x, eps, rng=np.random.default_rng(99)
            )
            return record.loss_tol, grads

        check = grad_check(loss_fn, params, h=1e-5)
        worst = max(worst, check.max_rel_error)
    elapsed = time.monotonic() - start
    report(
        1,
        "gradient-correctness",
        worst < 1e-4 and elapsed < 60.0,
        f"max rel error {worst:.3e} over {n_params} parameters in {elapsed:.1f}s",
    )


# --- 2: training state machine ----------------------------------------------


@dataclass
class _ScriptedModel:
    """Stands in for the network so train_la can be driven by loss scripts."""

    config: vae.VaeConfig
    script: list[LossRecord]

    def __post_init__(self):
        self.history = []
        self.snapshot = None
        self._epoch = 0
        self._weights = np.array([0.0])
        self.restored_to = None

    def train_step(self, batch, rng):
        record = self.script[self._epoch]
        self._epoch += 1
        self._weights = np.array([float(self._epoch)])
        return record

    def copy_weights(self):
        return {"w": self._weights.copy()}

    def load_weights(self, weights):
        self.restored_to = float(weights["w"][0])
        self._weights = weights["w"].copy()


def _scripted_run(script, epochs, extension):
    cfg = vae.VaeConfig(
        max_len=3,
        latent_dim=2,
        epochs=epochs,
        extension_epochs=extension,
        batch_size=8,
    )
    model = _ScriptedModel(cfg, script)
    data = np.zeros((4, 3, 21))
    outcome = vae.train_la(model, data)
    return model, outcome


def test_02_state_machine():
    checks = []

    # exhaustive 8-way ordering of the dual-constraint comparison
    for tol_less, rec_less, kl_less in itertools.product((True, False), repeat=3):
        ctl = PhasedController(epochs=4, extension_epochs=0)
        ctl.observe(1, LossRecord(0.30, 0.20, 0.10))
        ctl.observe(2, LossRecord(0.40, 0.25, 0.15))
        record = LossRecord(
            0.29 if tol_less else 0.31,
            0.19 if rec_less else 0.21,
            0.09 if kl_less else 0.11,
        )
        action = ctl.observe(3, record)
        expected = Action.TRIGGER if (tol_less and rec_less and kl_less) else Action.NONE
        checks.append(action is expected)

    # phase-I tracking snapshots every strict total-loss improvement
    ctl = PhasedController(epochs=6, extension_epochs=0)
    actions = [
        ctl.observe(e, LossRecord(t, 0.5, 0.5))
        for e, t in ((1, 2.0), (2, 1.5), (3, 1.7))
    ]
    checks.append(actions == [Action.SNAPSHOT, Action.SNAPSHOT, Action.NONE])
    checks.append(ctl.best_epoch == 2 and ctl.best.loss_tol == 1.5)

    # phase-II trigger terminates the run and keeps the trigger epoch's weights
    script = [
        LossRecord(1.00, 0.60, 0.40),
        LossRecord(0.90, 0.55, 0.35),
        LossRecord(0.80, 0.50, 0.30),  # phase-I best
        LossRecord(0.85, 0.52, 0.33),
        LossRecord(0.70, 0.45, 0.25),  # epoch 5: strict triple improvement
        LossRecord(0.10, 0.05, 0.05),  # must never run
    ]
    model, outcome = _scripted_run(script, epochs=6, extension=2)
    checks.append(outcome.phase_reached is Phase.PHASE_II)
    checks.append(outcome.trigger_epoch == 5)
    checks.append(len(outcome.history) == 5)
    checks.append(model.snapshot["epoch"] == 5)

    # extension entry: phase II never satisfies the dual constraint, the
    # extension does
    script = [
        LossRecord(1.00, 0.60, 0.40),
        LossRecord(0.80, 0.50, 0.30),
        LossRecord(0.75, 0.45, 0.32),  # tol+rec improve, kl does not
        LossRecord(0.74, 0.44, 0.31),
        LossRecord(0.70, 0.40, 0.20),  # extension epoch 5 triggers
        LossRecord(0.10, 0.05, 0.05),
    ]
    model, outcome = _scripted_run(script, epochs=4, extension=2)
    checks.append(outcome.phase_reached is Phase.EXTENSION)
    checks.append(outcome.trigger_epoch == 5)
    checks.append(outcome.trigger_epoch > 2)

    # fallback: nothing triggers anywhere; the phase-I best is restored
    script = [
        LossRecord(1.00, 0.60, 0.40),
        LossRecord(0.80, 0.50, 0.30),  # phase-I best at epoch 2
        LossRecord(0.79, 0.49, 0.31),  # kl never improves
        LossRecord(0.78, 0.48, 0.32),
        LossRecord(0.77, 0.47, 0.33),
        LossRecord(0.76, 0.46, 0.34),
    ]
    model, outcome = _scripted_run(script, epochs=4, extension=2)
    checks.append(outcome.phase_reached is Phase.FALLBACK)
    checks.append(outcome.trigger_epoch is None)
    checks.append(len(outcome.history) == 6)
    checks.append(model.restored_to == 2.0)  # weights as of epoch 2
    checks.append(outcome.best.loss_tol == min(r.loss_tol for r in script[:2]))

    report(
        2,
        "training-state-machine",
        all(checks),
        f"{sum(checks)}/{len(checks)} scripted transitions exact",
    )


# --- 3: toy-corpus training ---------------------------------------------------


def test_03_toy_corpus_training():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    peptides = []
    seen = set()
    while len(peptides) < 50:
        length = int(rng.integers(4, 9))
        seq = "".join(rng.choice(list(AMINO_ACIDS), size=length))
        if seq not in seen:
            seen.add(seq)
            peptides.append(Peptide(seq))
    data = encode_batch(peptides, 8)
    cfg = vae.VaeConfig(
        max_len=8,
        latent_dim=16,
        epochs=200,
        batch_size=4,
        seed=3,
    )
    model = SequenceVae(cfg)
    outcome = vae.train_la(model, data)
    generated = model.generate(
        50, mode="jitter", tau=0.0, source_mu=model.encode_matrix(data)
    )
    initial = outcome.history[0].loss_tol
    final = outcome.history[-1].loss_tol
    halved = final < 0.5 * initial

    # tau=0 oracle: the jitter path must reproduce the model's own direct
    # encode->decode reconstructions of the items it sampled
    mu = model.encode(peptides)
    recon = reconstructions(model, peptides)
    gen_rng = np.random.default_rng([cfg.seed, 2])
    idx = gen_rng.integers(0, len(mu), size=50)
    outputs = [str(p) for p in generated]
    matched = 0
    compared = 0
    for out, i in zip(outputs, idx):
        if recon[i] is not None:
            compared += 1
            if out == recon[i]:
                matched += 1
    identity = matched / compared if compared else 0.0

    # informational only: exact matches against the original sequences
    train_identity = np.mean(
        [recon[i] == peptides[i].sequence for i in range(50)]
    )
    elapsed = time.monotonic() - start
    report(
        3,
        "toy-corpus-training",
        halved and identity >= 0.8 and elapsed < 300.0,
        f"loss {initial:.3f}->{final:.3f}, tau=0 reconstruction identity "
        f"{identity:.2%} over {compared} samples, training-sequence identity "
        f"{train_identity:.2%}, {elapsed:.1f}s",
    )


# --- 4: alignment oracle -------------------------------------------------------


def enumerate_alignment_score(a, b, params=similarity.DEFAULT_PARAMS):
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(i, j, state):
        if i == len(a) and j == len(b):
            return 0.0
        options = []
        if i < len(a) and j < len(b):
            sub = params.match if a[i] == b[j] else params.mismatch
            options.append(sub + best(i + 1, j + 1, 0))
        if i < len(a):
            cost = params.gap_extend if state == 1 else params.gap_open
            options.append(cost + best(i + 1, j, 1))
        if j < len(b):
            cost = params.gap_extend if state == 2 else params.gap_open
            options.append(cost + best(i, j + 1, 2))
        return max(options)

    return best(0, 0, 0)


def test_04_alignment_oracle():
    alphabet = "ACD"
    seqs = []
    for length in range(1, 5):
        seqs.extend("".join(t) for t in itertools.product(alphabet, repeat=length))
    worst = 0.0
    n_pairs = 0
    for a, b in itertools.product(seqs, repeat=2):
        got = similarity.nw_score(a, b)
        expected = enumerate_alignment_score(a, b)
        worst = max(worst, abs(got - expected))
        n_pairs += 1
    sim_value = similarity.normalized_similarity("AAAA", "AAAC")
    report(
        4,
        "alignment-oracle",
        worst <= 1e-12 and sim_value == 0.625,
        f"{n_pairs} pairs exact (worst gap {worst:.1e}); "
        f"similarity(AAAA, AAAC) = {sim_value}",
    )


# --- 5: split arithmetic --------------------------------------------------------


def test_05_split_arithmetic():
    def fabricate(n, tag):
        peps = []
        aas = AMINO_ACIDS
        for i in range(n):
            a, b, c = i % 20, (i // 20) % 20, (i // 400) % 20
            peps.append(Peptide(tag + aas[a] + aas[b] + aas[c]))
        return peps

    split = corpus_mod.balance_and_split(
        fabricate(2821, "AC"),
        fabricate(4880, "DE"),
        seed=0,
    )
    sizes = (
        len(split.train_pos),
        len(split.test_pos),
        len(split.train_neg),
        len(split.test_neg),
    )
    report(
        5,
        "split-arithmetic",
        sizes == (2538, 283, 2538, 283),
        f"train/test per class = {sizes}",
    )


# --- 6: metric identity -----------------------------------------------------------


def test_06_metric_identity():
    r = compute_metrics(212, 17, 266, 71)
    ok = (
        abs(r.accuracy - 0.8445) <= 1e-4
        and abs(r.precision - 0.9258) <= 1e-4
        and abs(r.specificity - 0.9399) <= 1e-4
        and abs(r.mcc - 0.7019) <= 1e-4
    )
    report(
        6,
        "metric-identity",
        ok,
        f"accuracy {r.accuracy:.4f}, precision {r.precision:.4f}, "
        f"specificity {r.specificity:.4f}, MCC {r.mcc:.4f}",
    )


# --- 7: descriptor dimensions -------------------------------------------------------


def test_07_descriptor_dimensions():
    expected = {
        "AAC": 20, "DPC": 400, "TPC": 8000, "GAAC": 5, "GDPC": 25, "GTPC": 125,
        "CTDC": 39, "CTDT": 39, "CTDD": 195, "CTriad": 343, "EAAC": 420,
        "EGAAC": 105, "CKSAAP": 1600, "CKSAAGP": 100, "Binary": 500,
        "BLOSUM62": 500, "DDE": 400, "PAAC": 21, "APAAC": 22, "Zscale": 125,
    }
    dims = {
        did: len(descriptors.column_names([did])) for did in descriptors.DESCRIPTOR_IDS
    }
    table_ok = dims == expected
    spot_ok = (
        dims["AAC"] == 20
        and dims["CTDD"] == 195
        and dims["CTriad"] == 343
        and dims["CKSAAP"] == 1600
    )
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(3, 26))
        seq = "".join(rng.choice(list(AMINO_ACIDS), size=length))
        for did in ("AAC", "DPC", "TPC", "GAAC", "GDPC", "GTPC"):
            v = descriptors.encode(did, seq)
            worst = max(worst, abs(v.sum() - 1.0))
    report(
        7,
        "descriptor-dimensions",
        table_ok and spot_ok and worst <= 1e-12,
        f"20-row table exact; worst composition-sum gap {worst:.2e} "
        f"over 1000 random peptides",
    )


# --- 8: ensemble algebra ---------------------------------------------------------------


def test_08_ensemble_algebra():
    vectors = enumerate_weight_vectors(5)
    count_ok = len(vectors) == 1001

    # degenerate weight-1.0 ensemble equals its member on every input
    rng = np.random.default_rng(2)

    class Echo:
        def __init__(self, scale):
            self.scale = scale

        def fit(self, X, y):
            return self

        def predict_proba(self, X):
            return np.clip(X[:, 0] * self.scale, 0, 1)

    X = rng.random((100, 2))
    member = Echo(1.0)
    other = Echo(0.5)
    combined = 1.0 * member.predict_proba(X) + 0.0 * other.predict_proba(X)
    degenerate_ok = np.array_equal(combined, member.predict_proba(X))

    # exact 0.5 tie calls toxic
    tie = float(np.array([0.8, 0.2]) @ np.array([0.5, 0.5]))
    tie_report = metrics_from_probas(np.array([1]), np.array([tie]))
    tie_ok = tie == 0.5 and tie_report.tp == 1 and tie_report.fn == 0

    report(
        8,
        "ensemble-algebra",
        count_ok and degenerate_ok and tie_ok,
        f"{len(vectors)} five-member weight vectors; tie probability {tie} -> toxic",
    )


# --- 9: synthetic toxicity benchmark ------------------------------------------------------


def test_09_synthetic_toxicity_benchmark(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(42)

    def sample(alphabet, n):
        seqs = set()
        while len(seqs) < n:
            length = int(rng.integers(5, 21))
            seqs.add("".join(rng.choice(list(alphabet), size=length)))
        return sorted(seqs)

    pos_path = tmp_path / "toxic.txt"
    neg_path = tmp_path / "benign.txt"
    pos_path.write_text("\n".join(sample("KRCWHLFI", 200)) + "\n")
    neg_path.write_text("\n".join(sample("DESTGANQ", 200)) + "\n")
    options = pipeline.ToxTrainOptions(
        seed=5,
        folds=10,
        selector="knn",
        member_trees=50,
    )
    result = pipeline.run_toxtrain(
        str(pos_path), str(neg_path), str(tmp_path / "model.json"), options
    )
    elapsed = time.monotonic() - start
    report(
        9,
        "synthetic-toxicity-benchmark",
        result.heldout.mcc >= 0.9 and elapsed < 600.0,
        f"selected {'+'.join(result.selection.selected)}, weights "
        f"{result.weights}, held-out MCC {result.heldout.mcc:.4f}, {elapsed:.0f}s",
    )


# --- 10: filter oracles ---------------------------------------------------------------------


def test_10_filter_oracles():
    rng = np.random.default_rng(6)
    standard_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 16))
        cands = rng.normal(size=(n, 2))
        training = rng.normal(size=(int(rng.integers(6, 12)), 2))
        frac = float(rng.choice([0.25, 0.4, 1.0]))
        kept, dists = latent.select_standard(cands, training, frac, k=5)
        brute = []
        for c in cands:
            ds = sorted(np.linalg.norm(training - c, axis=1))
            brute.append(float(np.mean(ds[:5])))
        order = sorted(range(n), key=lambda i: (brute[i], i))
        expected = order[: math.ceil(frac * n)]
        standard_ok = standard_ok and kept == expected

    avoidance_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 8))
        cands = rng.normal(size=(n, 2))
        pos = rng.normal(size=(10, 2))
        neg = rng.normal(size=(10, 2)) + rng.uniform(0, 3)
        ranked, scores = latent.select_avoidance(cands, pos, neg, k=5, alpha=0.05)
        expected = []
        deltas = {}
        for i, c in enumerate(cands):
            dp = sorted(np.linalg.norm(pos - c, axis=1))[:5]
            dn = sorted(np.linalg.norm(neg - c, axis=1))[:5]
            pooled = np.array(dp + dn)
            stat = sum(
                1.0 if a < b else (0.5 if a == b else 0.0) for a in dp for b in dn
            )
            count = 0
            for combo in itertools.combinations(range(10), 5):
                mask = np.zeros(10, dtype=bool)
                mask[list(combo)] = True
                s = sum(
                    1.0 if a < b else (0.5 if a == b else 0.0)
                    for a in pooled[mask]
                    for b in pooled[~mask]
                )
                if s >= stat - 1e-12:
                    count += 1
            p = count / 252
            if np.mean(dp) < np.mean(dn) and p < 0.05:
                expected.append(i)
                deltas[i] = float(np.mean(dp) - np.mean(dn))
        expected.sort(key=lambda i: (deltas[i], i))
        avoidance_ok = avoidance_ok and ranked == expected

    p_sep = latent.mann_whitney_exact_less([1, 2, 3, 4, 5], [9, 10, 11, 12, 13])
    p_ok = abs(p_sep - 1 / 252) <= 1e-12

    kept, _ = latent.select_standard(
        rng.normal(size=(8, 2)), rng.normal(size=(10, 2)), keep_fraction=0.25, k=5
    )
    keep_ok = len(kept) == 2

    report(
        10,
        "filter-oracles",
        standard_ok and avoidance_ok and p_ok and keep_ok,
        f"200 brute-force instances exact; separated 5v5 p = {p_sep:.6f}; "
        f"0.25 of 8 candidates keeps {len(kept)}",
    )


# --- 11: end-to-end determinism ----------------------------------------------------------------


def test_11_end_to_end_determinism(tmp_path, toy_corpus_path):
    start = time.monotonic()
    rng = np.random.default_rng(9)

    def sample(alphabet, n):
        seqs = set()
        while len(seqs) < n:
            length = int(rng.integers(5, 18))
            seqs.add("".join(rng.choice(list(alphabet), size=length)))
        return sorted(seqs)

    pos_path = tmp_path / "toxic.txt"
    neg_path = tmp_path / "benign.txt"
    pos_path.write_text("\n".join(sample("KRCWHLFI", 50)) + "\n")
    neg_path.write_text("\n".join(sample("DESTGANQ", 60)) + "\n")
    model_path = tmp_path / "tox.json"
    code = main(
        [
            "toxtrain",
            "--pos", str(pos_path),
            "--neg", str(neg_path),
            "--model-out", str(model_path),
            "--seed", "3",
            "--folds", "5",
            "--selector", "knn",
            "--member-trees", "20",
            "--descriptors", "AAC,GAAC,CTDC",
        ]
    )
    assert code == 0

    outputs = []
    for tag in ("run1", "run2"):
        out = tmp_path / tag
        code = main(
            [
                "design",
                "--pattern", "x1xxx",
                "--mode", "multiple",
                "--corpus", toy_corpus_path,
                "--tox-model", str(model_path),
                "--out", str(out),
                "--seed", "11",
                "--epochs", "200",
                "--latent-dim", "8",
                "--hidden-units", "24",
                "--batch-size", "4",
                "--l1-lambda", "0.0",
                "--candidates", "24",
            ]
        )
        assert code == 0
        outputs.append(out)

    names = sorted(p.name for p in outputs[0].iterdir())
    same_names = names == sorted(p.name for p in outputs[1].iterdir())
    identical = all(
        filecmp.cmp(outputs[0] / n, outputs[1] / n, shallow=False) for n in names
    )
    elapsed = time.monotonic() - start
    report(
        11,
        "end-to-end-determinism",
        same_names and identical and elapsed < 600.0,
        f"{len(names)} files byte-identical across two runs, {elapsed:.0f}s",
    )


# --- 12: physchem sanity --------------------------------------------------------------------------


def test_12_physchem_sanity():
    rng = np.random.default_rng(12)
    grid = np.linspace(0.0, 14.0, 57)
    monotone = True
    pi_ok = True
    for _ in range(100):
        length = int(rng.integers(2, 15))
        seq = "".join(rng.choice(list(AMINO_ACIDS), size=length))
        charges = [physchem.net_charge(seq, ph) for ph in grid]
        monotone = monotone and all(a > b for a, b in zip(charges, charges[1:]))
        pi_ok = pi_ok and abs(
            physchem.net_charge(seq, physchem.isoelectric_point(seq))
        ) < 1e-3
    aliphatic = physchem.profile("VVVV").aliphatic_index
    ai_ok = abs(aliphatic - 290.0) <= 1e-9
    report(
        12,
        "physchem-sanity",
        monotone and pi_ok and ai_ok,
        f"monotone titration and |charge(pI)| < 1e-3 on 100 random peptides; "
        f"aliphatic index(VVVV) = {aliphatic}",
    )
