"""End-to-end orchestration: the four-step design workflow and the
toxicity-model lifecycle, with reproducible per-stage seeding and a run
manifest digesting every input and output.

Stage seeds are keyed hashes of (master seed, stage name), so any stage
can be re-run in isolation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import corpus as corpus_mod
from . import descriptors, latent, nn, physchem, similarity, textio, vae
from .errors import (
    ConfigError,
    DataError,
    ParseError,
    PeptasteError,
    TrainingDiverged,
    ValidationError,
)
from .sequences import (
    PatternMode,
    Peptide,
    TasteLabel,
    TastePattern,
    assign_record,
    encode_batch,
    format_pattern,
    parse_taste_fasta,
    parse_taste_tsv,
    split_fasta,
)
from .toxicity import classifiers as clf
from .toxicity import ensemble as ens
from .toxicity import metrics as tox_metrics

TOOL_NAME = "peptaste"
TOOL_VERSION = "0.1.0"


@contextlib.contextmanager
def _stage(name: str):
    """Prefix module errors with the pipeline stage they came from."""
    try:
        yield
    except PeptasteError as exc:
        wrapped = type(exc)(f"stage {name}: {exc}")
        if isinstance(exc, TrainingDiverged):
            wrapped.history = exc.history
        raise wrapped from exc


def derive_seed(master_seed: int, stage: str) -> int:
    """Deterministic child seed for one pipeline stage."""
    digest = hashlib.blake2b(
        f"{master_seed}:{stage}".encode("utf-8"), digest_size=8, key=b"peptaste"
    ).digest()
    return int.from_bytes(digest, "little")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def _parsing(path):
    """Name the file in front of the line or sequence that a ParseError or
    ValidationError reports."""
    try:
        yield
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def read_taste_corpus(path) -> list[tuple[Peptide, TasteLabel]]:
    """Load an annotated corpus from FASTA ('>abcde' headers) or TSV."""
    text = textio.read_text(path)
    with _parsing(path):
        if text.lstrip().startswith(">"):
            records = parse_taste_fasta(text)
        else:
            records = parse_taste_tsv(text)
    if not records:
        raise DataError(f"no records found in {path}")
    return corpus_mod.ingest(records)


def read_sequences(path) -> list[str]:
    """Read bare sequences: FASTA bodies, or one sequence per line, or the
    first column of a TSV.  '#' comments and blank lines are skipped
    outside FASTA; a FASTA header with no sequence is a ParseError."""
    text = textio.read_text(path)
    out: list[str] = []
    if text.lstrip().startswith(">"):
        with _parsing(path):
            out = [seq for _, _, seq in split_fasta(text)]
    else:
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            out.append(line.split("\t")[0].strip())
    if not out:
        raise DataError(f"no sequences found in {path}")
    return out


CLUSTER_COLUMNS = ("cluster_id", "member", "is_representative")


def cluster_sequences(seqs, threshold: float) -> tuple[list[list[int]], list[int]]:
    """The similarity graph's clusters of seqs and each one's representative."""
    clusters, scores = similarity.build_components(seqs, threshold=threshold)
    return clusters, similarity.pick_representatives(clusters, seqs, scores)


def write_clusters(path, seqs, clusters, reps):
    """One row per member: cluster id, sequence, whether it represents the
    cluster.  Written to stdout when path is None."""
    rows = [
        (cid, seqs[m], m == reps[cid])
        for cid, members in enumerate(clusters)
        for m in members
    ]
    textio.write_table(path, CLUSTER_COLUMNS, rows)


# identity at which a run keeps one of two similar peptides: per role in
# design, per class in toxtrain
DESIGN_DEDUP_THRESHOLD = 0.9
TOXTRAIN_DEDUP_THRESHOLD = 0.9


# --- design workflow ---------------------------------------------------------

DISTANCE_SPACES = ("pca2", "latent")
# the stage whose seed the design run's one VAE draws from
VAE_STAGE = "vae-positive"


@dataclass
class DesignRun:
    pattern: TastePattern
    corpus_path: str
    out_dir: str
    tox_model_path: str
    mode: PatternMode = PatternMode.MULTIPLE
    seed: int = 0
    epochs: int = 500
    latent_dim: int = 2000
    extension_epochs: int | None = None
    hidden_units: int = 128
    dropout_rate: float = 0.1
    l1_lambda: float = 0.01
    learning_rate: float = 0.001
    batch_size: int = 32
    candidates: int = 100
    keep_fraction: float = 0.25
    k: int = 5
    alpha: float = 0.05
    cluster_threshold: float = 0.70
    max_len: int = 14
    generation_mode: str = "prior"
    tau: float = 0.5
    distance_space: str = "pca2"

    def __post_init__(self):
        if self.distance_space not in DISTANCE_SPACES:
            raise ConfigError(
                f"distance_space must be 'pca2' or 'latent', got {self.distance_space!r}"
            )
        # rejects bad settings before run_design reads any input
        _vae_config(self)
        if self.candidates < 1:
            raise ConfigError(f"candidates must be >= 1, got {self.candidates}")
        vae.check_generation_mode(self.generation_mode)
        latent.check_k(self.k)
        latent.check_fraction("keep_fraction", self.keep_fraction)
        latent.check_fraction("alpha", self.alpha)
        # two k-samples get a rank-test p of at least 1 / C(2k, k); avoidance needs p < alpha
        need = self.k
        while self.pattern.avoidance_mode and 1 / math.comb(2 * need, need) >= self.alpha:
            need += 1
        if need > self.k:
            raise ConfigError(
                f"avoidance mode can accept no candidate at k={self.k}, alpha={self.alpha}: "
                f"the rank test's smallest p-value, 1/C({2 * self.k}, {self.k}), is not "
                f"below alpha; the smallest k that can is {need}"
            )
        latent.check_fraction("cluster_threshold", self.cluster_threshold)
        if not math.isfinite(self.tau):
            raise ConfigError(f"tau must be finite, got {self.tau}")


# DesignRun fields the manifest leaves out: the inputs are recorded by
# their digests
_UNRECORDED = ("corpus_path", "out_dir", "tox_model_path")

MANIFEST = "run_manifest.json"
DESIGN_OUTPUTS = (
    "candidates.tsv",
    "filter_scores.tsv",
    "clusters.tsv",
    "loss_history.tsv",
    "latent_coords.tsv",
)
SCORE_COLUMNS = ("sequence", "d_plus", "d_minus", "delta", "p_value", "accepted")
CANDIDATE_COLUMNS = (
    SCORE_COLUMNS[:-1]
    + ("cluster_id", "is_representative", "tox_probability", "tox_call", "tox_error")
    + physchem.PROFILE_FIELDS
)


@dataclass
class DesignReport:
    candidates: list[dict]
    outcome: vae.TrainOutcome
    counts: dict
    out_dir: str


def field_values(cls, source) -> dict:
    """The attributes of source that name fields of the dataclass cls."""
    return {
        f.name: getattr(source, f.name) for f in fields(cls) if hasattr(source, f.name)
    }


def _vae_config(run: DesignRun) -> vae.VaeConfig:
    shared = field_values(vae.VaeConfig, run)
    shared.update(seed=derive_seed(run.seed, VAE_STAGE))
    return vae.VaeConfig(**shared)


@nn.single_blas_thread()
def run_design(run: DesignRun) -> DesignReport:
    """Execute assign -> filter -> dedup -> train -> generate -> screen ->
    cluster -> toxicity -> profile.  The toxicity model is read first, so a
    bad model file fails the run before any work.  Each stage writes its
    artifact under out_dir when it finishes and run_manifest.json comes
    last, so a directory without a manifest holds an incomplete run.

    The whole run, from the model read to the manifest, keeps BLAS on one
    thread (see nn.single_blas_thread), so training and the projection give
    the same bytes at any BLAS thread count, and BLAS's idle worker does
    not spin on the core that Adam's helper share uses."""
    with _stage("toxicity"):
        tox_model = ens.load_model(run.tox_model_path)
    os.makedirs(run.out_dir, exist_ok=True)

    def out(name):
        return os.path.join(run.out_dir, name)

    with contextlib.suppress(FileNotFoundError):
        os.remove(out(MANIFEST))
    with _stage("corpus"):
        full = read_taste_corpus(run.corpus_path)

    avoidance = run.pattern.avoidance_mode
    roles = ("positive", "negative") if avoidance else ("positive",)
    with _stage("assign"):
        assigned = {role: [] for role in roles}
        for pep, label in full:
            role = assign_record(label, run.pattern, run.mode).value
            if role in assigned:
                assigned[role].append(pep)
        if not assigned["positive"]:
            raise DataError(
                f"no positive records match pattern {('>' + run.pattern.code)!r} "
                f"in {run.mode.value} mode"
            )
        if not all(assigned.values()):
            raise DataError(
                f"avoidance pattern {('>' + run.pattern.code)!r} found no "
                "negative records"
            )

    def prepare(peptides, role):
        kept, _ = corpus_mod.length_filter(peptides, run.max_len)
        kept = corpus_mod.dedup_greedy(kept, DESIGN_DEDUP_THRESHOLD)
        if len(kept) < run.k:
            raise DataError(
                f"{role} set has {len(kept)} peptides after length filtering at "
                f"{run.max_len} and dedup, needs >= k={run.k}"
            )
        return kept

    with _stage("prepare"):
        prepared = {role: prepare(peps, role) for role, peps in assigned.items()}
        # the latent projection is fitted on every role's prepared peptides
        if (n := sum(map(len, prepared.values()))) < latent.PROJECTION_MIN_POINTS:
            raise DataError(
                f"the projection needs >= {latent.PROJECTION_MIN_POINTS} prepared "
                f"peptides, got {n} ({' + '.join(roles)})"
            )

    # one model, trained on the positives, encodes every role: avoidance
    # mode screens in its latent space.  The loss history is written even
    # when training fails, and before any sampling
    positive = vae.SequenceVae(_vae_config(run))
    try:
        with _stage("train-positive"):
            x = encode_batch(prepared["positive"], run.max_len)
            outcome = vae.train_la(positive, x)
    finally:
        textio.write_table(
            out("loss_history.tsv"),
            ("model", "epoch", "loss_tol", "loss_rec", "loss_kl", "l1_penalty"),
            [
                ("positive", epoch, r.loss_tol, r.loss_rec, r.loss_kl, r.l1_penalty)
                for epoch, r in enumerate(positive.history, start=1)
            ],
        )

    with _stage("generate"):
        latents = {role: positive.encode(peps) for role, peps in prepared.items()}
        candidates = positive.generate(
            run.candidates,
            mode=run.generation_mode,
            tau=run.tau,
            source_mu=latents["positive"],
        )
    with _stage("latent-projection"):
        latents["candidate"] = positive.encode(candidates)
        peptides = {**prepared, "candidate": candidates}
        projection = latent.pca2(np.vstack([latents[role] for role in roles]))
        plane = {role: projection.project(z) for role, z in latents.items()}
        textio.write_table(
            out("latent_coords.tsv"),
            ("role", "sequence", "pc1", "pc2"),
            [
                (role, str(pep), float(x), float(y))
                for role, peps in peptides.items()
                for pep, (x, y) in zip(peps, plane[role])
            ],
        )
        points = plane if run.distance_space == "pca2" else latents

    with _stage("latent-filter"):
        if avoidance:
            kept_order, scores = latent.select_avoidance(
                points["candidate"],
                points["positive"],
                points["negative"],
                k=run.k,
                alpha=run.alpha,
            )
            score_rows = [
                (
                    str(candidates[s.index]),
                    s.d_plus,
                    s.d_minus,
                    s.delta,
                    s.p_value,
                    s.accepted,
                )
                for s in scores
            ]
            far = sum(s.d_plus >= s.d_minus for s in scores)  # the rest fail p < alpha
            why = (
                f" ({far} on distance, d_plus >= d_minus, and {len(scores) - far} on "
                f"significance only, p_value >= alpha {run.alpha})"
            )
        else:
            kept_order, dists = latent.select_standard(
                points["candidate"],
                points["positive"],
                keep_fraction=run.keep_fraction,
                k=run.k,
            )
            kept = set(kept_order)
            score_rows = [
                (str(pep), d, None, None, None, i in kept)
                for i, (pep, d) in enumerate(zip(candidates, dists.tolist()))
            ]
            why = ""
        textio.write_table(out("filter_scores.tsv"), SCORE_COLUMNS, score_rows)
        if not kept_order:
            raise DataError(
                f"latent filtering rejected every candidate{why}; relax the filter "
                "parameters or generate more candidates"
            )

    with _stage("cluster"):
        kept_seqs = [score_rows[i][0] for i in kept_order]
        clusters, local_reps = cluster_sequences(kept_seqs, run.cluster_threshold)
        write_clusters(out("clusters.tsv"), kept_seqs, clusters, local_reps)
    reps = [kept_order[r] for r in local_reps]  # candidate indices

    with _stage("toxicity"):
        tox_rows = tox_model.predict([candidates[i] for i in reps])
    with _stage("physchem"):
        profiles = physchem.profiles([candidates[i] for i in reps]).tolist()
        candidate_rows = []
        for cluster_id, (rep, tox_row, prof) in enumerate(zip(reps, tox_rows, profiles)):
            row = dict(zip(SCORE_COLUMNS[:-1], score_rows[rep]))
            row.update(
                cluster_id=cluster_id,
                is_representative=True,
                tox_probability=tox_row["probability"],
                tox_call=tox_row["call"],
                tox_error=tox_row["error"],
            )
            row.update(zip(physchem.PROFILE_FIELDS, prof))
            candidate_rows.append(row)
        textio.write_table(
            out("candidates.tsv"),
            CANDIDATE_COLUMNS,
            [[row[c] for c in CANDIDATE_COLUMNS] for row in candidate_rows],
        )

    counts = {
        "corpus_records": len(full),
        "positives": len(prepared["positive"]),
        "negatives": len(prepared.get("negative", ())),
        "generated": len(candidates),
        "filtered": len(kept_order),
        "clusters": len(clusters),
        "representatives": len(reps),
    }
    _write_manifest(run, counts)
    return DesignReport(candidate_rows, outcome, counts, run.out_dir)


def _write_manifest(run: DesignRun, counts: dict):
    design = {
        f.name: getattr(run, f.name) for f in fields(run) if f.name not in _UNRECORDED
    }
    design.update(pattern=format_pattern(run.pattern), mode=run.mode.value)
    manifest = {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "design": design,
        "stage_seeds": {VAE_STAGE: derive_seed(run.seed, VAE_STAGE)},
        "inputs": {
            "corpus": _sha256(run.corpus_path),
            "tox_model": _sha256(run.tox_model_path),
        },
        "counts": counts,
        "outputs": {
            name: _sha256(os.path.join(run.out_dir, name)) for name in DESIGN_OUTPUTS
        },
    }
    textio.write_text(
        os.path.join(run.out_dir, MANIFEST),
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )


# --- toxicity model lifecycle -------------------------------------------------


@dataclass
class ToxTrainOptions:
    seed: int = 0
    folds: int = 10
    epsilon: float = 0.001
    max_len: int = 25
    selector: str = "rf"
    selector_trees: int | None = None
    member_names: tuple[str, ...] = clf.DEFAULT_MEMBERS
    member_trees: int | None = None
    universe: tuple[str, ...] = descriptors.DESCRIPTOR_IDS

    def __post_init__(self):
        # rejects bad settings before run_toxtrain reads any input
        descriptors.check_ids(self.universe)
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if not self.epsilon >= 0:
            raise ConfigError(f"epsilon must be >= 0 and not NaN, got {self.epsilon}")
        corpus_mod.check_max_len(self.max_len)
        if self.max_len > descriptors.PAD_LEN:
            raise ConfigError(
                f"max_len must be <= {descriptors.PAD_LEN}, the longest peptide "
                f"a toxicity model scores, got {self.max_len}"
            )
        self.selector_spec()
        self.member_specs()
        for i, name in enumerate(self.member_names):
            if name in self.member_names[:i]:
                raise ConfigError(f"duplicate member {name!r}")
        ens.check_member_count(len(self.member_names))

    def selector_spec(self) -> clf.ClassifierSpec:
        """The learner whose cross-validated MCC drives descriptor selection."""
        return clf.preset_spec(
            self.selector,
            seed=derive_seed(self.seed, "selection"),
            trees=self.selector_trees,
        )

    def member_specs(self) -> dict[str, clf.ClassifierSpec]:
        """The ensemble members by name."""
        return {
            name: clf.preset_spec(
                name,
                seed=derive_seed(self.seed, f"member-{name}"),
                trees=self.member_trees,
            )
            for name in self.member_names
        }


@dataclass
class ToxTrainResult:
    model: ens.EnsembleModel
    selection: ens.SelectionResult
    weights: tuple[float, ...]
    cv_mcc: float
    heldout: tox_metrics.MetricReport
    counts: dict


def run_toxtrain(pos_path, neg_path, model_out, options: ToxTrainOptions) -> ToxTrainResult:
    """Full training pipeline: filter -> dedup -> balance/split ->
    descriptor selection -> weight search -> final fit -> held-out report.

    Every read sequence must fit the length bounds of every descriptor in
    the universe, unless max_len drops it anyway; one that does not fails
    the run before training, naming the file, the sequence and the
    descriptor."""

    def read_peptides(path) -> list[Peptide]:
        """The file's peptides, a repeated sequence kept once."""
        seqs = read_sequences(path)
        with _parsing(path):
            peptides = list(dict.fromkeys(Peptide(s) for s in seqs))
            kept = (s for s in seqs if len(s) <= options.max_len)  # the rest are dropped
            descriptors.check_lengths(options.universe, kept)
        return peptides

    pos_raw, neg_raw = read_peptides(pos_path), read_peptides(neg_path)
    pos_c, _ = corpus_mod.length_filter(pos_raw, options.max_len)
    neg_c, _ = corpus_mod.length_filter(neg_raw, options.max_len)
    pos_c = corpus_mod.dedup_greedy(pos_c, TOXTRAIN_DEDUP_THRESHOLD)
    neg_c = corpus_mod.dedup_greedy(neg_c, TOXTRAIN_DEDUP_THRESHOLD)

    split = corpus_mod.balance_and_split(
        pos_c, neg_c, derive_seed(options.seed, "split")
    )
    train_peps = split.train_pos + split.train_neg
    y_train = np.array(
        [1] * len(split.train_pos) + [0] * len(split.train_neg), dtype=np.int64
    )

    # each descriptor's scaler and scaled training block, encoded and fitted
    # once per run.  A block of 2 or more columns (every registry block has
    # 5 or more) scales to the same bits alone as inside an hstack.
    blocks: dict[str, tuple[descriptors.FeatureScaler, np.ndarray]] = {}

    def block(did: str) -> tuple[descriptors.FeatureScaler, np.ndarray]:
        if did not in blocks:
            raw = descriptors.encode_matrix([did], train_peps)
            scaler = descriptors.FeatureScaler.fit(raw)
            blocks[did] = scaler, scaler.transform(raw)
        return blocks[did]

    def x_builder(ids) -> np.ndarray:
        return np.hstack([block(d)[1] for d in ids])

    selector = options.selector_spec()
    selection_seed = derive_seed(options.seed, "selection-folds")

    def selection_mcc(ids) -> float:
        """The selector's pooled cross-validated MCC on the ids' columns."""
        X = x_builder(ids)
        probas = tox_metrics.cross_val_probas(
            clf.make_classifier(selector), X, y_train, options.folds, selection_seed
        )
        return tox_metrics.metrics_from_probas(y_train, probas).mcc

    selection = ens.forward_select(options.universe, selection_mcc, options.epsilon)

    member_specs = options.member_specs()
    scalers = [block(d)[0] for d in selection.selected]
    scaler = descriptors.FeatureScaler(
        np.concatenate([s.mean for s in scalers]),
        np.concatenate([s.scale for s in scalers]),
    )
    X_train = x_builder(selection.selected)
    weights, cv_mcc, _ = ens.weight_grid_search(
        member_specs,
        X_train,
        y_train,
        folds=options.folds,
        seed=derive_seed(options.seed, "weight-folds"),
    )

    members = ens.fit_members(member_specs, X_train, y_train)
    model = ens.EnsembleModel(
        member_specs=member_specs,
        members=members,
        weights=weights,
        descriptor_ids=selection.selected,
        scaler=scaler,
        cv_mcc=cv_mcc,
        metadata={
            "seed": options.seed,
            "folds": options.folds,
            "train_per_class": [len(split.train_pos), len(split.train_neg)],
            "test_per_class": [len(split.test_pos), len(split.test_neg)],
        },
    )

    heldout, _ = model.evaluate(split.test_pos, split.test_neg)

    counts = {
        "pos_after_prep": len(pos_c),
        "neg_after_prep": len(neg_c),
        "train_per_class": len(split.train_pos),
        "test_per_class": len(split.test_pos),
    }
    if model_out:
        ens.save_model(model, model_out)
    return ToxTrainResult(model, selection, weights, cv_mcc, heldout, counts)


def toxtrain_report_text(result: ToxTrainResult) -> str:
    lines = [
        f"selected descriptors: {'+'.join(result.selection.selected)}",
        f"cross-validated MCC: {result.cv_mcc!r}",
        "weights: "
        + ", ".join(
            f"{n}: {w!r}"
            for n, w in zip(result.model.member_names, result.weights)
        ),
        f"train per class: {result.counts['train_per_class']}",
        f"test per class: {result.counts['test_per_class']}",
        "held-out: "
        + " ".join(f"{k}={v!r}" for k, v in result.heldout.as_dict().items()),
    ]
    return "\n".join(lines) + "\n"


def run_toxpredict(model_path, input_path) -> list[dict]:
    """One prediction row per input sequence; a row the model cannot score
    carries its error instead of a probability."""
    return ens.load_model(model_path).predict(read_sequences(input_path))


def run_toxbench(model_path, pos_path, neg_path) -> tuple[tox_metrics.MetricReport, int]:
    """EnsembleModel.evaluate of the model file on labeled benchmark files:
    its metrics and the number of rows it could not score (bad residues,
    over-length sequences)."""
    model = ens.load_model(model_path)
    positives, negatives = read_sequences(pos_path), read_sequences(neg_path)
    try:
        return model.evaluate(positives, negatives)
    except DataError as exc:
        raise DataError(
            f"the model can score no row of {pos_path} or {neg_path}: {exc}"
        ) from exc
