"""End-to-end orchestration: the four-step design workflow and the
toxicity-model lifecycle, with reproducible per-stage seeding and a run
manifest digesting every input and output.

Stage seeds are keyed hashes of (master seed, stage name), so any stage
can be re-run in isolation and a worker-count flag can never change
results.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import corpus as corpus_mod
from . import descriptors, latent, physchem, similarity, vae
from .errors import (
    ConfigError,
    DataError,
    ParseError,
    PeptasteError,
    TrainingDiverged,
    ValidationError,
)
from .sequences import (
    Assignment,
    PatternMode,
    Peptide,
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
        if str(exc).startswith("stage "):
            raise
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        # repr of a numpy scalar reads np.float64(...) under numpy 2
        return repr(float(value))
    return str(value)


def _write_tsv(path, header, rows):
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def _parsing(path):
    """Name the file in front of the line a ParseError reports."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_taste_corpus(path) -> corpus_mod.Corpus:
    """Load an annotated corpus from FASTA ('>abcde' headers) or TSV."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with _parsing(path):
        if text.lstrip().startswith(">"):
            records = parse_taste_fasta(text)
        else:
            records = parse_taste_tsv(text)
    if not records:
        raise DataError(f"no records found in {path}")
    return corpus_mod.ingest(records, source=str(path))


def read_sequences(path) -> list[str]:
    """Read bare sequences: FASTA bodies, or one sequence per line, or the
    first column of a TSV.  '#' comments and blank lines are skipped
    outside FASTA; a FASTA header with no sequence is a ParseError."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
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


# --- design workflow ---------------------------------------------------------

DISTANCE_SPACES = ("pca2", "latent")


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
    conv_filters: int = 32
    conv_kernel: int = 3
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
    dedup_threshold: float = 0.9
    generation_mode: str = "prior"
    tau: float = 0.5
    distance_space: str = "pca2"
    workers: int = 1

    def __post_init__(self):
        if self.distance_space not in DISTANCE_SPACES:
            raise ConfigError(
                f"distance_space must be 'pca2' or 'latent', got {self.distance_space!r}"
            )
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        _vae_config(self, "vae-positive")  # rejects bad training settings up front


# DesignRun fields the manifest leaves out: the inputs are recorded by
# their digests, and the worker count cannot change a result
_UNRECORDED = ("corpus_path", "out_dir", "tox_model_path", "workers")

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
    outcome_positive: vae.TrainOutcome
    outcome_negative: vae.TrainOutcome | None
    counts: dict
    out_dir: str


def field_values(cls, source) -> dict:
    """The attributes of source that name fields of the dataclass cls."""
    return {
        f.name: getattr(source, f.name) for f in fields(cls) if hasattr(source, f.name)
    }


def _vae_config(run: DesignRun, stage: str) -> vae.VaeConfig:
    shared = field_values(vae.VaeConfig, run)
    shared.update(seed=derive_seed(run.seed, stage), generation_count=run.candidates)
    return vae.VaeConfig(**shared)


def run_design(run: DesignRun) -> DesignReport:
    """Execute assign -> filter -> dedup -> train -> generate -> screen ->
    cluster -> toxicity -> profile.  Each stage writes its artifact under
    out_dir when it finishes and run_manifest.json comes last, so a
    directory without a manifest holds an incomplete run."""
    os.makedirs(run.out_dir, exist_ok=True)

    def out(name):
        return os.path.join(run.out_dir, name)

    with contextlib.suppress(FileNotFoundError):
        os.remove(out(MANIFEST))
    with _stage("corpus"):
        full = read_taste_corpus(run.corpus_path)

    avoidance = run.pattern.avoidance_mode
    with _stage("assign"):
        positives, negatives = [], []
        for rec in full:
            result = assign_record(rec.label, run.pattern, run.mode)
            if result is Assignment.POSITIVE:
                positives.append(rec)
            elif result is Assignment.NEGATIVE:
                negatives.append(rec)
        if not positives:
            raise DataError(
                f"no positive records match pattern {('>' + run.pattern.code)!r} "
                f"in {run.mode.value} mode"
            )
        if avoidance and not negatives:
            raise DataError(
                f"avoidance pattern {('>' + run.pattern.code)!r} found no "
                "negative records"
            )

    def prepare(records, tag):
        c = corpus_mod.Corpus(list(records))
        c, _ = corpus_mod.length_filter(c, run.max_len)
        c = corpus_mod.dedup_greedy(c, run.dedup_threshold)
        if len(c) == 0:
            raise DataError(f"{tag} set is empty after length filtering at {run.max_len}")
        return c

    with _stage("prepare"):
        pos_corpus = prepare(positives, "positive")
        neg_corpus = prepare(negatives, "negative") if avoidance else None

    # the loss history is written even when training or generation fails
    trained = {}
    try:
        with _stage("train-positive"):
            pos_model = vae.SequenceVae(_vae_config(run, "vae-positive"))
            trained["positive"] = pos_model
            pos_data = encode_batch(pos_corpus.peptides(), run.max_len)
            outcome_pos = vae.train_la(
                pos_model, pos_data, generation_mode=run.generation_mode, tau=run.tau
            )
        outcome_neg = None
        if avoidance:
            with _stage("train-negative"):
                neg_model = vae.SequenceVae(_vae_config(run, "vae-negative"))
                trained["negative"] = neg_model
                neg_data = encode_batch(neg_corpus.peptides(), run.max_len)
                outcome_neg = vae.train_la(
                    neg_model, neg_data, generation_mode=run.generation_mode, tau=run.tau
                )
    finally:
        if trained:
            _write_tsv(
                out("loss_history.tsv"),
                ("model", "epoch", "loss_tol", "loss_rec", "loss_kl", "l1_penalty"),
                [
                    (tag, epoch, r.loss_tol, r.loss_rec, r.loss_kl, r.l1_penalty)
                    for tag, model in trained.items()
                    for epoch, r in enumerate(model.history, start=1)
                ],
            )

    candidates = outcome_pos.generated
    with _stage("latent-projection"):
        # all latent coordinates come from the positive model's encoder so
        # Euclidean comparison happens in one shared space
        peptides = {"positive": pos_corpus.peptides()}
        if avoidance:
            peptides["negative"] = neg_corpus.peptides()
        peptides["candidate"] = candidates
        latents = {role: pos_model.encode(peps) for role, peps in peptides.items()}
        fit_points = latents["positive"]
        if avoidance:
            fit_points = np.vstack([fit_points, latents["negative"]])
        projection = latent.pca2(fit_points)
        plane = {role: projection.project(z) for role, z in latents.items()}
        _write_tsv(
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
        _write_tsv(out("filter_scores.tsv"), SCORE_COLUMNS, score_rows)
        if not kept_order:
            raise DataError(
                "latent filtering rejected every candidate; relax the filter "
                "parameters or generate more candidates"
            )

    with _stage("cluster"):
        kept_seqs = [score_rows[i][0] for i in kept_order]
        clusters = similarity.build_components(
            kept_seqs, threshold=run.cluster_threshold, workers=run.workers
        )
        local_reps = similarity.pick_representatives(clusters, seqs=kept_seqs)
        _write_tsv(
            out("clusters.tsv"),
            ("cluster_id", "member", "is_representative"),
            [
                (cid, kept_seqs[m], m == local_reps[cid])
                for cid, members in enumerate(clusters)
                for m in members
            ],
        )
    reps = [kept_order[r] for r in local_reps]  # candidate indices

    with _stage("toxicity"):
        tox_model = ens.load_model(run.tox_model_path)
        tox_rows = tox_model.predict([candidates[i] for i in reps])
    with _stage("physchem"):
        candidate_rows = []
        for cluster_id, (rep, tox_row) in enumerate(zip(reps, tox_rows)):
            row = dict(zip(SCORE_COLUMNS[:-1], score_rows[rep]))
            row.update(
                cluster_id=cluster_id,
                is_representative=True,
                tox_probability=tox_row["probability"],
                tox_call=tox_row["call"],
                tox_error=tox_row["error"],
            )
            row.update(physchem.profile(candidates[rep]).as_dict())
            candidate_rows.append(row)
        _write_tsv(
            out("candidates.tsv"),
            CANDIDATE_COLUMNS,
            [[row[c] for c in CANDIDATE_COLUMNS] for row in candidate_rows],
        )

    counts = {
        "corpus_records": len(full),
        "positives": len(pos_corpus),
        "negatives": len(neg_corpus) if avoidance else 0,
        "generated": len(candidates),
        "filtered": len(kept_order),
        "clusters": len(clusters),
        "representatives": len(reps),
    }
    _write_manifest(run, counts)
    return DesignReport(candidate_rows, outcome_pos, outcome_neg, counts, run.out_dir)


def _write_manifest(run: DesignRun, counts: dict):
    design = {
        f.name: getattr(run, f.name) for f in fields(run) if f.name not in _UNRECORDED
    }
    design.update(pattern=format_pattern(run.pattern), mode=run.mode.value)
    manifest = {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "design": design,
        "stage_seeds": {
            stage: derive_seed(run.seed, stage)
            for stage in ("vae-positive", "vae-negative")
        },
        "inputs": {
            "corpus": _sha256(run.corpus_path),
            "tox_model": _sha256(run.tox_model_path),
        },
        "counts": counts,
        "outputs": {
            name: _sha256(os.path.join(run.out_dir, name)) for name in DESIGN_OUTPUTS
        },
    }
    with open(
        os.path.join(run.out_dir, MANIFEST), "w", encoding="utf-8", newline="\n"
    ) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


# --- toxicity model lifecycle -------------------------------------------------


@dataclass
class ToxTrainOptions:
    seed: int = 0
    folds: int = 10
    epsilon: float = 0.001
    train_fraction: float = 0.9
    max_len: int = 25
    dedup_threshold: float = 0.9
    selector: str = "rf"
    selector_trees: int | None = None
    member_names: tuple[str, ...] = clf.DEFAULT_MEMBERS
    member_trees: int | None = None
    universe: tuple[str, ...] = descriptors.DESCRIPTOR_IDS
    weight_step: float = 0.1
    descriptor_config: descriptors.DescriptorConfig = field(
        default_factory=descriptors.DescriptorConfig
    )


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
    cfg = options.descriptor_config
    need_id, need_len = descriptors.min_length(options.universe, cfg)
    cap_id, cap_len = descriptors.max_length(options.universe, cfg)

    def read_peptides(path) -> list[Peptide]:
        peptides = [Peptide(s) for s in read_sequences(path)]
        for pep in peptides:
            if len(pep) < need_len:
                raise ValidationError(
                    f"{path}: sequence {pep.sequence!r} has length {len(pep)}, "
                    f"but descriptor {need_id} requires length >= {need_len}"
                )
            if cap_len < len(pep) <= options.max_len:
                raise ValidationError(
                    f"{path}: sequence {pep.sequence!r} has length {len(pep)}, "
                    f"within max_len {options.max_len}, but descriptor {cap_id} "
                    f"requires length <= {cap_len}"
                )
        return peptides

    pos_raw = corpus_mod.ingest_unlabeled(read_peptides(pos_path), source=str(pos_path))
    neg_raw = corpus_mod.ingest_unlabeled(read_peptides(neg_path), source=str(neg_path))
    pos_c, _ = corpus_mod.length_filter(pos_raw, options.max_len)
    neg_c, _ = corpus_mod.length_filter(neg_raw, options.max_len)
    pos_c = corpus_mod.dedup_greedy(pos_c, options.dedup_threshold)
    neg_c = corpus_mod.dedup_greedy(neg_c, options.dedup_threshold)

    split = corpus_mod.balance_and_split(
        pos_c,
        neg_c,
        corpus_mod.SplitSpec(
            train_fraction=options.train_fraction,
            seed=derive_seed(options.seed, "split"),
        ),
    )
    train_peps = split.train_pos.peptides() + split.train_neg.peptides()
    y_train = np.array(
        [1] * len(split.train_pos) + [0] * len(split.train_neg), dtype=np.int64
    )
    test_peps = split.test_pos.peptides() + split.test_neg.peptides()
    y_test = np.array(
        [1] * len(split.test_pos) + [0] * len(split.test_neg), dtype=np.int64
    )

    raw_cache: dict[str, np.ndarray] = {}

    def raw_block(did: str) -> np.ndarray:
        if did not in raw_cache:
            raw_cache[did] = descriptors.encode_matrix([did], train_peps, cfg)
        return raw_cache[did]

    def x_builder(ids) -> np.ndarray:
        raw = np.hstack([raw_block(d) for d in ids])
        return descriptors.FeatureScaler.fit(raw).transform(raw)

    selection = ens.forward_select(
        options.universe,
        clf.preset_spec(
            options.selector,
            seed=derive_seed(options.seed, "selection"),
            trees=options.selector_trees,
        ),
        x_builder,
        y_train,
        folds=options.folds,
        seed=derive_seed(options.seed, "selection-folds"),
        epsilon=options.epsilon,
    )

    member_specs = {
        name: clf.preset_spec(
            name,
            seed=derive_seed(options.seed, f"member-{name}"),
            trees=options.member_trees,
        )
        for name in options.member_names
    }
    raw_train = np.hstack([raw_block(d) for d in selection.selected])
    scaler = descriptors.FeatureScaler.fit(raw_train)
    X_train = scaler.transform(raw_train)
    weights, cv_mcc, _ = ens.weight_grid_search(
        member_specs,
        X_train,
        y_train,
        folds=options.folds,
        seed=derive_seed(options.seed, "weight-folds"),
        step=options.weight_step,
    )

    members = ens.fit_members(member_specs, X_train, y_train)
    model = ens.EnsembleModel(
        member_names=tuple(options.member_names),
        member_specs=member_specs,
        members=members,
        weights=weights,
        descriptor_ids=selection.selected,
        config=cfg,
        scaler=scaler,
        cv_mcc=cv_mcc,
        metadata={
            "seed": options.seed,
            "folds": options.folds,
            "train_per_class": [len(split.train_pos), len(split.train_neg)],
            "test_per_class": [len(split.test_pos), len(split.test_neg)],
        },
    )

    raw_test = descriptors.encode_matrix(selection.selected, test_peps, cfg)
    test_probas = model.predict_proba_features(scaler.transform(raw_test))
    heldout = tox_metrics.metrics_from_probas(y_test, test_probas)

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
    h = result.heldout
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
        (
            "held-out: "
            f"TP={h.tp} FP={h.fp} TN={h.tn} FN={h.fn} "
            f"accuracy={h.accuracy!r} recall={h.recall!r} "
            f"precision={h.precision!r} specificity={h.specificity!r} "
            f"F1={h.f1!r} MCC={h.mcc!r}"
        ),
    ]
    return "\n".join(lines) + "\n"


def run_toxpredict(model_path, input_path) -> list[dict]:
    """One prediction row per input sequence; a row the model cannot score
    carries its error instead of a probability."""
    return ens.load_model(model_path).predict(read_sequences(input_path))


def run_toxbench(model_path, pos_path, neg_path) -> tuple[tox_metrics.MetricReport, int]:
    """Confusion metrics of a fitted model on labeled benchmark files, and
    the number of rows it could not score (bad residues, over-length
    sequences): those are excluded from the counts rather than guessed.
    """
    model = ens.load_model(model_path)
    y_true, y_pred = [], []
    excluded = 0
    for path, truth in ((pos_path, 1), (neg_path, 0)):
        for row in model.predict(read_sequences(path)):
            if row["call"] is None:
                excluded += 1
                continue
            y_true.append(truth)
            y_pred.append(1 if row["call"] == "toxic" else 0)
    counts = tox_metrics.confusion_counts(y_true, y_pred)
    return tox_metrics.compute_metrics(*counts), excluded
