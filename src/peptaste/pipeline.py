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
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import corpus as corpus_mod
from . import descriptors, latent, physchem, similarity, vae
from .errors import ConfigError, DataError, PeptasteError, TrainingDiverged
from .sequences import (
    Assignment,
    PatternMode,
    Peptide,
    TastePattern,
    assign_record,
    encode_batch,
    parse_taste_fasta,
    parse_taste_tsv,
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


def read_taste_corpus(path) -> corpus_mod.Corpus:
    """Load an annotated corpus from FASTA ('>abcde' headers) or TSV."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith(">"):
        records = parse_taste_fasta(text)
    else:
        records = parse_taste_tsv(text)
    if not records:
        raise DataError(f"no records found in {path}")
    return corpus_mod.ingest(records, source=str(path))


def read_sequences(path) -> list[str]:
    """Read bare sequences: FASTA bodies, or one sequence per line, or the
    first column of a TSV.  '#' comments and blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    out: list[str] = []
    if text.lstrip().startswith(">"):
        body: list[str] = []
        started = False
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith(">"):
                if started and body:
                    out.append("".join(body))
                body = []
                started = True
            else:
                body.append(line)
        if started and body:
            out.append("".join(body))
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


@dataclass
class DesignRun:
    pattern: TastePattern
    mode: PatternMode
    corpus_path: str
    out_dir: str
    tox_model_path: str
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
    distance_space: str = "pca2"  # or "latent"
    workers: int = 1

    def __post_init__(self):
        if self.distance_space not in ("pca2", "latent"):
            raise ConfigError(
                f"distance_space must be 'pca2' or 'latent', got {self.distance_space!r}"
            )
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass
class DesignReport:
    candidates: list[dict]
    outcome_positive: vae.TrainOutcome
    outcome_negative: vae.TrainOutcome | None
    counts: dict
    out_dir: str


def _vae_config(run: DesignRun, stage: str, generation_count: int) -> vae.VaeConfig:
    return vae.VaeConfig(
        max_len=run.max_len,
        latent_dim=run.latent_dim,
        epochs=run.epochs,
        extension_epochs=run.extension_epochs,
        hidden_units=run.hidden_units,
        conv_filters=run.conv_filters,
        conv_kernel=run.conv_kernel,
        dropout_rate=run.dropout_rate,
        l1_lambda=run.l1_lambda,
        learning_rate=run.learning_rate,
        batch_size=run.batch_size,
        seed=derive_seed(run.seed, stage),
        generation_count=generation_count,
    )


def run_design(run: DesignRun) -> DesignReport:
    """Execute assign -> filter -> dedup -> train -> generate -> screen ->
    cluster -> toxicity -> profile, writing every artifact under out_dir."""
    os.makedirs(run.out_dir, exist_ok=True)
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

    with _stage("train-positive"):
        pos_model = vae.SequenceVae(_vae_config(run, "vae-positive", run.candidates))
        pos_data = encode_batch(pos_corpus.peptides(), run.max_len)
        outcome_pos = vae.train_la(
            pos_model, pos_data, generation_mode=run.generation_mode, tau=run.tau
        )
    outcome_neg = None
    if avoidance:
        with _stage("train-negative"):
            neg_model = vae.SequenceVae(
                _vae_config(run, "vae-negative", run.candidates)
            )
            neg_data = encode_batch(neg_corpus.peptides(), run.max_len)
            outcome_neg = vae.train_la(
                neg_model, neg_data, generation_mode=run.generation_mode, tau=run.tau
            )

    candidates = outcome_pos.generated
    with _stage("latent-projection"):
        # all latent coordinates come from the positive model's encoder so
        # Euclidean comparison happens in one shared space
        pos_latent = pos_model.encode(pos_corpus.peptides())
        neg_latent = pos_model.encode(neg_corpus.peptides()) if avoidance else None
        cand_latent = pos_model.encode(candidates)
        fit_points = (
            np.vstack([pos_latent, neg_latent]) if avoidance else pos_latent
        )
        projection = latent.pca2(fit_points)
        if run.distance_space == "pca2":
            pos_pts = projection.project(pos_latent)
            neg_pts = projection.project(neg_latent) if avoidance else None
            cand_pts = projection.project(cand_latent)
        else:
            pos_pts, neg_pts, cand_pts = pos_latent, neg_latent, cand_latent

    with _stage("latent-filter"):
        if avoidance:
            kept_order, scores = latent.select_avoidance(
                cand_pts, pos_pts, neg_pts, k=run.k, alpha=run.alpha
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
            score_of = {s.index: s for s in scores}
        else:
            kept_order, dists = latent.select_standard(
                cand_pts, pos_pts, keep_fraction=run.keep_fraction, k=run.k
            )
            kept_set = set(kept_order)
            score_rows = [
                (str(candidates[i]), dists[i], None, None, None, i in kept_set)
                for i in range(len(candidates))
            ]
            score_of = {
                i: latent.BilateralScore(
                    i, float(dists[i]), math.nan, math.nan, math.nan, True
                )
                for i in kept_order
            }
        kept_peptides = [candidates[i] for i in kept_order]
        if not kept_peptides:
            raise DataError(
                "latent filtering rejected every candidate; relax the filter "
                "parameters or generate more candidates"
            )

    with _stage("cluster"):
        sim = similarity.similarity_matrix(
            [str(p) for p in kept_peptides], workers=run.workers
        )
        clusters = similarity.build_components(
            [str(p) for p in kept_peptides], threshold=run.cluster_threshold, sim=sim
        )
        reps = similarity.pick_representatives(clusters, sim)

    with _stage("toxicity"):
        tox_model = ens.load_model(run.tox_model_path)
        rep_peptides = [kept_peptides[r] for r in reps]
        tox_rows = tox_model.predict(rep_peptides)
    with _stage("physchem"):
        profiles = [physchem.profile(p) for p in rep_peptides]

    candidate_rows = []
    for cluster_id, (rep_local, tox_row, prof) in enumerate(
        zip(reps, tox_rows, profiles)
    ):
        cand_index = kept_order[rep_local]
        s = score_of[cand_index]
        row = {
            "sequence": str(kept_peptides[rep_local]),
            "d_plus": s.d_plus,
            "d_minus": None if math.isnan(s.d_minus) else s.d_minus,
            "delta": None if math.isnan(s.delta) else s.delta,
            "p_value": None if math.isnan(s.p_value) else s.p_value,
            "cluster_id": cluster_id,
            "is_representative": True,
            "tox_probability": tox_row["probability"],
            "tox_call": tox_row["call"],
            "tox_error": tox_row["error"],
        }
        row.update(prof.as_dict())
        candidate_rows.append(row)

    counts = {
        "corpus_records": len(full),
        "positives": len(pos_corpus),
        "negatives": len(neg_corpus) if avoidance else 0,
        "generated": len(candidates),
        "filtered": len(kept_peptides),
        "clusters": len(clusters),
        "representatives": len(reps),
    }

    with _stage("emit"):
        _emit_design_outputs(
            run,
            candidate_rows,
            score_rows,
            clusters,
            reps,
            kept_peptides,
            outcome_pos,
            outcome_neg,
            projection,
            pos_corpus,
            neg_corpus,
            pos_latent,
            neg_latent,
            cand_latent,
            candidates,
            counts,
        )
    return DesignReport(candidate_rows, outcome_pos, outcome_neg, counts, run.out_dir)


CANDIDATE_COLUMNS = (
    "sequence",
    "d_plus",
    "d_minus",
    "delta",
    "p_value",
    "cluster_id",
    "is_representative",
    "tox_probability",
    "tox_call",
    "tox_error",
) + physchem.PROFILE_FIELDS


def _emit_design_outputs(
    run,
    candidate_rows,
    score_rows,
    clusters,
    reps,
    kept_peptides,
    outcome_pos,
    outcome_neg,
    projection,
    pos_corpus,
    neg_corpus,
    pos_latent,
    neg_latent,
    cand_latent,
    candidates,
    counts,
):
    out = run.out_dir
    _write_tsv(
        os.path.join(out, "candidates.tsv"),
        CANDIDATE_COLUMNS,
        [[row[c] for c in CANDIDATE_COLUMNS] for row in candidate_rows],
    )
    _write_tsv(
        os.path.join(out, "filter_scores.tsv"),
        ("sequence", "d_plus", "d_minus", "delta", "p_value", "accepted"),
        score_rows,
    )
    cluster_rows = []
    for cid, members in enumerate(clusters):
        for m in members:
            cluster_rows.append(
                (cid, str(kept_peptides[m]), m == reps[cid])
            )
    _write_tsv(
        os.path.join(out, "clusters.tsv"),
        ("cluster_id", "member", "is_representative"),
        cluster_rows,
    )

    history_rows = []
    for tag, outcome in (("positive", outcome_pos), ("negative", outcome_neg)):
        if outcome is None:
            continue
        for epoch, rec in enumerate(outcome.history, start=1):
            history_rows.append(
                (tag, epoch, rec.loss_tol, rec.loss_rec, rec.loss_kl, rec.l1_penalty)
            )
    _write_tsv(
        os.path.join(out, "loss_history.tsv"),
        ("model", "epoch", "loss_tol", "loss_rec", "loss_kl", "l1_penalty"),
        history_rows,
    )

    coord_rows = []
    for role, peps, pts in (
        ("positive", pos_corpus.peptides(), projection.project(pos_latent)),
        (
            "negative",
            neg_corpus.peptides() if neg_corpus is not None else [],
            projection.project(neg_latent) if neg_latent is not None else [],
        ),
        ("candidate", candidates, projection.project(cand_latent)),
    ):
        for pep, (x, y) in zip(peps, pts):
            coord_rows.append((role, str(pep), float(x), float(y)))
    _write_tsv(
        os.path.join(out, "latent_coords.tsv"),
        ("role", "sequence", "pc1", "pc2"),
        coord_rows,
    )

    manifest = {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "design": {
            "pattern": ">" + run.pattern.code,
            "mode": run.mode.value,
            "seed": run.seed,
            "epochs": run.epochs,
            "latent_dim": run.latent_dim,
            "extension_epochs": run.extension_epochs,
            "hidden_units": run.hidden_units,
            "conv_filters": run.conv_filters,
            "conv_kernel": run.conv_kernel,
            "dropout_rate": run.dropout_rate,
            "l1_lambda": run.l1_lambda,
            "learning_rate": run.learning_rate,
            "batch_size": run.batch_size,
            "candidates": run.candidates,
            "keep_fraction": run.keep_fraction,
            "k": run.k,
            "alpha": run.alpha,
            "cluster_threshold": run.cluster_threshold,
            "max_len": run.max_len,
            "dedup_threshold": run.dedup_threshold,
            "generation_mode": run.generation_mode,
            "tau": run.tau,
            "distance_space": run.distance_space,
        },
        "stage_seeds": {
            stage: derive_seed(run.seed, stage)
            for stage in ("vae-positive", "vae-negative")
        },
        "inputs": {
            "corpus": _sha256(run.corpus_path),
            "tox_model": _sha256(run.tox_model_path),
        },
        "counts": counts,
        "outputs": {},
    }
    for name in (
        "candidates.tsv",
        "filter_scores.tsv",
        "clusters.tsv",
        "loss_history.tsv",
        "latent_coords.tsv",
    ):
        manifest["outputs"][name] = _sha256(os.path.join(out, name))
    with open(
        os.path.join(out, "run_manifest.json"), "w", encoding="utf-8", newline="\n"
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
    descriptor selection -> weight search -> final fit -> held-out report."""
    pos_raw = corpus_mod.ingest_unlabeled(
        [Peptide(s) for s in read_sequences(pos_path)], source=str(pos_path)
    )
    neg_raw = corpus_mod.ingest_unlabeled(
        [Peptide(s) for s in read_sequences(neg_path)], source=str(neg_path)
    )
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

    cfg = options.descriptor_config
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
    model = ens.load_model(model_path)
    rows = []
    for seq in read_sequences(input_path):
        try:
            pep = Peptide(seq)
        except Exception as exc:  # report bad rows without aborting the batch
            rows.append(
                {"sequence": seq, "probability": None, "call": None, "error": str(exc)}
            )
            continue
        rows.extend(model.predict([pep]))
    return rows


def run_toxbench(model_path, pos_path, neg_path) -> tox_metrics.MetricReport:
    """Confusion metrics of a fitted model on labeled benchmark files.

    Rows the model cannot score (bad residues, over-length sequences) are
    excluded from the counts rather than guessed.
    """
    model = ens.load_model(model_path)
    tp = fp = tn = fn = 0
    for path, truth in ((pos_path, 1), (neg_path, 0)):
        for seq in read_sequences(path):
            try:
                rows = model.predict([Peptide(seq)])
            except Exception:
                continue
            call = rows[0]["call"]
            if call is None:
                continue
            predicted = 1 if call == "toxic" else 0
            if truth == 1 and predicted == 1:
                tp += 1
            elif truth == 1:
                fn += 1
            elif predicted == 1:
                fp += 1
            else:
                tn += 1
    return tox_metrics.compute_metrics(tp, fp, tn, fn)
