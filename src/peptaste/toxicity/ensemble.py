"""Descriptor selection, weight search, and the weighted soft-voting ensemble.

Forward selection scores every single descriptor, then every pair, seeds
the greedy stage with the best of those, and keeps adding the descriptor
that most improves cross-validated MCC until the improvement falls to the
epsilon threshold.  Weight search enumerates the full WEIGHT_STEP simplex
over the fitted members and scores each vector by pooled out-of-fold MCC.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .. import descriptors, textio
from ..errors import ConfigError, PeptasteError, ValidationError
from ..sequences import Peptide
from . import metrics
from .classifiers import ClassifierSpec, make_classifier

FORMAT_NAME = "peptaste-toxicity-ensemble"
FORMAT_VERSION = 1
# the keys of each EnsembleModel.predict row, and the toxpredict table's columns
PREDICT_COLUMNS = ("sequence", "probability", "call", "error")
# the encoding settings a model file records; load_model accepts no others
DESCRIPTOR_CONFIG = {
    "pad_len": descriptors.PAD_LEN,
    "window": descriptors.WINDOW,
    "k_max": descriptors.K_MAX,
    "lam": descriptors.LAM,
    "weight": descriptors.WEIGHT,
}
# weight vectors are u * WEIGHT_STEP for non-negative integers u summing
# to WEIGHT_UNITS
WEIGHT_STEP = 0.1
WEIGHT_UNITS = 10


@dataclass
class SelectionTraceRow:
    stage: str
    ids: tuple[str, ...]
    mcc: float


@dataclass
class SelectionResult:
    selected: tuple[str, ...]
    mcc: float
    trace: list[SelectionTraceRow]


def forward_select(
    universe,
    selector_spec: ClassifierSpec,
    x_builder,
    y,
    folds: int = 10,
    seed: int = 0,
    epsilon: float = 0.001,
) -> SelectionResult:
    """Stagewise descriptor selection by cross-validated MCC.

    x_builder(ids) must return the feature matrix for an ordered descriptor
    tuple.  Ties keep the earlier-evaluated candidate, so results are
    deterministic for a fixed universe order.
    """
    # +inf is allowed: it stops selection after the pair stage
    if not epsilon >= 0:
        raise ConfigError(f"epsilon must be >= 0 and not NaN, got {epsilon}")
    universe = tuple(universe)
    if not universe:
        raise ConfigError("descriptor universe must be non-empty")
    y = np.asarray(y).astype(np.int64)
    trace: list[SelectionTraceRow] = []

    def score(ids: tuple[str, ...]) -> float:
        X = x_builder(ids)
        report = metrics.cross_validate(
            lambda: make_classifier(selector_spec), X, y, folds=folds, seed=seed
        )
        return report.mcc

    best_ids: tuple[str, ...] | None = None
    best_mcc = -2.0
    for did in universe:
        mcc = score((did,))
        trace.append(SelectionTraceRow("single", (did,), mcc))
        if mcc > best_mcc:
            best_ids, best_mcc = (did,), mcc
    for a, b in itertools.combinations(universe, 2):
        mcc = score((a, b))
        trace.append(SelectionTraceRow("pair", (a, b), mcc))
        if mcc > best_mcc:
            best_ids, best_mcc = (a, b), mcc

    current, current_mcc = best_ids, best_mcc
    while True:
        remaining = [d for d in universe if d not in current]
        if not remaining:
            break
        round_best = None
        round_mcc = -2.0
        for did in remaining:
            ids = tuple(d for d in universe if d in current or d == did)
            mcc = score(ids)
            trace.append(SelectionTraceRow("greedy", ids, mcc))
            if mcc > round_mcc:
                round_best, round_mcc = ids, mcc
        if round_best is None or round_mcc <= current_mcc + epsilon:
            break
        current, current_mcc = round_best, round_mcc
    return SelectionResult(current, current_mcc, trace)


def check_member_count(n_members: int) -> None:
    """Reject a member count outside 2-5, which the weight search spans."""
    if not 2 <= n_members <= 5:
        raise ConfigError(f"member count must be between 2 and 5, got {n_members}")


def enumerate_weight_vectors(n_members: int) -> list[tuple[float, ...]]:
    """Every non-negative weight vector on the WEIGHT_STEP simplex summing
    to 1, in lexicographic order."""
    check_member_count(n_members)
    out = []

    def rec(prefix, left):
        if len(prefix) == n_members - 1:
            out.append(prefix + (left,))
            return
        for u in range(left + 1):
            rec(prefix + (u,), left - u)

    rec((), WEIGHT_UNITS)
    return [tuple(u * WEIGHT_STEP for u in vec) for vec in out]


def weight_grid_search(
    member_specs: dict[str, ClassifierSpec],
    X,
    y,
    folds: int = 10,
    seed: int = 0,
) -> tuple[tuple[float, ...], float, np.ndarray]:
    """Exhaustive simplex search for soft-voting weights.

    Members are refitted per fold once; every candidate weight vector is
    then scored on the cached out-of-fold probabilities by pooled MCC.
    Ties keep the lexicographically smallest vector.  Returns the winning
    weights, their MCC, and the (n, members) out-of-fold proba matrix.
    """
    y = np.asarray(y).astype(np.int64)
    probas = np.column_stack(
        [
            metrics.cross_val_probas(
                lambda spec=spec: make_classifier(spec), X, y, folds=folds, seed=seed
            )
            for spec in member_specs.values()
        ]
    )
    best_w = None
    best_mcc = -2.0
    for w in enumerate_weight_vectors(probas.shape[1]):
        combined = probas @ np.asarray(w)
        mcc = metrics.metrics_from_probas(y, combined).mcc
        if mcc > best_mcc:
            best_w, best_mcc = w, mcc
    return best_w, best_mcc, probas


@dataclass
class EnsembleModel:
    """Fitted voting ensemble plus everything needed to encode new peptides."""

    member_names: tuple[str, ...]
    member_specs: dict[str, ClassifierSpec]
    members: dict[str, object]
    weights: tuple[float, ...]
    descriptor_ids: tuple[str, ...]
    scaler: descriptors.FeatureScaler
    cv_mcc: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.member_names) != len(self.weights):
            raise ValidationError("one weight per member required")
        if not all(w >= 0 for w in self.weights):
            raise ValidationError(f"weights must be non-negative, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValidationError("weights must sum to 1")

    def _encode(self, peptides) -> np.ndarray:
        raw = descriptors.encode_matrix(self.descriptor_ids, peptides)
        return self.scaler.transform(raw)

    def predict_proba_features(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        combined = np.zeros(X.shape[0])
        for name, w in zip(self.member_names, self.weights):
            if w:
                combined += w * self.members[name].predict_proba(X)
        return combined

    def row_error(self, peptide) -> str:
        """Why the model cannot score a peptide, or '' when it can: bad
        residues or too short a sequence, then over the model's maximum
        length, then the first selected descriptor whose length bounds
        exclude it."""
        seq = str(peptide)
        try:
            Peptide(seq)
            if len(seq) > descriptors.PAD_LEN:
                raise ValidationError(
                    f"sequence length {len(seq)} exceeds the model's "
                    f"maximum of {descriptors.PAD_LEN}"
                )
            descriptors.check_length(self.descriptor_ids, len(seq))
        except ValidationError as exc:
            return str(exc)
        return ""

    def predict(self, peptides) -> list[dict]:
        """Per-peptide probability and call.  Every row is validated first;
        one that cannot be scored carries its error instead.  The rest are
        encoded and scored as one batch, each row rounded as if scored
        alone, so a row's probability does not depend on its batch."""
        peptides = list(peptides)
        errors = [self.row_error(p) for p in peptides]
        valid = [p for p, err in zip(peptides, errors) if not err]
        X = self._encode(valid)
        probas = iter(self.predict_proba_features(X).tolist())
        rows = []
        for pep, err in zip(peptides, errors):
            proba = None if err else next(probas)
            call = None
            if proba is not None:
                call = "toxic" if proba >= metrics.CALL_THRESHOLD else "nontoxic"
            rows.append(
                {"sequence": str(pep), "probability": proba, "call": call, "error": err}
            )
        return rows


def fit_members(
    member_specs: dict[str, ClassifierSpec], X, y
) -> dict[str, object]:
    fitted = {}
    for name, spec in member_specs.items():
        model = make_classifier(spec)
        model.fit(X, y)
        fitted[name] = model
    return fitted


# --- serialization ----------------------------------------------------------


def save_model(model: EnsembleModel, path):
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "member_names": list(model.member_names),
        "member_specs": {
            name: asdict(s) for name, s in model.member_specs.items()
        },
        "members": {n: model.members[n].to_state() for n in model.member_names},
        "weights": list(model.weights),
        "descriptor_ids": list(model.descriptor_ids),
        "descriptor_config": DESCRIPTOR_CONFIG,
        "scaler": {
            "mean": model.scaler.mean.tolist(),
            "scale": model.scaler.scale.tolist(),
        },
        "cv_mcc": model.cv_mcc,
        "metadata": model.metadata,
    }
    textio.write_text(path, json.dumps(doc, sort_keys=True) + "\n")


def load_model(path) -> EnsembleModel:
    """The model saved at path.  A file that is not one (not JSON, of
    another format or version, with a field missing or of the wrong type,
    with encoding settings other than DESCRIPTOR_CONFIG, with no descriptor
    or an unknown or repeated one, with a scaler whose width is not the
    descriptors' column count or with a mean that is not finite or a scale
    that is not finite and > 0, with a member state that does not fit that
    width or holds a number that is not finite, or with a weight that is
    negative or NaN) raises ValidationError naming it."""
    text = textio.read_text(path)
    try:
        doc = json.loads(text)
        if doc.get("format") != FORMAT_NAME:
            raise ValidationError(f"format is not {FORMAT_NAME}")
        if doc.get("version") != FORMAT_VERSION:
            raise ValidationError(f"unsupported model version {doc.get('version')}")
        member_specs = {
            name: ClassifierSpec(**spec) for name, spec in doc["member_specs"].items()
        }
        if doc["descriptor_config"] != DESCRIPTOR_CONFIG:
            raise ValidationError(
                f"descriptor_config must be {DESCRIPTOR_CONFIG}, "
                f"got {doc['descriptor_config']}"
            )
        descriptor_ids = tuple(doc["descriptor_ids"])
        if not descriptor_ids:
            raise ValidationError("descriptor_ids is empty")
        descriptors.check_ids(descriptor_ids)
        scaler = descriptors.FeatureScaler(
            np.asarray(doc["scaler"]["mean"], dtype=float),
            np.asarray(doc["scaler"]["scale"], dtype=float),
        )
        width = len(descriptors.column_names(descriptor_ids))
        if scaler.mean.shape != (width,) or scaler.scale.shape != (width,):
            raise ValidationError(
                f"scaler has {scaler.mean.size} means and {scaler.scale.size} "
                f"scales for the {width} columns of {','.join(descriptor_ids)}"
            )
        if not np.isfinite(scaler.mean).all():
            raise ValidationError("scaler means must be finite")
        if not (np.isfinite(scaler.scale) & (scaler.scale > 0)).all():
            raise ValidationError("scaler scales must be finite and > 0")
        states = doc["members"]
        members = {
            name: make_classifier(member_specs[name]).from_state(states[name], width)
            for name in doc["member_names"]
        }
        return EnsembleModel(
            member_names=tuple(doc["member_names"]),
            member_specs=member_specs,
            members=members,
            weights=tuple(doc["weights"]),
            descriptor_ids=descriptor_ids,
            scaler=scaler,
            cv_mcc=float(doc["cv_mcc"]),
            metadata=doc.get("metadata", {}),
        )
    except KeyError as exc:
        raise ValidationError(f"{path}: model file lacks {exc}") from exc
    except (TypeError, AttributeError, ValueError, PeptasteError) as exc:
        raise ValidationError(f"{path}: not a valid model file: {exc}") from exc
