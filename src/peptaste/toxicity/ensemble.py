"""Descriptor selection, weight search, and the weighted soft-voting ensemble.

Forward selection searches over a caller-given scorer (toxtrain's is
cross-validated MCC): it scores every single descriptor and every pair,
seeds the greedy stage with the best of those, and keeps adding the
descriptor that most improves the score until the improvement falls to the
epsilon threshold.  Weight search enumerates the full WEIGHT_STEP simplex
over the fitted members and scores each vector by pooled out-of-fold MCC.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .. import descriptors, textio
from ..errors import ConfigError, DataError, PeptasteError, ValidationError
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


def forward_select(universe, score, epsilon: float = 0.001) -> SelectionResult:
    """Stagewise descriptor selection by score(ids), an MCC for an ordered
    descriptor tuple.  Singles and pairs are one stage, so a pair must beat
    the best single; greedy rounds follow until one gains no more than
    epsilon.  Each stage scores its candidates in order, one trace row each,
    and a tie keeps the earlier candidate."""
    # +inf is allowed: it stops selection after the pair stage
    if not epsilon >= 0:
        raise ConfigError(f"epsilon must be >= 0 and not NaN, got {epsilon}")
    universe = tuple(universe)
    if not universe:
        raise ConfigError("descriptor universe must be non-empty")
    trace: list[SelectionTraceRow] = []

    def best_of(candidates) -> tuple[tuple[str, ...], float]:
        """The first best of (stage, ids) candidates, scored in order."""
        best = None, -2.0
        for stage, ids in candidates:
            mcc = score(ids)
            trace.append(SelectionTraceRow(stage, ids, mcc))
            if mcc > best[1]:
                best = ids, mcc
        return best

    current, current_mcc = best_of(
        [("single", (d,)) for d in universe]
        + [("pair", ab) for ab in itertools.combinations(universe, 2)]
    )
    # from a single, a round rescores the pairs it beat; at inf none is kept
    while 1 < len(current) < len(universe) and math.isfinite(epsilon):
        ids, mcc = best_of(
            ("greedy", tuple(d for d in universe if d in current or d == add))
            for add in universe
            if add not in current
        )
        if mcc <= current_mcc + epsilon:
            break
        current, current_mcc = ids, mcc
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
            metrics.cross_val_probas(make_classifier(s), X, y, folds=folds, seed=seed)
            for s in member_specs.values()
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

    member_specs: dict[str, ClassifierSpec]
    members: dict[str, object]
    weights: tuple[float, ...]
    descriptor_ids: tuple[str, ...]
    scaler: descriptors.FeatureScaler
    cv_mcc: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if tuple(self.member_specs) != self.member_names:
            raise ValidationError("one spec per member, in the members' order, required")
        if len(self.members) != len(self.weights):
            raise ValidationError("one weight per member required")
        if not all(w >= 0 for w in self.weights):
            raise ValidationError(f"weights must be non-negative, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValidationError("weights must sum to 1")

    @property
    def member_names(self) -> tuple[str, ...]:
        return tuple(self.members)

    def predict_proba_features(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        combined = np.zeros(X.shape[0])
        for member, w in zip(self.members.values(), self.weights):
            if w:
                combined += w * member.predict_proba(X)
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
        X = self.scaler.transform(descriptors.encode_matrix(self.descriptor_ids, valid))
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

    def evaluate(self, positives, negatives) -> tuple[metrics.MetricReport, int]:
        """Confusion metrics of the calls on toxic positives and non-toxic
        negatives over the rows the model can score, and the number of rows
        it cannot, which are excluded rather than guessed."""
        scored = [
            (truth, row["call"] == "toxic")
            for peptides, truth in ((positives, 1), (negatives, 0))
            for row in self.predict(peptides)
            if row["call"]
        ]
        excluded = len(positives) + len(negatives) - len(scored)
        if not scored:
            raise DataError(f"all {excluded} excluded")
        return metrics.compute_metrics(*metrics.confusion_counts(*zip(*scored))), excluded


def fit_members(member_specs: dict[str, ClassifierSpec], X, y) -> dict[str, object]:
    return {name: make_classifier(spec).fit(X, y) for name, spec in member_specs.items()}


# --- serialization ----------------------------------------------------------


def save_model(model: EnsembleModel, path):
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "member_names": list(model.member_names),
        "member_specs": {
            name: asdict(s) for name, s in model.member_specs.items()
        },
        "members": {name: m.to_state() for name, m in model.members.items()},
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
    with a member listed twice, with encoding settings other than
    DESCRIPTOR_CONFIG, with no descriptor or an unknown or repeated one,
    with a scaler whose width is not the descriptors' column count or with
    a mean that is not finite or a scale that is not finite and > 0, with a
    member state that does not fit that width or holds a number that is not
    finite or a k-NN k that is not an integer, or with a weight that is
    negative or NaN) raises ValidationError naming it."""
    text = textio.read_text(path)
    try:
        doc = json.loads(text)
        if doc.get("format") != FORMAT_NAME:
            raise ValidationError(f"format is not {FORMAT_NAME}")
        if doc.get("version") != FORMAT_VERSION:
            raise ValidationError(f"unsupported model version {doc.get('version')}")
        names = doc["member_names"]
        member_specs = {
            name: ClassifierSpec(**doc["member_specs"][name]) for name in names
        }
        if len(member_specs) != len(names):
            raise ValidationError(f"member_names lists a member twice: {names}")
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
        members = {
            name: make_classifier(spec).from_state(doc["members"][name], width)
            for name, spec in member_specs.items()
        }
        return EnsembleModel(
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
