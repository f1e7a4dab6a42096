"""Corpus curation: ingestion, length filtering, redundancy removal,
class balancing with train/test splitting, and taste census statistics."""

from __future__ import annotations

import collections
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import similarity
from .errors import ConfigError, DataError
from .sequences import TASTES, AMINO_ACIDS, Peptide, TasteLabel

@dataclass(frozen=True)
class CorpusRecord:
    peptide: Peptide
    label: TasteLabel | None = None
    source: str = ""


@dataclass
class Corpus:
    records: list[CorpusRecord] = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def sequences(self) -> list[str]:
        return [r.peptide.sequence for r in self.records]

    def peptides(self) -> list[Peptide]:
        return [r.peptide for r in self.records]


def _merge_codes(codes: list[str]) -> str:
    """Slot-wise merge: any '1' wins, else any '0', else 'x'."""
    out = []
    for slot in zip(*codes):
        if "1" in slot:
            out.append("1")
        elif "0" in slot:
            out.append("0")
        else:
            out.append("x")
    return "".join(out)


def ingest(records, source: str = "") -> Corpus:
    """Build a corpus from (Peptide, TasteLabel) pairs.

    Records sharing a sequence are merged into one; a taste confirmed
    present by any source stays present in the merged label.
    """
    by_seq: dict[str, list[str]] = {}
    order: list[str] = []
    for pep, label in records:
        if pep.sequence not in by_seq:
            by_seq[pep.sequence] = []
            order.append(pep.sequence)
        by_seq[pep.sequence].append(label.code)
    out = []
    for seq in order:
        merged = TasteLabel.from_code(_merge_codes(by_seq[seq]))
        out.append(CorpusRecord(Peptide(seq), merged, source))
    return Corpus(out)


def ingest_unlabeled(peptides, source: str = "") -> Corpus:
    """Build a label-free corpus (toxicity inputs), deduplicated exactly."""
    seen = set()
    out = []
    for pep in peptides:
        if pep.sequence in seen:
            continue
        seen.add(pep.sequence)
        out.append(CorpusRecord(pep, None, source))
    return Corpus(out)


def check_max_len(max_len: int):
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")


def length_filter(corpus: Corpus, max_len: int) -> tuple[Corpus, int]:
    """Keep records of length <= max_len; also return how many were dropped."""
    check_max_len(max_len)
    kept = [r for r in corpus if len(r.peptide) <= max_len]
    if not kept and len(corpus) > 0:
        warnings.warn(
            f"length filter at {max_len} removed every record", stacklevel=2
        )
    return Corpus(kept), len(corpus) - len(kept)


def dedup_greedy(
    corpus: Corpus,
    identity_threshold: float = 0.9,
    params: similarity.AlignParams = similarity.DEFAULT_PARAMS,
) -> Corpus:
    """Greedy longest-first redundancy sweep.

    Records are visited by descending length (ties lexicographic); one is
    kept only if its normalized alignment similarity to every record kept
    so far stays below the threshold.  Deterministic and idempotent.
    """
    similarity.check_threshold("identity_threshold", identity_threshold)
    records = list(corpus.records)
    order = sorted(
        range(len(records)),
        key=lambda i: (-len(records[i].peptide), records[i].peptide.sequence, i),
    )
    scorer = similarity.Scorer([r.peptide.sequence for r in records], params)
    kept_idx: list[int] = []
    for i in order:
        # only kept records whose score bound can reach the threshold are aligned
        _, sims = scorer.bounded(i, kept_idx, identity_threshold)
        if not np.any(sims >= identity_threshold):
            kept_idx.append(i)
    return Corpus([records[i] for i in sorted(kept_idx)])


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.train_fraction < 1:
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


@dataclass
class Split:
    train_pos: Corpus
    train_neg: Corpus
    test_pos: Corpus
    test_neg: Corpus


def balance_and_split(pos: Corpus, neg: Corpus, spec: SplitSpec) -> Split:
    """Downsample negatives to |pos|, then split each class train/test.

    Train size per class is floor(n * train_fraction); the remainder is
    the test set.  Fully deterministic for a fixed seed.
    """
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("both corpora must be non-empty")
    if len(neg) < len(pos):
        raise DataError(
            f"cannot downsample {len(neg)} negatives to match {len(pos)} positives"
        )
    rng = np.random.default_rng(spec.seed)
    neg_records = list(neg.records)
    chosen = rng.choice(len(neg_records), size=len(pos), replace=False)
    neg_records = [neg_records[i] for i in sorted(chosen)]

    def split_class(records):
        n = len(records)
        n_train = int(np.floor(n * spec.train_fraction))
        perm = rng.permutation(n)
        train = [records[i] for i in sorted(perm[:n_train])]
        test = [records[i] for i in sorted(perm[n_train:])]
        return Corpus(train), Corpus(test)

    train_pos, test_pos = split_class(list(pos.records))
    train_neg, test_neg = split_class(neg_records)
    return Split(train_pos, train_neg, test_pos, test_neg)


CENSUS_COLUMNS = ("section", "key", "value")


@dataclass
class Census:
    multiplicity: dict[int, int]
    combinations: dict[tuple[str, ...], int]
    per_taste_totals: dict[str, int]
    per_taste_aa_freq: dict[str, dict[str, float]]
    n_records: int

    def rows(self) -> list[tuple]:
        """The census table: (section, key, value) rows, as CENSUS_COLUMNS names."""
        rows = [("multiplicity", k, n) for k, n in sorted(self.multiplicity.items())]
        rows += [
            ("combination", "-".join(combo), n)
            for combo, n in sorted(self.combinations.items())
        ]
        rows += [("taste_total", t, self.per_taste_totals[t]) for t in TASTES]
        rows += [
            ("aa_freq", f"{t}.{aa}", self.per_taste_aa_freq[t][aa])
            for t in TASTES
            for aa in AMINO_ACIDS
        ]
        return rows

    def summary(self) -> str:
        total_multi = sum(self.multiplicity.values())
        lines = [
            f"records: {self.n_records}",
            f"records with at least one confirmed taste: {total_multi}",
            "confirmed tastes per peptide: "
            + ", ".join(f"{k}: {v}" for k, v in sorted(self.multiplicity.items())),
            "per-taste totals: "
            + ", ".join(f"{t}: {self.per_taste_totals[t]}" for t in TASTES),
        ]
        return "\n".join(lines)


def taste_census(corpus: Corpus) -> Census:
    """Counts by confirmed-taste multiplicity, exact combination, per-taste
    totals, and per-taste amino-acid composition frequencies."""
    multiplicity: dict[int, int] = collections.Counter()
    combinations: dict[tuple[str, ...], int] = collections.Counter()
    totals = {t: 0 for t in TASTES}
    aa_counts = {t: collections.Counter() for t in TASTES}
    for rec in corpus:
        if rec.label is None:
            raise DataError("census requires taste labels on every record")
        present = rec.label.present_tastes()
        if present:
            multiplicity[len(present)] += 1
            combinations[present] += 1
        for taste in present:
            totals[taste] += 1
            aa_counts[taste].update(rec.peptide.sequence)
    freq = {}
    for taste in TASTES:
        n = sum(aa_counts[taste].values())
        freq[taste] = {
            aa: (aa_counts[taste][aa] / n if n else 0.0) for aa in AMINO_ACIDS
        }
    return Census(
        dict(multiplicity), dict(combinations), totals, freq, len(corpus)
    )
