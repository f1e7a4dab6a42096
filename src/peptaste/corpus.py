"""Corpus curation: ingestion, length filtering, redundancy removal,
class balancing with train/test splitting, and taste census statistics.

An annotated corpus is a list of (Peptide, TasteLabel) pairs; every other
corpus is a list of Peptides."""

from __future__ import annotations

import collections
import warnings
from dataclasses import dataclass

import numpy as np

from . import similarity
from .errors import ConfigError, DataError
from .latent import check_fraction
from .sequences import TASTES, AMINO_ACIDS, Peptide, TasteLabel


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


def ingest(records) -> list[tuple[Peptide, TasteLabel]]:
    """Merge (Peptide, TasteLabel) pairs that share a sequence into one, in
    first-seen order; a taste confirmed present by any pair stays present
    in the merged label."""
    codes: dict[Peptide, list[str]] = {}
    for pep, label in records:
        codes.setdefault(pep, []).append(label.code)
    return [(pep, TasteLabel.from_code(_merge_codes(c))) for pep, c in codes.items()]


def check_max_len(max_len: int):
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")


def length_filter(peptides: list[Peptide], max_len: int) -> tuple[list[Peptide], int]:
    """Keep peptides of length <= max_len; also return how many were dropped."""
    check_max_len(max_len)
    kept = [p for p in peptides if len(p) <= max_len]
    if not kept and peptides:
        warnings.warn(
            f"length filter at {max_len} removed every record", stacklevel=2
        )
    return kept, len(peptides) - len(kept)


def dedup_greedy(
    corpus: list[Peptide],
    identity_threshold: float = 0.9,
    params: similarity.AlignParams = similarity.DEFAULT_PARAMS,
) -> list[Peptide]:
    """Greedy longest-first redundancy sweep.

    Peptides are visited by descending length (ties lexicographic); one is
    kept only if its normalized alignment similarity to every peptide kept
    so far stays below the threshold.  Deterministic and idempotent.

    The Scorer holds the peptides in reverse sweep order, so each pair that
    Scorer.near_pairs lets reach the threshold comes as (later, earlier),
    grouped by the later peptide, the query.  The sweep walks those pairs
    from the end, by ascending later peptide, in chunks of one packed pass
    that skip the pairs holding a peptide already dropped.
    """
    check_fraction("identity_threshold", identity_threshold)
    seqs = [p.sequence for p in corpus]
    order = sorted(range(len(seqs)), key=lambda i: (-len(seqs[i]), seqs[i], i))[::-1]
    scorer = similarity.Scorer([seqs[i] for i in order], params)
    later, earlier = (a[::-1] for a in scorer.near_pairs(identity_threshold))
    dropped = np.zeros(len(seqs), dtype=bool)
    step = similarity._BOUND_PAIRS
    for lo in range(0, len(later), step):
        e, l = earlier[lo : lo + step], later[lo : lo + step]
        live = ~(dropped[e] | dropped[l])
        e, l = e[live], l[live]
        hit = scorer.similarities(l, e) >= identity_threshold
        # pairs come by later peptide: each earlier one is decided, and a kept one drops b
        for a, b in zip(e[hit].tolist(), l[hit].tolist()):
            dropped[b] |= not dropped[a]
    return [corpus[i] for i in sorted(np.asarray(order)[~dropped].tolist())]


TRAIN_FRACTION = 0.9  # of each class, after balancing


@dataclass
class Split:
    train_pos: list[Peptide]
    train_neg: list[Peptide]
    test_pos: list[Peptide]
    test_neg: list[Peptide]


def balance_and_split(pos: list[Peptide], neg: list[Peptide], seed: int) -> Split:
    """Downsample negatives to |pos|, then split each class train/test.

    Train size per class is floor(n * TRAIN_FRACTION); the remainder is
    the test set.  Fully deterministic for a fixed seed.
    """
    if not pos or not neg:
        raise DataError("both corpora must be non-empty")
    if len(neg) < len(pos):
        raise DataError(
            f"cannot downsample {len(neg)} negatives to match {len(pos)} positives"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(neg), size=len(pos), replace=False)
    neg = [neg[i] for i in sorted(chosen)]

    def split_class(peptides):
        n = len(peptides)
        n_train = int(np.floor(n * TRAIN_FRACTION))
        perm = rng.permutation(n)
        train = [peptides[i] for i in sorted(perm[:n_train])]
        test = [peptides[i] for i in sorted(perm[n_train:])]
        return train, test

    train_pos, test_pos = split_class(pos)
    train_neg, test_neg = split_class(neg)
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


def taste_census(corpus: list[tuple[Peptide, TasteLabel]]) -> Census:
    """Counts by confirmed-taste multiplicity, exact combination, per-taste
    totals, and per-taste amino-acid composition frequencies."""
    multiplicity: dict[int, int] = collections.Counter()
    combinations: dict[tuple[str, ...], int] = collections.Counter()
    totals = {t: 0 for t in TASTES}
    aa_counts = {t: collections.Counter() for t in TASTES}
    for pep, label in corpus:
        present = label.present_tastes()
        if present:
            multiplicity[len(present)] += 1
            combinations[present] += 1
        for taste in present:
            totals[taste] += 1
            aa_counts[taste].update(pep.sequence)
    freq = {}
    for taste in TASTES:
        n = sum(aa_counts[taste].values())
        freq[taste] = {
            aa: (aa_counts[taste][aa] / n if n else 0.0) for aa in AMINO_ACIDS
        }
    return Census(
        dict(multiplicity), dict(combinations), totals, freq, len(corpus)
    )
