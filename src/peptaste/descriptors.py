"""The 20 sequence-descriptor encoders and z-score feature scaling.

Composition descriptors are frequency-normalized; positional descriptors
(Binary, BLOSUM62, Zscale, EAAC, EGAAC) lay the sequence into a fixed
PAD_LEN frame and zero-fill beyond the sequence end.  All residue scales,
group partitions, and matrices load from the bundled data tables, once,
on first use.

Each descriptor is declared once, in _REGISTRY: its encoder, its column
names and its length bounds.  Encoders take a (rows, n) block of
equal-length peptides as residue indices into AMINO_ACIDS; every count is
an exact integer, and every float sum runs along one row.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _tables
from .errors import ConfigError, ValidationError
from .sequences import (
    AA_TO_INDEX,
    AMINO_ACIDS,
    MIN_LENGTH,
    Peptide,
    residue_codes,
    residue_counts,
    row_counts,
)

GROUP_NAMES = ("aliphatic", "aromatic", "positive", "negative", "uncharged")


# the encoding settings SpepToxPred fixes
PAD_LEN = 25  # positional frame of Binary, BLOSUM62, Zscale, EAAC and EGAAC
WINDOW = 5  # EAAC/EGAAC window length
K_MAX = 3  # largest CKSAAP/CKSAAGP gap
LAM = 1  # PAAC/APAAC sequence-order factors (tiers)
WEIGHT = 0.05  # PAAC/APAAC weight of those factors


def _classes(groups) -> np.ndarray:
    """Class index of each residue (indexed like AMINO_ACIDS), given one
    string of residues per class."""
    out = np.zeros(len(AMINO_ACIDS), dtype=np.intp)
    for ci, residues in enumerate(groups):
        for aa in residues:
            out[AA_TO_INDEX[aa]] = ci
    return out


class _Alphabet(NamedTuple):
    """The residue classes that the composition descriptors count."""

    classes: np.ndarray  # class of each residue, indexed like AMINO_ACIDS
    labels: tuple[str, ...]
    sep: str  # joins labels in k-mer names

    def kmers(self, k: int) -> list[str]:
        return [self.sep.join(p) for p in itertools.product(self.labels, repeat=k)]


@functools.cache
def _residues() -> _Alphabet:
    return _Alphabet(np.arange(len(AMINO_ACIDS)), tuple(AMINO_ACIDS), "")


def _grouping(table: str, labels) -> _Alphabet:
    groups = _tables.group_table(table)
    return _Alphabet(_classes(groups[g] for g in labels), tuple(labels), ".")


@functools.cache
def _groups() -> _Alphabet:
    return _grouping("aa_groups.tsv", GROUP_NAMES)


@functools.cache
def _triad_groups() -> _Alphabet:
    table = "ctriad_groups.tsv"
    return _grouping(table, sorted(_tables.group_table(table)))


def _kmer_counts(classes: np.ndarray, k: int, base: int) -> np.ndarray:
    """Per row, counts of all base**k class k-mers, in lexicographic order."""
    m = classes.shape[1] - k + 1
    idx = classes[:, :m]
    for j in range(1, k):
        idx = idx * base + classes[:, j : j + m]
    return row_counts(idx, base**k)


class _Descriptor(NamedTuple):
    encode: Callable[[np.ndarray], np.ndarray]
    names: Callable[[], list[str]]  # without the "<ID>_" prefix
    min_len: Callable[[], int] = lambda: MIN_LENGTH
    max_len: Callable[[], float] = lambda: math.inf


def _composition(alphabet: Callable[[], _Alphabet], k: int) -> _Descriptor:
    """Frequencies of the k-mers of residue classes (AAC ... GTPC)."""

    def encode(codes):
        a = alphabet()
        counts = _kmer_counts(a.classes[codes], k, len(a.labels))
        return counts / (codes.shape[1] - k + 1)

    return _Descriptor(encode, lambda: alphabet().kmers(k), lambda: k)


def _gapped(alphabet: Callable[[], _Alphabet]) -> _Descriptor:
    """Frequencies of class pairs (i, i + g + 1), one block per gap g <= K_MAX;
    a block with no pairs stays zero."""

    def encode(codes):
        a = alphabet()
        classes, base = a.classes[codes], len(a.labels)
        blocks = []
        for g in range(K_MAX + 1):
            m = max(codes.shape[1] - g - 1, 0)
            pairs = classes[:, :m] * base + classes[:, g + 1 : g + 1 + m]
            blocks.append(row_counts(pairs, base * base) / max(m, 1))
        return np.hstack(blocks)

    def names():
        pairs = alphabet().kmers(2)
        return [f"{p}.gap{g}" for g in range(K_MAX + 1) for p in pairs]

    return _Descriptor(encode, names)


def _windowed(alphabet: Callable[[], _Alphabet]) -> _Descriptor:
    """Class counts over each window of the PAD_LEN frame, divided by the
    window length (EAAC, EGAAC)."""

    def encode(codes):
        a = alphabet()
        classes, base = a.classes[codes], len(a.labels)
        counts = [
            row_counts(classes[:, w : w + WINDOW], base)
            for w in range(PAD_LEN - WINDOW + 1)
        ]
        return np.hstack(counts) / WINDOW

    def names():
        nw = PAD_LEN - WINDOW + 1
        return [f"w{w + 1}.{c}" for w in range(nw) for c in alphabet().labels]

    return _Descriptor(encode, names, max_len=lambda: PAD_LEN)


def _positional(
    table: Callable[[], tuple[np.ndarray, tuple[str, ...]]],
) -> _Descriptor:
    """One table row per position, zero rows past the sequence end
    (Binary, BLOSUM62, Zscale)."""

    def encode(codes):
        values = table()[0]
        rows, n = codes.shape
        out = np.zeros((rows, PAD_LEN, values.shape[1]))
        out[:, :n] = values[codes]
        return out.reshape(rows, -1)

    def names():
        return [f"p{i + 1}.{c}" for i in range(PAD_LEN) for c in table()[1]]

    return _Descriptor(encode, names, max_len=lambda: PAD_LEN)


@functools.cache
def _one_hot():
    return np.eye(len(AMINO_ACIDS)), tuple(AMINO_ACIDS)


@functools.cache
def _blosum62():
    table = _tables.matrix_table("blosum62.tsv")
    cols = tuple(next(iter(table.values())))
    return np.array([[table[aa][c] for c in cols] for aa in AMINO_ACIDS]), cols


@functools.cache
def _zscale():
    table = _tables.vector_table("zscale.tsv")
    return np.array([table[aa] for aa in AMINO_ACIDS]), ("z1", "z2", "z3", "z4", "z5")


@functools.cache
def _ctd() -> tuple[np.ndarray, tuple[str, ...]]:
    """Class (0, 1, 2) of each residue under each CTD property, and the
    property names."""
    rows = _tables.ctd_groups()
    classes = np.stack([_classes(groups) for _, groups in rows])
    return classes, tuple(prop for prop, _ in rows)


def _ctd_members(codes) -> np.ndarray:
    """(row, property, class, position) membership of each residue."""
    classes = _ctd()[0][:, codes].transpose(1, 0, 2)
    return classes[:, :, None, :] == np.arange(3)[:, None]


def _ctd_names(suffixes) -> Callable[[], list[str]]:
    return lambda: [f"{prop}.{s}" for prop in _ctd()[1] for s in suffixes]


def _ctdc(codes):
    return (_ctd_members(codes).sum(axis=3) / codes.shape[1]).reshape(len(codes), -1)


_TRANSITIONS = ((0, 1), (0, 2), (1, 2))


def _ctdt(codes):
    classes = _ctd()[0][:, codes].transpose(1, 0, 2)
    x, y = classes[..., :-1], classes[..., 1:]
    trans = [
        ((x == a) & (y == b) | (x == b) & (y == a)).sum(axis=2)
        for a, b in _TRANSITIONS
    ]
    return (np.stack(trans, axis=2) / (codes.shape[1] - 1)).reshape(len(codes), -1)


_QUANTILES = np.array([0.0, 0.25, 0.50, 0.75, 1.0])


def _ctdd(codes):
    """Per property and class: the 1-based position of the first, 25%, 50%,
    75% and last member, as a percentage of the length; 0 for no member."""
    members = _ctd_members(codes)
    total = members.sum(axis=3)[..., None]
    rank = np.maximum(1, np.floor(_QUANTILES * total))
    # the running member count first reaches rank at the rank-th member
    seen = members.cumsum(axis=3)[..., None, :]
    position = (seen < rank[..., None]).sum(axis=4) + 1
    ctdd = np.where(total > 0, position / codes.shape[1] * 100.0, 0.0)
    return ctdd.reshape(len(codes), -1)


def _ctriad(codes):
    a = _triad_groups()
    counts = _kmer_counts(a.classes[codes], 3, len(a.labels))
    lo, hi = counts.min(axis=1, keepdims=True), counts.max(axis=1, keepdims=True)
    return (counts - lo) / hi


@functools.cache
def _dde_expected() -> np.ndarray:
    """Theoretical dipeptide frequency from codon counts, per DPC column."""
    codons = _tables.scalar_table("codon_counts.tsv")
    return np.array(
        [
            (codons[a] / 61.0) * (codons[b] / 61.0)
            for a in AMINO_ACIDS
            for b in AMINO_ACIDS
        ]
    )


def _dde(codes):
    dc = _kmer_counts(codes, 2, len(AMINO_ACIDS)) / (codes.shape[1] - 1)
    tm = _dde_expected()
    tv = tm * (1 - tm) / (codes.shape[1] - 1)
    return (dc - tm) / np.sqrt(tv)


_PAAC_SCALES = ("hydrophobicity", "hydrophilicity", "sidechainmass")


@functools.cache
def _paac_properties() -> np.ndarray:
    """The PAAC scales, each standardized over the 20 residues."""
    table = _tables.matrix_table("paac_scales.tsv")
    rows = []
    for name in _PAAC_SCALES:
        vals = np.array([table[name][aa] for aa in AMINO_ACIDS])
        rows.append((vals - vals.mean()) / np.sqrt(((vals - vals.mean()) ** 2).mean()))
    return np.stack(rows)


def _pseudo(codes, factors):
    """Residue counts and the sequence-order factors, each divided by
    1 + WEIGHT * sum(factors), the sum being Python's, row by row."""
    sums = np.array([sum(row) for row in factors.tolist()])
    denom = (1.0 + WEIGHT * sums)[:, None]
    counts = residue_counts(codes)
    return np.hstack([counts / denom, WEIGHT * factors / denom])


def _paac(codes):
    values = _paac_properties()[:, codes]  # (property, row, position)
    thetas = []
    for n in range(1, LAM + 1):
        diffs = values[:, :, :-n] - values[:, :, n:]
        thetas.append((diffs ** 2).mean(axis=0).mean(axis=1))
    return _pseudo(codes, np.stack(thetas, axis=1))


def _apaac(codes):
    values = _paac_properties()[:2, codes]  # (property, row, position)
    taus = [
        (values[p, :, :-n] * values[p, :, n:]).mean(axis=1)
        for n in range(1, LAM + 1)
        for p in range(len(values))
    ]
    return _pseudo(codes, np.stack(taus, axis=1))


def _pseudo_min_len() -> int:
    # the LAM-th sequence-order factor needs a pair LAM residues apart
    return LAM + 1


_REGISTRY: dict[str, _Descriptor] = {
    "AAC": _composition(_residues, 1),
    "DPC": _composition(_residues, 2),
    "TPC": _composition(_residues, 3),
    "GAAC": _composition(_groups, 1),
    "GDPC": _composition(_groups, 2),
    "GTPC": _composition(_groups, 3),
    "CTDC": _Descriptor(_ctdc, _ctd_names(["G1", "G2", "G3"])),
    "CTDT": _Descriptor(
        _ctdt, _ctd_names([f"T{a + 1}{b + 1}" for a, b in _TRANSITIONS])
    ),
    "CTDD": _Descriptor(
        _ctdd,
        _ctd_names([f"G{c}.p{q}" for c in (1, 2, 3) for q in (0, 25, 50, 75, 100)]),
    ),
    "CTriad": _Descriptor(
        _ctriad, lambda: _triad_groups().kmers(3), lambda: 3
    ),
    "EAAC": _windowed(_residues),
    "EGAAC": _windowed(_groups),
    "CKSAAP": _gapped(_residues),
    "CKSAAGP": _gapped(_groups),
    "Binary": _positional(_one_hot),
    "BLOSUM62": _positional(_blosum62),
    "DDE": _Descriptor(_dde, lambda: _residues().kmers(2)),
    "PAAC": _Descriptor(
        _paac,
        lambda: [*AMINO_ACIDS, *(f"lambda{n}" for n in range(1, LAM + 1))],
        _pseudo_min_len,
    ),
    "APAAC": _Descriptor(
        _apaac,
        lambda: [
            *AMINO_ACIDS,
            *(f"{p}.{n}" for n in range(1, LAM + 1) for p in _PAAC_SCALES[:2]),
        ],
        _pseudo_min_len,
    ),
    "Zscale": _positional(_zscale),
}

DESCRIPTOR_IDS = tuple(_REGISTRY)


def _entry(descriptor_id: str) -> _Descriptor:
    if descriptor_id not in _REGISTRY:
        raise ValidationError(f"unknown descriptor {descriptor_id!r}")
    return _REGISTRY[descriptor_id]


def check_length(ids, n: int) -> None:
    """Raise ValidationError for a peptide of length n if a descriptor in ids
    excludes it, naming the first such descriptor."""
    for did in ids:
        entry = _entry(did)
        lo, hi = entry.min_len(), entry.max_len()
        if n < lo:
            raise ValidationError(f"{did} requires length >= {lo}, got {n}")
        if n > hi:
            raise ValidationError(f"{did} requires length <= {hi}, got {n}")


def check_lengths(ids, seqs) -> None:
    """Raise ValidationError naming the first of seqs that a descriptor in ids
    cannot encode, and the first such descriptor."""
    first = {}  # the first sequence of each length
    for seq in seqs:
        first.setdefault(len(seq), seq)
    for n, seq in first.items():
        try:
            check_length(ids, n)
        except ValidationError as exc:
            raise ValidationError(f"sequence {seq!r}: {exc}") from exc


def check_ids(ids) -> None:
    """Raise ConfigError for the first ID in ids that is unknown or repeated."""
    for i, did in enumerate(ids):
        if did not in _REGISTRY:
            raise ConfigError(f"unknown descriptor {did!r}")
        if did in ids[:i]:
            raise ConfigError(f"duplicate descriptor {did!r}")


def encode(descriptor_id: str, peptide):
    """Encode one peptide with one descriptor; returns a fixed-length vector."""
    return encode_matrix([descriptor_id], [peptide])[0]


def column_names(ids) -> list[str]:
    """One informative name per output column, in encoding order."""
    return [f"{did}_{name}" for did in ids for name in _entry(did).names()]


def encode_matrix(ids, peptides):
    """Raw (un-normalized) concatenated descriptor rows for many peptides;
    each encoder runs once per distinct length, on all peptides of that
    length.  A length error names the first peptide out of bounds."""
    if not ids:
        raise ValidationError("descriptor list must be non-empty")
    if len(set(ids)) != len(ids):
        raise ValidationError("descriptor list contains duplicates")
    seqs = [p.sequence if isinstance(p, Peptide) else Peptide(str(p)).sequence
            for p in peptides]
    out = np.empty((len(seqs), len(column_names(ids))))
    check_lengths(ids, seqs)
    codes = residue_codes(seqs).astype(np.intp)
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    for n in dict.fromkeys(lengths.tolist()):
        rows = np.flatnonzero(lengths == n)
        block = codes[rows, :n]
        out[rows] = np.hstack([_REGISTRY[did].encode(block) for did in ids])
    return out


@dataclass
class FeatureScaler:
    """Per-column z-score statistics fitted on training rows only.

    Zero-variance columns keep unit scale so they normalize to zero.
    """

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, rows: np.ndarray) -> "FeatureScaler":
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        scale = np.where(std == 0, 1.0, std)
        return cls(mean, scale)

    def transform(self, rows: np.ndarray) -> np.ndarray:
        return (rows - self.mean) / self.scale
