"""The 20 sequence-descriptor encoders and z-score feature scaling.

Composition descriptors are frequency-normalized; positional descriptors
(Binary, BLOSUM62, Zscale, EAAC, EGAAC) lay the sequence into a fixed
pad_len frame and zero-fill beyond the sequence end.  All residue scales,
group partitions, and matrices load from the bundled data tables, once,
on first use.

Each descriptor is declared once, in _REGISTRY: its encoder, its column
names and its length bounds.  Encoders take the sequence as residue
indices into AMINO_ACIDS; every count is an exact integer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _tables
from .errors import ValidationError
from .sequences import AA_TO_INDEX, AMINO_ACIDS, MIN_LENGTH, Peptide, residue_codes

GROUP_NAMES = ("aliphatic", "aromatic", "positive", "negative", "uncharged")


@dataclass(frozen=True)
class DescriptorConfig:
    pad_len: int = 25
    window: int = 5
    k_max: int = 3
    lam: int = 1
    weight: float = 0.05


DEFAULT_CONFIG = DescriptorConfig()


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
    """Counts of all base**k class k-mers, in lexicographic order."""
    m = len(classes) - k + 1
    idx = classes[:m]
    for j in range(1, k):
        idx = idx * base + classes[j : j + m]
    return np.bincount(idx, minlength=base**k)


class _Descriptor(NamedTuple):
    encode: Callable[[np.ndarray, DescriptorConfig], np.ndarray]
    names: Callable[[DescriptorConfig], list[str]]  # without the "<ID>_" prefix
    min_len: Callable[[DescriptorConfig], int] = lambda cfg: MIN_LENGTH
    max_len: Callable[[DescriptorConfig], float] = lambda cfg: math.inf


def _composition(alphabet: Callable[[], _Alphabet], k: int) -> _Descriptor:
    """Frequencies of the k-mers of residue classes (AAC ... GTPC)."""

    def encode(codes, cfg):
        a = alphabet()
        counts = _kmer_counts(a.classes[codes], k, len(a.labels))
        return counts / (len(codes) - k + 1)

    return _Descriptor(encode, lambda cfg: alphabet().kmers(k), lambda cfg: k)


def _gapped(alphabet: Callable[[], _Alphabet]) -> _Descriptor:
    """Frequencies of class pairs (i, i + g + 1), one block per gap g <= k_max;
    a block with no pairs stays zero."""

    def encode(codes, cfg):
        a = alphabet()
        classes, base = a.classes[codes], len(a.labels)
        blocks = []
        for g in range(cfg.k_max + 1):
            m = max(len(codes) - g - 1, 0)
            pairs = classes[:m] * base + classes[g + 1 : g + 1 + m]
            blocks.append(np.bincount(pairs, minlength=base * base) / max(m, 1))
        return np.concatenate(blocks)

    def names(cfg):
        pairs = alphabet().kmers(2)
        return [f"{p}.gap{g}" for g in range(cfg.k_max + 1) for p in pairs]

    return _Descriptor(encode, names)


def _windowed(alphabet: Callable[[], _Alphabet]) -> _Descriptor:
    """Class counts over each window of the pad_len frame, divided by the
    window length (EAAC, EGAAC)."""

    def encode(codes, cfg):
        a = alphabet()
        classes, base = a.classes[codes], len(a.labels)
        counts = [
            np.bincount(classes[w : w + cfg.window], minlength=base)
            for w in range(cfg.pad_len - cfg.window + 1)
        ]
        return np.concatenate(counts) / cfg.window

    def names(cfg):
        nw = cfg.pad_len - cfg.window + 1
        return [f"w{w + 1}.{c}" for w in range(nw) for c in alphabet().labels]

    return _Descriptor(encode, names, max_len=lambda cfg: cfg.pad_len)


def _positional(
    table: Callable[[], tuple[np.ndarray, tuple[str, ...]]],
) -> _Descriptor:
    """One table row per position, zero rows past the sequence end
    (Binary, BLOSUM62, Zscale)."""

    def encode(codes, cfg):
        values = table()[0]
        out = np.zeros((cfg.pad_len, values.shape[1]))
        out[: len(codes)] = values[codes]
        return out.ravel()

    def names(cfg):
        return [f"p{i + 1}.{c}" for i in range(cfg.pad_len) for c in table()[1]]

    return _Descriptor(encode, names, max_len=lambda cfg: cfg.pad_len)


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
    """(property, class, position) membership of each residue."""
    classes = _ctd()[0][:, codes]
    return classes[:, None, :] == np.arange(3)[:, None]


def _ctd_names(suffixes) -> Callable[[DescriptorConfig], list[str]]:
    return lambda cfg: [f"{prop}.{s}" for prop in _ctd()[1] for s in suffixes]


def _ctdc(codes, cfg):
    return (_ctd_members(codes).sum(axis=2) / len(codes)).ravel()


_TRANSITIONS = ((0, 1), (0, 2), (1, 2))


def _ctdt(codes, cfg):
    classes = _ctd()[0][:, codes]
    x, y = classes[:, :-1], classes[:, 1:]
    trans = [
        ((x == a) & (y == b) | (x == b) & (y == a)).sum(axis=1)
        for a, b in _TRANSITIONS
    ]
    return (np.stack(trans, axis=1) / (len(codes) - 1)).ravel()


_QUANTILES = np.array([0.0, 0.25, 0.50, 0.75, 1.0])


def _ctdd(codes, cfg):
    """Per property and class: the 1-based position of the first, 25%, 50%,
    75% and last member, as a percentage of the length; 0 for no member."""
    members = _ctd_members(codes)
    total = members.sum(axis=2)[..., None]
    rank = np.maximum(1, np.floor(_QUANTILES * total))
    # the running member count first reaches rank at the rank-th member
    seen = members.cumsum(axis=2)[..., None, :]
    position = (seen < rank[..., None]).sum(axis=3) + 1
    return np.where(total > 0, position / len(codes) * 100.0, 0.0).ravel()


def _ctriad(codes, cfg):
    a = _triad_groups()
    counts = _kmer_counts(a.classes[codes], 3, len(a.labels))
    return (counts - counts.min()) / counts.max()


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


def _dde(codes, cfg):
    dc = _kmer_counts(codes, 2, len(AMINO_ACIDS)) / (len(codes) - 1)
    tm = _dde_expected()
    tv = tm * (1 - tm) / (len(codes) - 1)
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


def _pseudo(codes, factors, cfg):
    """Residue counts and the sequence-order factors, each divided by
    1 + weight * sum(factors)."""
    denom = 1.0 + cfg.weight * sum(factors)
    counts = np.bincount(codes, minlength=len(AMINO_ACIDS))
    return np.concatenate([counts / denom, cfg.weight * np.array(factors) / denom])


def _paac(codes, cfg):
    props = _paac_properties()
    thetas = []
    for n in range(1, cfg.lam + 1):
        diffs = props[:, codes[:-n]] - props[:, codes[n:]]
        thetas.append(float((diffs ** 2).mean(axis=0).mean()))
    return _pseudo(codes, thetas, cfg)


def _apaac(codes, cfg):
    props = _paac_properties()[:2]
    taus = []
    for n in range(1, cfg.lam + 1):
        for p in range(props.shape[0]):
            taus.append(float((props[p, codes[:-n]] * props[p, codes[n:]]).mean()))
    return _pseudo(codes, taus, cfg)


def _pseudo_min_len(cfg) -> int:
    # the lam-th sequence-order factor needs a pair lam residues apart
    return cfg.lam + 1


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
        _ctriad, lambda cfg: _triad_groups().kmers(3), lambda cfg: 3
    ),
    "EAAC": _windowed(_residues),
    "EGAAC": _windowed(_groups),
    "CKSAAP": _gapped(_residues),
    "CKSAAGP": _gapped(_groups),
    "Binary": _positional(_one_hot),
    "BLOSUM62": _positional(_blosum62),
    "DDE": _Descriptor(_dde, lambda cfg: _residues().kmers(2)),
    "PAAC": _Descriptor(
        _paac,
        lambda cfg: [*AMINO_ACIDS, *(f"lambda{n}" for n in range(1, cfg.lam + 1))],
        _pseudo_min_len,
    ),
    "APAAC": _Descriptor(
        _apaac,
        lambda cfg: [
            *AMINO_ACIDS,
            *(f"{p}.{n}" for n in range(1, cfg.lam + 1) for p in _PAAC_SCALES[:2]),
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


def _bounded_entry(descriptor_id: str, n: int, config: DescriptorConfig) -> _Descriptor:
    entry = _entry(descriptor_id)
    lo, hi = entry.min_len(config), entry.max_len(config)
    if n < lo:
        raise ValidationError(f"{descriptor_id} requires length >= {lo}, got {n}")
    if n > hi:
        raise ValidationError(f"{descriptor_id} requires length <= {hi}, got {n}")
    return entry


def check_length(ids, n: int, config: DescriptorConfig = DEFAULT_CONFIG) -> None:
    """Raise the error encode_matrix raises for a peptide of length n: that
    of the first descriptor in ids whose length bounds exclude n."""
    for did in ids:
        _bounded_entry(did, n, config)


def encode(descriptor_id: str, peptide, config: DescriptorConfig = DEFAULT_CONFIG):
    """Encode one peptide with one descriptor; returns a fixed-length vector."""
    return encode_matrix([descriptor_id], [peptide], config)[0]


def min_length(
    ids, config: DescriptorConfig = DEFAULT_CONFIG
) -> tuple[str | None, int]:
    """The first descriptor in ids with the largest minimum peptide length,
    and that length; (None, MIN_LENGTH) for no ids."""
    bounds = ((did, _entry(did).min_len(config)) for did in ids)
    return max(bounds, key=lambda b: b[1], default=(None, MIN_LENGTH))


def max_length(
    ids, config: DescriptorConfig = DEFAULT_CONFIG
) -> tuple[str | None, float]:
    """The first descriptor in ids with the smallest maximum peptide length,
    and that length; (None, math.inf) for no ids."""
    bounds = ((did, _entry(did).max_len(config)) for did in ids)
    return min(bounds, key=lambda b: b[1], default=(None, math.inf))


def descriptor_dims(config: DescriptorConfig = DEFAULT_CONFIG) -> dict[str, int]:
    return {did: len(entry.names(config)) for did, entry in _REGISTRY.items()}


def column_names(ids, config: DescriptorConfig = DEFAULT_CONFIG) -> list[str]:
    """One informative name per output column, in encoding order."""
    return [f"{did}_{name}" for did in ids for name in _entry(did).names(config)]


def encode_matrix(ids, peptides, config: DescriptorConfig = DEFAULT_CONFIG):
    """Raw (un-normalized) concatenated descriptor rows for many peptides."""
    if not ids:
        raise ValidationError("descriptor list must be non-empty")
    if len(set(ids)) != len(ids):
        raise ValidationError("descriptor list contains duplicates")
    seqs = [p.sequence if isinstance(p, Peptide) else Peptide(str(p)).sequence
            for p in peptides]
    if not seqs:
        return np.zeros((0, len(column_names(ids, config))))
    codes = residue_codes(seqs).astype(np.intp)
    rows = []
    for seq, row in zip(seqs, codes):
        n = len(seq)
        parts = [_bounded_entry(did, n, config).encode(row[:n], config) for did in ids]
        rows.append(np.concatenate(parts))
    return np.stack(rows)


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
