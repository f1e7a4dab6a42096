"""Sequence-level physicochemical profiling.

All constants (hydropathy scales, masses, pKa values, dipeptide instability
weights) come from the bundled data tables, so every number produced here
is reproducible bit-exactly from this package alone.  Masses are average
(not monoisotopic); the hydrophobic moment is computed over the full
sequence rather than a sliding window.

Profiles are computed a batch of peptides at a time (profiles); profile is
its one-row case.  net_charge and isoelectric_point give one peptide's
charge at any pH and its pI at any bisection setting.  Every sum over
residues runs left to right in residue order, one position at a time across
the batch, so a peptide's values do not depend on the rest of its batch,
nor on the Python version (from 3.12 the builtin sum compensates float
rounding).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import _tables
from .errors import ConfigError, ValidationError
from .sequences import (
    AA_TO_INDEX,
    AMINO_ACIDS,
    NUM_CHANNELS,
    Peptide,
    residue_codes,
    residue_counts,
)

WATER_MASS = 18.02

_AROMATIC = "FWY"
_HELIX = "VIYFWL"
_TURN = "NPGS"
_SHEET = "EMAL"
_HYDROPHOBIC = "ACFILMVW"

# molar extinction coefficients at 280 nm (Gill - von Hippel)
_EXT_TYR = 1490.0
_EXT_TRP = 5500.0
_EXT_CYSTINE = 125.0

_MOMENT_ANGLE_DEG = 100.0

_PI_TOL = 1e-4
_PI_MAX_ITER = 100


@dataclass(frozen=True)
class PhyschemProfile:
    gravy: float
    molecular_weight: float
    isoelectric_point: float
    net_charge_ph7: float
    aromaticity: float
    instability_index: float
    helix_fraction: float
    turn_fraction: float
    sheet_fraction: float
    extinction_reduced: float
    extinction_oxidized: float
    aliphatic_index: float
    charge_density: float
    hydrophobic_ratio: float
    hydrophobic_moment: float


PROFILE_FIELDS = tuple(f.name for f in fields(PhyschemProfile))


def _seq(p) -> str:
    # single residues are chemically meaningful here, so unlike Peptide
    # the two-residue minimum is not enforced; residue_codes checks the alphabet
    seq = p.sequence if isinstance(p, Peptide) else str(p)
    if not seq:
        raise ValidationError("cannot profile an empty sequence")
    return seq


class _Batch(NamedTuple):
    """Validated peptides as a padded residue-code matrix.  Every residue
    table maps the pad code to 0.0, which leaves a left-to-right sum's bits
    unchanged."""

    codes: np.ndarray  # (longest length, n) uint8, position-major, pad past each end
    counts: np.ndarray  # (n, 20) residue counts, indexed like AMINO_ACIDS
    lengths: np.ndarray  # (n,) float64


def _batch(peptides) -> _Batch:
    codes = residue_codes([_seq(p) for p in peptides])
    counts = residue_counts(codes)
    return _Batch(codes.T.copy(), counts, counts.sum(axis=1).astype(np.float64))


def _count(batch: _Batch, residues: str) -> np.ndarray:
    return batch.counts[:, [AA_TO_INDEX[aa] for aa in residues]].sum(axis=1)


def _padded_scale(name: str) -> np.ndarray:
    table = _tables.scalar_table(name)
    return np.array([table[aa] for aa in AMINO_ACIDS] + [0.0])


class _Scales(NamedTuple):
    hydropathy: np.ndarray  # Kyte-Doolittle, indexed by residue code
    mass: np.ndarray
    moment: np.ndarray  # Eisenberg
    instability: np.ndarray  # DIWV weight of each (code, next code) pair


@functools.cache
def _scales() -> _Scales:
    diwv = _tables.matrix_table("instability_diwv.tsv")
    instability = np.zeros((NUM_CHANNELS, NUM_CHANNELS))
    instability[:-1, :-1] = [[diwv[a][b] for b in AMINO_ACIDS] for a in AMINO_ACIDS]
    return _Scales(
        _padded_scale("kyte_doolittle.tsv"),
        _padded_scale("residue_masses.tsv"),
        _padded_scale("eisenberg.tsv"),
        instability,
    )


class _Titration(NamedTuple):
    """The ionizable groups of a batch, group-major.  A peptide's net charge
    adds the N-terminus, the C-terminus, then its side-chain groups in order
    of first appearance in the sequence; column j lists peptide j's groups
    in that order, absent ones (count 0) last."""

    groups: np.ndarray  # (side groups, n) row of each group in _Pka.powers
    counts: np.ndarray  # (side groups, n) float64


class _Pka(NamedTuple):
    powers: np.ndarray  # (groups, 1) 10.0 ** pKa: N-terminus, C-terminus, side chains
    positive: np.ndarray  # (groups, 1) bool
    side_codes: list[int]  # residue code of each side-chain group


@functools.cache
def _pka() -> _Pka:
    table = _tables.pka_table()
    groups = ["nterm", "cterm"] + [g for g in table if g in AA_TO_INDEX]
    return _Pka(
        np.array([[10.0 ** table[g][0]] for g in groups]),
        np.array([[table[g][1] > 0] for g in groups]),
        [AA_TO_INDEX[g] for g in groups[2:]],
    )


def _titration(batch: _Batch) -> _Titration:
    n = len(batch.lengths)
    width = len(batch.codes)
    first = np.full((NUM_CHANNELS, n), width)  # first position of each residue
    peptides = np.arange(n)
    for i in range(width - 1, -1, -1):
        first[batch.codes[i], peptides] = i
    side_codes = _pka().side_codes
    order = np.argsort(first[side_codes], axis=0, kind="stable")
    counts = np.take_along_axis(batch.counts.T[side_codes], order, axis=0)
    return _Titration(order + 2, counts.astype(np.float64))


def _ten_to(ph: np.ndarray) -> np.ndarray:
    """10.0 ** ph by Python's pow, evaluated once per distinct value."""
    values, inverse = np.unique(ph, return_inverse=True)
    return np.array([10.0**v for v in values.tolist()])[inverse.reshape(-1)]


def _net_charge(titration: _Titration, ten_ph: np.ndarray) -> np.ndarray:
    """Henderson-Hasselbalch net charge of each peptide at pH log10(ten_ph)."""
    pka = _pka()
    frac = np.where(pka.positive, pka.powers, -ten_ph) / (pka.powers + ten_ph)
    total = frac[0] + frac[1]
    for term in titration.counts * frac[titration.groups, np.arange(len(ten_ph))]:
        total += term
    return total


def _isoelectric_points(titration: _Titration, tol: float, max_iter: int) -> np.ndarray:
    """Bisection on [0, 14] for every peptide at once; a peptide leaves the
    bisection once its charge is within tol of zero."""
    n = titration.counts.shape[1]
    c_lo = _net_charge(titration, np.full(n, 10.0**0.0))
    c_hi = _net_charge(titration, np.full(n, 10.0**14.0))
    points = np.where(c_lo < 0, 0.0, 14.0)
    active = np.flatnonzero(~(c_lo < 0) & ~(c_hi > 0))
    lo, hi = np.zeros(active.size), np.full(active.size, 14.0)
    mid = np.full(active.size, 7.0)
    for _ in range(max_iter):
        if not active.size:
            break
        mid = 0.5 * (lo + hi)
        bisected = _Titration(titration.groups[:, active], titration.counts[:, active])
        c = _net_charge(bisected, _ten_to(mid))
        done = np.abs(c) < tol
        points[active[done]] = mid[done]
        left = ~done
        up = c[left] > 0
        active, mid, lo, hi = active[left], mid[left], lo[left], hi[left]
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    points[active] = mid  # peptides that ran out of iterations keep their last midpoint
    return points


def profiles(peptides) -> np.ndarray:
    """The (n, 15) float64 profiles of the peptides, columns in
    PROFILE_FIELDS order.  Raises ValidationError naming the first empty
    sequence, else the first that holds a non-canonical residue."""
    batch = _batch(peptides)
    n = batch.lengths.size
    if not n:
        return np.empty((0, len(PROFILE_FIELDS)))
    scales = _scales()
    step = math.radians(_MOMENT_ANGLE_DEG)
    hydropathy, mass, instability = np.zeros(n), np.zeros(n), np.zeros(n)
    moment_cos, moment_sin = np.zeros(n), np.zeros(n)
    prev = None
    for i, codes in enumerate(batch.codes):
        hydropathy += scales.hydropathy[codes]
        mass += scales.mass[codes]
        if prev is not None:
            instability += scales.instability[prev, codes]
        hydrophobicity = scales.moment[codes]
        moment_cos += hydrophobicity * math.cos(i * step)
        moment_sin += hydrophobicity * math.sin(i * step)
        prev = codes
    titration = _titration(batch)
    length = batch.lengths

    def fraction(residues: str) -> np.ndarray:
        return _count(batch, residues) / length

    mw = mass + WATER_MASS
    charge7 = _net_charge(titration, np.full(n, 10.0**7.0))
    ext_red = _EXT_TYR * _count(batch, "Y") + _EXT_TRP * _count(batch, "W")
    norms = [math.hypot(c, s) for c, s in zip(moment_cos.tolist(), moment_sin.tolist())]
    columns = dict(
        gravy=hydropathy / length,
        molecular_weight=mw,
        isoelectric_point=_isoelectric_points(titration, _PI_TOL, _PI_MAX_ITER),
        net_charge_ph7=charge7,
        aromaticity=fraction(_AROMATIC),
        instability_index=10.0 / length * instability,
        helix_fraction=fraction(_HELIX),
        turn_fraction=fraction(_TURN),
        sheet_fraction=fraction(_SHEET),
        extinction_reduced=ext_red,
        extinction_oxidized=ext_red + _EXT_CYSTINE * (_count(batch, "C") // 2),
        aliphatic_index=100.0 * (fraction("A") + 2.9 * fraction("V") + 3.9 * fraction("IL")),
        charge_density=charge7 / mw,
        hydrophobic_ratio=fraction(_HYDROPHOBIC),
        hydrophobic_moment=np.array(norms) / length,
    )
    return np.column_stack([columns[f] for f in PROFILE_FIELDS])


def profile(peptide) -> PhyschemProfile:
    """The profile of one peptide: the one-row case of profiles."""
    return PhyschemProfile(*profiles([peptide])[0].tolist())


def net_charge(peptide, ph: float) -> float:
    """Henderson-Hasselbalch net charge at the given pH.

    Positive groups (N-terminus, K, R, H) contribute
    10^pKa / (10^pKa + 10^pH); negative groups (C-terminus, D, E, C, Y)
    contribute -10^pH / (10^pKa + 10^pH).
    """
    if not 0 <= ph <= 14:
        raise ConfigError(f"pH must be within [0, 14], got {ph}")
    titration = _titration(_batch([peptide]))
    return float(_net_charge(titration, np.array([10.0**ph]))[0])


def isoelectric_point(peptide, tol: float = _PI_TOL, max_iter: int = _PI_MAX_ITER) -> float:
    """pH where the net charge crosses zero, located by bisection on [0, 14].

    Net charge is strictly decreasing in pH, so the crossing is unique.
    With both termini always present the charge spans zero on [0, 14]; the
    boundary clamp is purely defensive.
    """
    return float(_isoelectric_points(_titration(_batch([peptide])), tol, max_iter)[0])

