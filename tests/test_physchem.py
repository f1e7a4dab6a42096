import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peptaste import _tables
from peptaste.errors import ValidationError
from peptaste.physchem import (
    PROFILE_FIELDS,
    WATER_MASS,
    isoelectric_point,
    net_charge,
    profile,
    profiles,
)
from peptaste.sequences import AMINO_ACIDS

RNG = np.random.default_rng(11)


def random_seq(lo=2, hi=14):
    return "".join(RNG.choice(list(AMINO_ACIDS), size=RNG.integers(lo, hi + 1)))


# --- reference: the per-peptide scalar code the batch profiles replaced ----


def lsum(values):
    """Left-to-right sum from int 0, as the builtin sum adds floats up to
    Python 3.11 (from 3.12 it compensates rounding)."""
    total = 0
    for v in values:
        total += v
    return total


def ref_net_charge(seq, ph):
    pka = _tables.pka_table()
    counts = {"nterm": 1, "cterm": 1}
    for aa in seq:
        if aa in pka:
            counts[aa] = counts.get(aa, 0) + 1
    total = 0.0
    for group, n in counts.items():
        pk, sign = pka[group]
        if sign > 0:
            frac = 10.0**pk / (10.0**pk + 10.0**ph)
        else:
            frac = -(10.0**ph) / (10.0**pk + 10.0**ph)
        total += n * frac
    return total


def ref_isoelectric_point(seq, tol=1e-4, max_iter=100):
    lo, hi = 0.0, 14.0
    c_lo, c_hi = ref_net_charge(seq, lo), ref_net_charge(seq, hi)
    if c_lo < 0:
        return lo
    if c_hi > 0:
        return hi
    mid = 7.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        c = ref_net_charge(seq, mid)
        if abs(c) < tol:
            return mid
        if c > 0:
            lo = mid
        else:
            hi = mid
    return mid


def ref_profile(seq):
    """The profile row of seq, in PROFILE_FIELDS order."""
    kd = _tables.scalar_table("kyte_doolittle.tsv")
    masses = _tables.scalar_table("residue_masses.tsv")
    diwv = _tables.matrix_table("instability_diwv.tsv")
    scale = _tables.scalar_table("eisenberg.tsv")
    n = len(seq)
    mw = lsum(masses[aa] for aa in seq) + WATER_MASS
    charge7 = ref_net_charge(seq, 7.0)
    step = math.radians(100.0)
    cos_sum = lsum(scale[aa] * math.cos(i * step) for i, aa in enumerate(seq))
    sin_sum = lsum(scale[aa] * math.sin(i * step) for i, aa in enumerate(seq))
    ext_red = 1490.0 * seq.count("Y") + 5500.0 * seq.count("W")
    xa = seq.count("A") / n
    xv = seq.count("V") / n
    xil = (seq.count("I") + seq.count("L")) / n
    return dict(
        gravy=lsum(kd[aa] for aa in seq) / n,
        molecular_weight=mw,
        isoelectric_point=ref_isoelectric_point(seq),
        net_charge_ph7=charge7,
        aromaticity=sum(aa in "FWY" for aa in seq) / n,
        instability_index=10.0 / n * lsum(diwv[a][b] for a, b in zip(seq, seq[1:])),
        helix_fraction=sum(aa in "VIYFWL" for aa in seq) / n,
        turn_fraction=sum(aa in "NPGS" for aa in seq) / n,
        sheet_fraction=sum(aa in "EMAL" for aa in seq) / n,
        extinction_reduced=ext_red,
        extinction_oxidized=ext_red + 125.0 * (seq.count("C") // 2),
        aliphatic_index=100.0 * (xa + 2.9 * xv + 3.9 * xil),
        charge_density=charge7 / mw,
        hydrophobic_ratio=sum(aa in "ACFILMVW" for aa in seq) / n,
        hydrophobic_moment=math.hypot(cos_sum, sin_sum) / n,
    )


def ref_matrix(seqs):
    rows = [ref_profile(s) for s in seqs]
    return np.array([[row[f] for f in PROFILE_FIELDS] for row in rows], dtype=np.float64)


IONIZABLE = "KRHDECY"
NOT_IONIZABLE = "".join(aa for aa in AMINO_ACIDS if aa not in IONIZABLE)
peptides = st.lists(
    st.sampled_from([AMINO_ACIDS, IONIZABLE, NOT_IONIZABLE]).flatmap(
        lambda alphabet: st.text(alphabet=alphabet, min_size=1, max_size=60)
    ),
    min_size=1,
    max_size=25,
)


class TestBatchAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(peptides)
    def test_profiles_bit_equal(self, seqs):
        got = profiles(seqs)
        assert got.shape == (len(seqs), len(PROFILE_FIELDS))
        assert np.array_equal(got.view(np.int64), ref_matrix(seqs).view(np.int64))

    def test_fixed_extremes_bit_equal(self):
        seqs = ["K", "D", "G", "W", "GG", "KRH", "DECY", "K" * 60, "D" * 60, "C" * 59]
        seqs += [random_seq(1, 60) for _ in range(200)]
        assert np.array_equal(profiles(seqs).view(np.int64), ref_matrix(seqs).view(np.int64))

    def test_rows_do_not_depend_on_the_batch(self):
        seqs = [random_seq(1, 40) for _ in range(30)]
        batch = profiles(seqs)
        for seq, row in zip(seqs, batch):
            assert list(dataclasses.astuple(profile(seq))) == row.tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=40),
        st.floats(min_value=0.0, max_value=14.0),
    )
    def test_net_charge_bit_equal(self, seq, ph):
        assert net_charge(seq, ph).hex() == ref_net_charge(seq, ph).hex()

    @pytest.mark.parametrize("tol, max_iter", [(1e-4, 100), (1e-9, 100), (1e-4, 3), (0.0, 0)])
    def test_isoelectric_point_settings(self, tol, max_iter):
        for _ in range(20):
            seq = random_seq(1, 30)
            assert isoelectric_point(seq, tol, max_iter) == ref_isoelectric_point(
                seq, tol, max_iter
            )

    def test_empty_batch(self):
        assert profiles([]).shape == (0, len(PROFILE_FIELDS))

    @pytest.mark.parametrize("bad", ["", "ACXD", "acd", "AC D"])
    def test_batch_names_the_bad_sequence(self, bad):
        with pytest.raises(ValidationError, match=repr(bad) if bad else "empty"):
            profiles(["ACDE", bad, "KK"])


class TestNetCharge:
    def test_half_titration_point(self):
        # at pH == pKa, each ionizable side chain contributes exactly +-0.5
        pka = _tables.pka_table()
        ph = pka["K"][0]
        # glycine backbone contributes termini only; isolate lysine's share
        delta = net_charge("GK", ph) - net_charge("GG", ph)
        assert delta == pytest.approx(0.5, abs=1e-12)

    def test_single_lysine_value(self):
        # oracle: direct evaluation of the titration formula per group
        pka = _tables.pka_table()

        def term(group, ph):
            pk, sign = pka[group]
            if sign > 0:
                return 10**pk / (10**pk + 10**ph)
            return -(10**ph) / (10**pk + 10**ph)

        expected = term("nterm", 7.0) + term("cterm", 7.0) + term("K", 7.0)
        assert net_charge("K", 7.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.909, abs=1e-3)

    def test_monotone_decreasing(self):
        for _ in range(20):
            seq = random_seq()
            grid = [net_charge(seq, ph) for ph in np.linspace(0, 14, 57)]
            assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_invalid_residue(self):
        with pytest.raises(ValidationError):
            net_charge("AZ", 7.0)


class TestIsoelectricPoint:
    def test_charge_at_pi_is_zero(self):
        for _ in range(25):
            seq = random_seq()
            assert abs(net_charge(seq, isoelectric_point(seq))) < 1e-3

    def test_acidic_vs_basic(self):
        assert isoelectric_point("DD") < 7.0 < isoelectric_point("KK")

    def test_termini_only_matches_grid_oracle(self):
        # oracle: dense pH scan of the termini-only titration, by the
        # reference; the charge of GG plateaus near zero between the two
        # terminal pKa values, so the bisection answer must land inside the
        # grid's |charge| < 1e-4 band
        phs = np.arange(0.0, 14.0 + 1e-9, 1e-4)
        charges = np.array([ref_net_charge("GG", ph) for ph in phs])
        band = phs[np.abs(charges) < 1e-4]
        assert band.size > 0
        pi = isoelectric_point("GG")
        assert band[0] - 1e-4 <= pi <= band[-1] + 1e-4
        assert abs(net_charge("GG", pi)) < 1e-4


class TestProfileValues:
    def test_aromaticity_extremes(self):
        assert profile("FWY").aromaticity == 1.0
        assert profile("AAAA").aromaticity == 0.0

    def test_aliphatic_index(self):
        assert profile("AAAA").aliphatic_index == pytest.approx(100.0)
        assert profile("VVVV").aliphatic_index == pytest.approx(290.0, abs=1e-9)
        assert profile("IILL").aliphatic_index == pytest.approx(390.0)

    def test_extinction(self):
        assert profile("W").extinction_reduced == 5500.0
        assert profile("Y").extinction_reduced == 1490.0
        assert profile("CC").extinction_oxidized == 125.0
        assert profile("CC").extinction_reduced == 0.0
        assert profile("CCC").extinction_oxidized == 125.0  # floor(3/2) pairs

    def test_mw_additivity(self):
        a, b = "ACDE", "KLMN"
        assert profile(a + b).molecular_weight == pytest.approx(
            profile(a).molecular_weight + profile(b).molecular_weight - WATER_MASS
        )

    def test_gravy_homopolymer_is_table_value(self):
        kd = _tables.scalar_table("kyte_doolittle.tsv")
        for aa in AMINO_ACIDS:
            assert profile(aa * 5).gravy == pytest.approx(kd[aa], abs=1e-12)

    def test_instability_from_table(self):
        diwv = _tables.matrix_table("instability_diwv.tsv")
        seq = "GLPW"
        expected = 10.0 / 4 * (diwv["G"]["L"] + diwv["L"]["P"] + diwv["P"]["W"])
        assert profile(seq).instability_index == pytest.approx(expected, abs=1e-12)

    def test_hydrophobic_moment_homopolymer(self):
        # oracle: complex-arithmetic evaluation of the vector sum
        scale = _tables.scalar_table("eisenberg.tsv")
        h = scale["L"]
        total = sum(np.exp(1j * k * math.radians(100.0)) for k in range(4))
        expected = abs(h) * abs(total) / 4
        assert profile("LLLL").hydrophobic_moment == pytest.approx(expected, abs=1e-12)

    def test_moment_random_against_complex_sum(self):
        scale = _tables.scalar_table("eisenberg.tsv")
        for _ in range(20):
            seq = random_seq()
            total = sum(
                scale[aa] * np.exp(1j * k * math.radians(100.0))
                for k, aa in enumerate(seq)
            )
            assert profile(seq).hydrophobic_moment == pytest.approx(
                abs(total) / len(seq), abs=1e-12
            )

    def test_structure_fraction_partition(self):
        p = profile("VIYFWLNPGSEMAL")
        for frac in (p.helix_fraction, p.turn_fraction, p.sheet_fraction):
            assert 0.0 <= frac <= 1.0

    def test_charge_density(self):
        p = profile("KKKK")
        assert p.charge_density == pytest.approx(p.net_charge_ph7 / p.molecular_weight)


class TestProfileInvariants:
    def test_fractions_in_unit_interval(self):
        for _ in range(50):
            p = profile(random_seq())
            for v in (
                p.aromaticity,
                p.helix_fraction,
                p.turn_fraction,
                p.sheet_fraction,
                p.hydrophobic_ratio,
            ):
                assert 0.0 <= v <= 1.0
            assert p.molecular_weight > 0
            assert 0.0 < p.isoelectric_point < 14.0
            assert p.extinction_reduced >= 0 and p.extinction_oxidized >= 0

    def test_permutation_invariance_split(self):
        # note the permutation must not be a reversal: reversing a sequence
        # provably preserves the hydrophobic moment's modulus
        seq = "ACKWDEFLYR"
        perm = "KAWCEDLFRY"
        a, b = profile(seq), profile(perm)
        assert a.gravy == pytest.approx(b.gravy)
        assert a.molecular_weight == pytest.approx(b.molecular_weight)
        assert a.aromaticity == pytest.approx(b.aromaticity)
        assert a.aliphatic_index == pytest.approx(b.aliphatic_index)
        # order-sensitive fields differ for this rearrangement
        assert a.instability_index != pytest.approx(b.instability_index)
        assert a.hydrophobic_moment != pytest.approx(b.hydrophobic_moment)
