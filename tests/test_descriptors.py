import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peptaste import _tables
from peptaste.descriptors import (
    DESCRIPTOR_IDS,
    FeatureScaler,
    column_names,
    encode,
    encode_matrix,
)
from peptaste.errors import ValidationError
from peptaste.sequences import AMINO_ACIDS, Peptide
from conftest import DEFAULT_SETTINGS, descriptor_settings

COMPOSITION_IDS = ("AAC", "DPC", "TPC", "GAAC", "GDPC", "GTPC")

RNG = np.random.default_rng(3)


def random_seq(lo=3, hi=25):
    return "".join(RNG.choice(list(AMINO_ACIDS), size=RNG.integers(lo, hi + 1)))


def descriptor_dims() -> dict[str, int]:
    return {did: len(column_names([did])) for did in DESCRIPTOR_IDS}


class TestDimensions:
    def test_table_matches_contract(self):
        dims = descriptor_dims()
        assert dims["AAC"] == 20
        assert dims["DPC"] == 400
        assert dims["TPC"] == 8000
        assert dims["GAAC"] == 5
        assert dims["GDPC"] == 25
        assert dims["GTPC"] == 125
        assert dims["CTDC"] == 39
        assert dims["CTDT"] == 39
        assert dims["CTDD"] == 195
        assert dims["CTriad"] == 343
        assert dims["EAAC"] == 420
        assert dims["EGAAC"] == 105
        assert dims["CKSAAP"] == 1600
        assert dims["CKSAAGP"] == 100
        assert dims["Binary"] == 500
        assert dims["BLOSUM62"] == 500
        assert dims["DDE"] == 400
        assert dims["PAAC"] == 21
        assert dims["APAAC"] == 22
        assert dims["Zscale"] == 125

    def test_sum_matches_table_oracle(self):
        # oracle: summation of the per-descriptor dimension table
        dims = descriptor_dims()
        assert sum(dims.values()) == sum(dims[d] for d in DESCRIPTOR_IDS) == 12984

    def test_every_encoding_has_declared_dimension(self):
        dims = descriptor_dims()
        for did in DESCRIPTOR_IDS:
            for seq in ("ACD", "ACDEFGHIKLMNPQRSTVWY", random_seq()):
                assert encode(did, seq).shape == (dims[did],)

    def test_column_names_cover_every_column(self):
        names = column_names(DESCRIPTOR_IDS)
        assert len(names) == sum(descriptor_dims().values())
        assert len(set(names)) == len(names)


class TestSpotValues:
    def test_aac_homopolymer(self):
        v = encode("AAC", "AAAA")
        assert v[0] == 1.0 and v[1:].sum() == 0.0

    def test_dpc_dipeptide(self):
        v = encode("DPC", "AA")
        assert v[0] == 1.0 and v.sum() == pytest.approx(1.0)

    def test_gaac_positive_group(self):
        v = encode("GAAC", "KRH")
        assert v.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_binary_layout(self):
        v = encode("Binary", "AC").reshape(25, 20)
        assert v[0, 0] == 1.0 and v[0].sum() == 1.0
        assert v[1, 1] == 1.0
        assert v[2:].sum() == 0.0

    def test_blosum62_rows_match_bundled_table(self):
        table = _tables.matrix_table("blosum62.tsv")
        cols = list(next(iter(table.values())))
        v = encode("BLOSUM62", "WA").reshape(25, 20)
        assert v[0].tolist() == [table["W"][c] for c in cols]
        assert v[0][cols.index("W")] == 11.0
        assert v[1].tolist() == [table["A"][c] for c in cols]

    def test_zscale_first_position(self):
        z = _tables.vector_table("zscale.tsv")
        v = encode("Zscale", "AC").reshape(25, 5)
        assert v[0].tolist() == list(z["A"])
        assert v[2:].sum() == 0.0

    def test_dde_against_direct_formula(self):
        codons = _tables.scalar_table("codon_counts.tsv")
        seq = "ACDA"
        v = encode("DDE", seq)
        # dipeptide AC sits at index 0*20+1
        dc = 1 / 3
        tm = (codons["A"] / 61) * (codons["C"] / 61)
        tv = tm * (1 - tm) / 3
        assert v[1] == pytest.approx((dc - tm) / np.sqrt(tv), abs=1e-12)

    def test_ctdc_charge_property(self):
        # charge partition: group1 = KR, group3 = DE
        v = encode("CTDC", "KKDE")
        props = [p for p, _ in _tables.ctd_groups()]
        base = props.index("charge") * 3
        assert v[base + 0] == pytest.approx(0.5)  # K,K
        assert v[base + 1] == pytest.approx(0.0)
        assert v[base + 2] == pytest.approx(0.5)  # D,E

    def test_ctriad_dimension_and_normalization(self):
        v = encode("CTriad", "AGV")
        assert v.shape == (343,)
        assert v.max() <= 1.0

    def test_paac_reduces_to_composition_shape(self):
        v = encode("PAAC", "ACDE")
        assert v.shape == (21,)
        assert np.all(v[:20] >= 0)

    def test_cksaap_short_sequence_zero_blocks(self):
        # dipeptide has no pairs at gaps 1..3: those blocks stay zero
        v = encode("CKSAAP", "AC").reshape(4, 400)
        assert v[0].sum() == pytest.approx(1.0)
        assert v[1:].sum() == 0.0


class TestPreconditions:
    def test_tpc_needs_three(self):
        with pytest.raises(ValidationError, match="TPC"):
            encode("TPC", "AC")

    def test_ctriad_needs_three(self):
        with pytest.raises(ValidationError, match="CTriad"):
            encode("CTriad", "AC")

    def test_positional_needs_pad_len(self):
        long = "A" * 26
        for did in ("Binary", "BLOSUM62", "Zscale", "EAAC", "EGAAC"):
            with pytest.raises(ValidationError, match=did):
                encode(did, long)

    def test_pseudo_composition_needs_lambda_plus_one(self):
        with descriptor_settings(DEFAULT_SETTINGS._replace(lam=3)):
            for did in ("PAAC", "APAAC"):
                message = f"{did} requires length >= 4"
                with pytest.raises(ValidationError, match=message):
                    encode(did, "ACD")
                assert encode(did, "ACDE").shape == (descriptor_dims()[did],)

    def test_unknown_descriptor(self):
        with pytest.raises(ValidationError, match="unknown"):
            encode("NOPE", "ACD")


class TestProperties:
    def test_composition_descriptors_sum_to_one(self):
        for _ in range(200):
            seq = random_seq()
            for did in COMPOSITION_IDS:
                v = encode(did, seq)
                assert np.all(v >= 0)
                assert v.sum() == pytest.approx(1.0, abs=1e-12)

    def test_order_free_vs_order_sensitive(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            seq = random_seq(5, 20)
            perm = "".join(rng.permutation(list(seq)))
            assert np.array_equal(encode("AAC", seq), encode("AAC", perm))
            assert np.array_equal(encode("GAAC", seq), encode("GAAC", perm))
            if perm != seq:
                assert not np.array_equal(encode("Binary", seq), encode("Binary", perm))
                assert not np.array_equal(
                    encode("BLOSUM62", seq), encode("BLOSUM62", perm)
                )

    def test_pure_function(self):
        seq = random_seq()
        for did in DESCRIPTOR_IDS:
            assert np.array_equal(encode(did, seq), encode(did, seq))


class TestFeatureAssembly:
    def test_reference_combo_width(self):
        ids = ("BLOSUM62", "CTDD", "DPC", "AAC")
        m = encode_matrix(ids, [Peptide("ACDE"), Peptide("KLMN")])
        assert m.shape == (2, 1115)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicates"):
            encode_matrix(["AAC", "AAC"], [Peptide("ACDE")])

    def test_zscore_on_fit_rows(self):
        peps = [Peptide(random_seq(4, 10)) for _ in range(30)]
        raw = encode_matrix(("AAC", "GAAC"), peps)
        fit_block = FeatureScaler.fit(raw[:20]).transform(raw)[:20]
        live = fit_block.std(axis=0) > 0
        assert np.allclose(fit_block.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(fit_block[:, live].std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_becomes_zero(self):
        rows = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        scaler = FeatureScaler.fit(rows)
        out = scaler.transform(rows)
        assert np.all(out[:, 0] == 0.0)

    def test_transform_peptides_matches_training_rows(self):
        peps = [Peptide(random_seq(4, 10)) for _ in range(10)]
        raw = encode_matrix(("AAC", "CTDC"), peps)
        scaler = FeatureScaler.fit(raw)
        again = scaler.transform(encode_matrix(("AAC", "CTDC"), peps))
        assert np.allclose(scaler.transform(raw), again)

    def test_window_dims_follow_config(self):
        with descriptor_settings(DEFAULT_SETTINGS._replace(pad_len=20, window=4)):
            dims = descriptor_dims()
            assert dims["EAAC"] == (20 - 4 + 1) * 20
            assert dims["Binary"] == 400
            assert encode("EAAC", "ACDE").shape == (dims["EAAC"],)


@functools.cache
def registry_blocks() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    seqs = ["".join(rng.choice(list(AMINO_ACIDS), size=int(rng.integers(4, 26))))
            for _ in range(300)]
    return {did: encode_matrix([did], seqs) for did in DESCRIPTOR_IDS}


def assert_block_scalers_match_hstack(blocks):
    # a block of 2 or more columns scales to the same bits alone as inside
    # the hstack; a 1-column block would not (numpy sums a lone column
    # pairwise, a column of a wider matrix row by row)
    whole = np.hstack(blocks)
    fitted = FeatureScaler.fit(whole)
    parts = [FeatureScaler.fit(b) for b in blocks]
    assert np.concatenate([p.mean for p in parts]).tobytes() == fitted.mean.tobytes()
    assert np.concatenate([p.scale for p in parts]).tobytes() == fitted.scale.tobytes()
    scaled = np.hstack([p.transform(b) for p, b in zip(parts, blocks)])
    assert scaled.tobytes() == fitted.transform(whole).tobytes()


class TestBlockScalers:
    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.sampled_from(DESCRIPTOR_IDS), min_size=1, max_size=5, unique=True),
        rows=st.integers(2, 300),
    )
    def test_registry_blocks(self, ids, rows):
        assert_block_scalers_match_hstack([registry_blocks()[d][:rows] for d in ids])

    @settings(max_examples=100, deadline=None)
    @given(
        widths=st.lists(st.integers(2, 8), min_size=1, max_size=6),
        rows=st.integers(2, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_blocks(self, widths, rows, seed):
        rng = np.random.default_rng(seed)
        blocks = []
        for w in widths:
            block = rng.normal(rng.normal(0, 100), rng.uniform(0.01, 100), (rows, w))
            block[:, rng.integers(w)] = rng.normal()  # a constant column
            blocks.append(block)
        assert_block_scalers_match_hstack(blocks)
