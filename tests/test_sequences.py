import collections
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peptaste
from peptaste.errors import ConfigError, ParseError, ValidationError
from peptaste.sequences import (
    AA_TO_INDEX,
    AMINO_ACIDS,
    NUM_CHANNELS,
    PAD_CHANNEL,
    Assignment,
    PatternMode,
    Peptide,
    TasteLabel,
    TastePattern,
    assign_record,
    check_residues,
    decode_argmax,
    encode_batch,
    format_pattern,
    parse_pattern,
    parse_taste_fasta,
    parse_taste_tsv,
    residue_codes,
    residue_counts,
)

peptide_strategy = st.text(alphabet=AMINO_ACIDS, min_size=2, max_size=14)


def ref_one_hot(peptide: Peptide, max_len: int) -> np.ndarray:
    """Reference: the per-character (max_len, 21) one-hot loop that
    encode_batch replaced; channel 20 pads the suffix."""
    if len(peptide) > max_len:
        raise ValidationError(
            f"sequence {peptide.sequence!r} has length {len(peptide)}, "
            f"exceeding max_len {max_len}"
        )
    mat = np.zeros((max_len, NUM_CHANNELS), dtype=np.float64)
    for i, aa in enumerate(peptide.sequence):
        mat[i, AA_TO_INDEX[aa]] = 1.0
    mat[len(peptide):, PAD_CHANNEL] = 1.0
    return mat


class TestPeptide:
    def test_valid(self):
        assert Peptide("GR").sequence == "GR"
        assert len(Peptide("ACDEF")) == 5

    def test_invalid_residue_named(self):
        with pytest.raises(ValidationError, match="'B'"):
            Peptide("AB")

    def test_lowercase_rejected(self):
        with pytest.raises(ValidationError):
            Peptide("ac")

    def test_too_short(self):
        with pytest.raises(ValidationError, match="minimum"):
            Peptide("A")


class TestFastaParsing:
    def test_examples(self):
        records = parse_taste_fasta(">xxx11\nGR\n>x1xxx\nAD\n")
        assert [(p.sequence, l.code) for p, l in records] == [
            ("GR", "xxx11"),
            ("AD", "x1xxx"),
        ]
        assert records[0][1].present_tastes() == ("salty", "umami")
        assert records[1][1].present_tastes() == ("sweet",)

    def test_wrapped_body(self):
        records = parse_taste_fasta(">11111\nAC\nDE\n")
        assert records[0][0].sequence == "ACDE"

    def test_short_sequence_rejected(self):
        with pytest.raises(ValidationError):
            parse_taste_fasta(">11111\nA\n")

    def test_bad_header_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_taste_fasta(">xxx11\nGR\n>xx11\nAC\n")

    def test_bad_alphabet_header(self):
        with pytest.raises(ParseError):
            parse_taste_fasta(">xx2xx\nGR\n")

    def test_body_before_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_taste_fasta("GR\n>xxx11\nAC\n")


class TestTsvParsing:
    def test_round_trip(self):
        text = "GR\txxx11\n# comment\nAD\tx1xxx\n"
        records = parse_taste_tsv(text)
        assert [(pep.sequence, label.code) for pep, label in records] == [
            ("GR", "xxx11"),
            ("AD", "x1xxx"),
        ]

    def test_bad_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_taste_tsv("GR\txxx11\nnot-a-record\n")


class TestPattern:
    def test_example(self):
        pat = parse_pattern(">x1x00")
        assert pat.desired == {1}
        assert pat.avoided == {3, 4}
        assert pat.avoidance_mode

    def test_all_desired(self):
        pat = parse_pattern(">11111")
        assert pat.desired == {0, 1, 2, 3, 4}
        assert not pat.avoidance_mode

    def test_requests_nothing(self):
        with pytest.raises(ConfigError, match="requests nothing"):
            parse_pattern(">xxxxx")

    def test_missing_prefix(self):
        with pytest.raises(ConfigError):
            parse_pattern("x1x00")

    def test_bad_alphabet(self):
        with pytest.raises(ConfigError):
            parse_pattern(">x1x0y")

    def test_round_trip_all_valid_codes(self):
        for combo in itertools.product("01x", repeat=5):
            code = "".join(combo)
            if "1" not in code:
                continue
            assert format_pattern(parse_pattern(">" + code)) == ">" + code


class TestAssignRecord:
    def test_avoided_present_is_negative(self):
        label = TasteLabel.from_code("x1x1x")
        pat = parse_pattern(">x1x00")
        for mode in PatternMode:
            assert assign_record(label, pat, mode) is Assignment.NEGATIVE

    def test_single_mode_exact_match(self):
        label = TasteLabel.from_code("01001")
        pat = parse_pattern(">x1xx1")
        assert assign_record(label, pat, PatternMode.SINGLE) is Assignment.POSITIVE

    def test_subset_positive_only_in_multiple_mode(self):
        label = TasteLabel.from_code("x1xxx")
        pat = parse_pattern(">x1xx1")
        assert assign_record(label, pat, PatternMode.MULTIPLE) is Assignment.POSITIVE
        assert assign_record(label, pat, PatternMode.SINGLE) is Assignment.EXCLUDED

    def test_no_present_tastes_excluded(self):
        label = TasteLabel.from_code("xx0xx")
        pat = parse_pattern(">11111")
        assert assign_record(label, pat, PatternMode.MULTIPLE) is Assignment.EXCLUDED

    def test_never_positive_with_avoided_present_exhaustive(self):
        # all 3^5 labels against all valid patterns, both modes
        labels = ["".join(c) for c in itertools.product("01x", repeat=5)]
        patterns = [p for p in labels if "1" in p]
        for lcode in labels:
            label = TasteLabel.from_code(lcode)
            present = {i for i, ch in enumerate(lcode) if ch == "1"}
            for pcode in patterns:
                pat = TastePattern(tuple(pcode))
                hit = present & pat.avoided
                for mode in PatternMode:
                    got = assign_record(label, pat, mode)
                    if hit:
                        assert got is Assignment.NEGATIVE
                    else:
                        assert got is not Assignment.NEGATIVE


class TestOneHot:
    def test_encode_example(self):
        mat = encode_batch([Peptide("AC")], 4)[0]
        assert mat.shape == (4, 21)
        assert mat[0, 0] == 1.0 and mat[1, 1] == 1.0
        assert mat[2, PAD_CHANNEL] == 1.0 and mat[3, PAD_CHANNEL] == 1.0
        assert np.all(mat.sum(axis=1) == 1.0)

    def test_too_long(self):
        with pytest.raises(ValidationError, match="max_len"):
            encode_batch([Peptide("AC"), Peptide("ACDEF")], 4)

    def test_empty_batch(self):
        assert encode_batch([], 8).shape == (0, 8, 21)

    def test_decode_all_pad_errors(self):
        mat = np.zeros((3, 21))
        mat[:, PAD_CHANNEL] = 1.0
        with pytest.raises(ValidationError, match="empty"):
            decode_argmax(mat)

    @settings(max_examples=200, deadline=None)
    @given(peptide_strategy)
    def test_round_trip(self, seq):
        p = Peptide(seq)
        assert decode_argmax(encode_batch([p], 14)[0]).sequence == seq

    def test_decode_matches_row_scan_oracle(self):
        # independent oracle: explicit per-row maximum scan with low-index ties
        rng = np.random.default_rng(5)
        for _ in range(100):
            mat = rng.random((8, 21))
            expect = []
            for row in mat:
                best, best_j = -1.0, 0
                for j, v in enumerate(row):
                    if v > best:
                        best, best_j = v, j
                if best_j == PAD_CHANNEL:
                    break
                expect.append(AMINO_ACIDS[best_j])
            expected = "".join(expect)
            if len(expected) < 2:
                with pytest.raises(ValidationError):
                    decode_argmax(mat)
            else:
                assert decode_argmax(mat).sequence == expected

    def test_decode_tie_breaks_low_index(self):
        mat = np.zeros((2, 21))
        mat[:, 3] = 1.0
        mat[:, 7] = 1.0  # tie: channel 3 must win
        assert decode_argmax(mat).sequence == AMINO_ACIDS[3] * 2


residue_seqs = st.lists(st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=30), max_size=12)


class TestResidueCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(alphabet=AMINO_ACIDS, min_size=2, max_size=30), max_size=12),
           st.integers(0, 5))
    def test_encode_batch_matches_reference(self, seqs, extra):
        peptides = [Peptide(s) for s in seqs]
        max_len = max(map(len, seqs), default=2) + extra
        got = encode_batch(peptides, max_len)
        assert got.shape == (len(seqs), max_len, NUM_CHANNELS)
        for row, p in zip(got, peptides):
            np.testing.assert_array_equal(row, ref_one_hot(p, max_len))

    @settings(max_examples=200, deadline=None)
    @given(residue_seqs)
    def test_codes_and_counts_match_per_character_lookup(self, seqs):
        codes = residue_codes(seqs)
        width = max(map(len, seqs), default=0)
        assert codes.shape == (len(seqs), width) and codes.dtype == np.uint8
        for row, seq in zip(codes.tolist(), seqs):
            assert row == [AA_TO_INDEX[aa] for aa in seq] + [PAD_CHANNEL] * (width - len(seq))
        counts = residue_counts(codes)
        assert counts.shape == (len(seqs), len(AMINO_ACIDS))
        for row, seq in zip(counts.tolist(), seqs):
            tally = collections.Counter(seq)
            assert row == [tally[aa] for aa in AMINO_ACIDS]

    def test_width_pads_and_bounds_rows(self):
        assert residue_codes(["AC"], 4).tolist() == [[0, 1, PAD_CHANNEL, PAD_CHANNEL]]
        with pytest.raises(ValidationError, match="'ACDEF' has length 5, exceeding max_len 4"):
            residue_codes(["AC", "ACDEF", "ACDEFG"], 4)

    @pytest.mark.parametrize("seq, bad", [("AÉ", "É"), ("acde", "a"), ("AC-D", "-"),
                                          ("ACBXZ", "B"), ("A C", " ")])
    def test_bad_residue_names_first_character(self, seq, bad):
        message = f"invalid residue {bad!r} in sequence {seq!r}"
        for call in (check_residues, lambda s: residue_codes(["AC", s]), Peptide):
            with pytest.raises(ValidationError) as exc:
                call(seq)
            assert str(exc.value) == message

    def test_codec_lives_in_sequences_only(self):
        # residues become codes in one module; another translate table would
        # be a second copy of the alphabet rule
        package = Path(peptaste.__file__).parent
        others = [
            path.relative_to(package).as_posix()
            for path in sorted(package.rglob("*.py"))
            if path.name != "sequences.py" and "maketrans" in path.read_text("utf-8")
        ]
        assert others == []
