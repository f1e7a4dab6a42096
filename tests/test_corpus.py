import numpy as np
import pytest

from peptaste.corpus import (
    CENSUS_COLUMNS,
    balance_and_split,
    dedup_greedy,
    ingest,
    length_filter,
    taste_census,
)
from peptaste.errors import ConfigError, DataError
from peptaste.sequences import Peptide, TasteLabel
from peptaste.textio import write_table


def make_corpus(items):
    return [(Peptide(s), TasteLabel.from_code(c)) for s, c in items]


def make_peptides(seqs):
    return [Peptide(s) for s in seqs]


def sequences(peptides):
    return [p.sequence for p in peptides]


class TestIngest:
    def test_merges_duplicate_sequences_by_present_or(self):
        records = [
            (Peptide("GR"), TasteLabel.from_code("xxx1x")),
            (Peptide("GR"), TasteLabel.from_code("xxxx1")),
            (Peptide("AD"), TasteLabel.from_code("x1xxx")),
        ]
        c = ingest(records)
        assert len(c) == 2
        assert c[0][1].code == "xxx11"

    def test_absent_beats_unknown_but_not_present(self):
        records = [
            (Peptide("GR"), TasteLabel.from_code("0xxx1")),
            (Peptide("GR"), TasteLabel.from_code("1xxx0")),
        ]
        c = ingest(records)
        assert c[0][1].code == "1xxx1"


class TestLengthFilter:
    def test_boundary(self):
        c = make_peptides(["A" * 14, "C" * 15])
        kept, removed = length_filter(c, 14)
        assert sequences(kept) == ["A" * 14]
        assert removed == 1

    def test_all_kept(self):
        c = make_peptides(["AC", "DE"])
        kept, removed = length_filter(c, 25)
        assert len(kept) == 2 and removed == 0

    def test_mixed_lengths(self):
        c = make_peptides(["AC", "A" * 14, "C" * 15, "D" * 25])
        kept, removed = length_filter(c, 14)
        assert sorted(len(s) for s in sequences(kept)) == [2, 14]
        assert removed == 2

    def test_bad_max_len(self):
        with pytest.raises(ConfigError):
            length_filter(make_peptides(["AC"]), 1)

    def test_empty_result_warns_not_errors(self):
        c = make_peptides(["A" * 10])
        with pytest.warns(UserWarning, match="removed every record"):
            kept, removed = length_filter(c, 5)
        assert len(kept) == 0 and removed == 1


class TestDedup:
    def test_exact_duplicates_collapse(self):
        c = [Peptide("ACDE"), Peptide("ACDE")]
        assert len(dedup_greedy(c, 0.9)) == 1

    def test_example_pair_both_kept(self):
        # similarity("AAAA", "AAAC") = 0.625 < 0.9
        c = [Peptide("AAAA"), Peptide("AAAC")]
        assert len(dedup_greedy(c, 0.9)) == 2

    def test_threshold_one_keeps_distinct(self):
        c = [Peptide("ACDE"), Peptide("ACDF"), Peptide("WWWW")]
        assert len(dedup_greedy(c, 1.0)) == 3

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        seqs = {
            "".join(rng.choice(list("ACDE"), size=rng.integers(3, 9)))
            for _ in range(30)
        }
        c = [Peptide(s) for s in sorted(seqs)]
        once = dedup_greedy(c, 0.8)
        twice = dedup_greedy(once, 0.8)
        assert sequences(once) == sequences(twice)

    def test_longest_first_priority(self):
        # near-identical pair: the longer survives the sweep
        c = [Peptide("ACDE"), Peptide("ACDEF")]
        kept = dedup_greedy(c, 0.7)
        assert sequences(kept) == ["ACDEF"]


class TestBalanceAndSplit:
    @staticmethod
    def unlabeled(n, prefix):
        peps = []
        aas = "ACDEFGHIKLMNPQRSTVWY"
        for i in range(n):
            # deterministic distinct sequences
            a, b, c = i % 20, (i // 20) % 20, (i // 400) % 20
            peps.append(Peptide(prefix + aas[a] + aas[b] + aas[c]))
        return peps

    def test_reference_arithmetic(self):
        pos = self.unlabeled(2821, "AC")
        neg = self.unlabeled(4880, "DE")
        split = balance_and_split(pos, neg, seed=0)
        assert len(split.train_pos) == 2538
        assert len(split.test_pos) == 283
        assert len(split.train_neg) == 2538
        assert len(split.test_neg) == 283

    def test_small_case(self):
        pos = self.unlabeled(10, "AC")
        neg = self.unlabeled(10, "DE")
        split = balance_and_split(pos, neg, seed=1)
        assert len(split.train_pos) == 9 and len(split.test_pos) == 1

    def test_deterministic(self):
        pos = self.unlabeled(50, "AC")
        neg = self.unlabeled(80, "DE")
        s1 = balance_and_split(pos, neg, seed=7)
        s2 = balance_and_split(pos, neg, seed=7)
        assert sequences(s1.train_pos) == sequences(s2.train_pos)
        assert sequences(s1.train_neg) == sequences(s2.train_neg)
        assert sequences(s1.test_neg) == sequences(s2.test_neg)

    def test_disjoint_and_complete(self):
        pos = self.unlabeled(37, "AC")
        neg = self.unlabeled(90, "DE")
        split = balance_and_split(pos, neg, seed=3)
        train = set(sequences(split.train_pos))
        test = set(sequences(split.test_pos))
        assert not (train & test)
        assert train | test == set(sequences(pos))
        assert len(split.train_neg) + len(split.test_neg) == 37

    def test_not_enough_negatives(self):
        pos = self.unlabeled(10, "AC")
        neg = self.unlabeled(5, "DE")
        with pytest.raises(DataError, match="downsample"):
            balance_and_split(pos, neg, seed=0)


class TestCensus:
    def test_counting_example(self):
        c = make_corpus([("ACDE", "1xxxx"), ("GRKW", "1xxx1")])
        census = taste_census(c)
        assert census.multiplicity == {1: 1, 2: 1}
        assert census.combinations == {("sour",): 1, ("sour", "umami"): 1}
        assert census.per_taste_totals["sour"] == 2
        assert census.per_taste_totals["umami"] == 1

    def test_saturated(self):
        c = make_corpus([(f"AC{aa}", "11111") for aa in "DEFGH"])
        census = taste_census(c)
        assert all(v == 5 for v in census.per_taste_totals.values())
        assert census.multiplicity == {5: 5}

    def test_multiplicity_sums_to_annotated_records(self):
        c = make_corpus(
            [("ACDE", "1xxxx"), ("GRKW", "11xxx"), ("MNPQ", "xxxxx"), ("WYVA", "x0x0x")]
        )
        census = taste_census(c)
        n_annotated = sum(
            1 for _, label in c if "1" in label.code
        )
        assert sum(census.multiplicity.values()) == n_annotated == 2

    def test_aa_frequencies(self):
        c = make_corpus([("AAAK", "1xxxx")])
        census = taste_census(c)
        assert census.per_taste_aa_freq["sour"]["A"] == pytest.approx(0.75)
        assert census.per_taste_aa_freq["sour"]["K"] == pytest.approx(0.25)
        assert census.per_taste_aa_freq["sweet"]["A"] == 0.0

    def test_tsv_emission(self, capsys):
        c = make_corpus([("ACDE", "1xxxx")])
        write_table(None, CENSUS_COLUMNS, taste_census(c).rows())
        text = capsys.readouterr().out
        assert text.startswith("section\tkey\tvalue")
        assert "multiplicity\t1\t1" in text
