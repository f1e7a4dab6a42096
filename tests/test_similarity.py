import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peptaste.corpus import dedup_greedy
from peptaste.errors import ConfigError
from peptaste.sequences import Peptide
from peptaste.similarity import (
    DEFAULT_PARAMS,
    AlignParams,
    Scorer,
    build_components,
    normalized_similarity,
    nw_align,
    nw_score_block,
    pick_representatives,
    self_score,
    similarity_matrix,
)
from conftest import align_params


def enumerate_alignment_score(a: str, b: str, params=DEFAULT_PARAMS) -> float:
    """Oracle: exhaustive recursion over all global alignments.

    State tracks whether the previous column was a gap in the same
    direction, so affine costs (open for the first gap symbol, extend for
    each further one) are charged exactly.
    """
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(i, j, state):  # state: 0 = match/none, 1 = gap-in-b run, 2 = gap-in-a run
        if i == len(a) and j == len(b):
            return 0.0
        options = []
        if i < len(a) and j < len(b):
            sub = params.match if a[i] == b[j] else params.mismatch
            options.append(sub + best(i + 1, j + 1, 0))
        if i < len(a):
            cost = params.gap_extend if state == 1 else params.gap_open
            options.append(cost + best(i + 1, j, 1))
        if j < len(b):
            cost = params.gap_extend if state == 2 else params.gap_open
            options.append(cost + best(i, j + 1, 2))
        return max(options)

    return best(0, 0, 0)


def components_from_matrix(sim, threshold):
    """Reference: union-find over every pair of the full matrix at or above
    the threshold, clusters ordered by smallest member, members ascending."""
    parent = list(range(sim.shape[0]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(parent)):
        for j in range(i + 1, len(parent)):
            if sim[i, j] >= threshold:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(parent)):
        groups.setdefault(find(i), []).append(i)
    return sorted((sorted(m) for m in groups.values()), key=lambda c: c[0])


def representatives_from_matrix(clusters, sim):
    """Reference: per cluster, the member of maximal mean similarity in the
    full matrix's block; singletons represent themselves."""
    reps = []
    for members in clusters:
        if len(members) == 1:
            reps.append(members[0])
            continue
        idx = np.array(members)
        block = sim[np.ix_(idx, idx)]
        means = (block.sum(axis=1) - np.diag(block)) / (len(members) - 1)
        reps.append(members[int(np.argmax(means))])
    return reps


def matrix_scores(sim):
    """A similarity matrix as the scores build_components returns."""
    n = sim.shape[0]
    return {(i, j): sim[i, j] for i in range(n) for j in range(i + 1, n)}


class TestAlignment:
    def test_identity(self):
        assert nw_align("AAA", "AAA").score == 6.0

    def test_mismatch_vs_gap(self):
        assert nw_align("AC", "AG").score == 1.0

    def test_single_gap(self):
        result = nw_align("AA", "A")
        assert result.score == 1.5
        assert result.aligned_a == "AA"
        assert result.aligned_b in ("A-", "-A")

    def test_alignment_strings_consistent(self):
        result = nw_align("ACDEF", "ADF")
        assert result.aligned_a.replace("-", "") == "ACDEF"
        assert result.aligned_b.replace("-", "") == "ADF"
        assert len(result.aligned_a) == len(result.aligned_b)

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = "".join(rng.choice(list("ACDEFG"), size=rng.integers(1, 8)))
            b = "".join(rng.choice(list("ACDEFG"), size=rng.integers(1, 8)))
            assert nw_align(a, b).score == pytest.approx(nw_align(b, a).score)

    def test_block_matches_full_dp(self):
        rng = np.random.default_rng(1)
        seqs = [
            "".join(rng.choice(list("ACDEFGHIK"), size=rng.integers(1, 12)))
            for _ in range(25)
        ]
        query = seqs[0]
        block = nw_score_block(query, seqs[1:])
        for ref, got in zip(seqs[1:], block):
            assert got == pytest.approx(nw_align(query, ref).score, abs=1e-9)

    def test_block_matches_full_dp_at_production_lengths(self):
        # the vectorized scorer drives dedup on 25-mers; check that regime
        rng = np.random.default_rng(2)
        refs = [
            "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=rng.integers(2, 26)))
            for _ in range(15)
        ]
        for _ in range(5):
            query = "".join(
                rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=rng.integers(2, 26))
            )
            block = nw_score_block(query, refs)
            for ref, got in zip(refs, block):
                assert got == pytest.approx(nw_align(query, ref).score, abs=1e-9)

    def test_dp_equals_enumeration_small(self):
        # spot sample here; the exhaustive cross-product runs in acceptance
        alphabet = "ACD"
        seqs = ["A", "C", "AC", "CA", "ACD", "DCA", "ACDA"]
        for a, b in itertools.product(seqs, repeat=2):
            assert nw_align(a, b).score == pytest.approx(
                enumerate_alignment_score(a, b), abs=1e-12
            )

    def test_traceback_rescores_to_reported_value(self):
        # oracle: walk the aligned columns charging match/mismatch scores and
        # affine gap costs (open for a run's first gap, extend after)
        def rescore(aligned_a, aligned_b, params=DEFAULT_PARAMS):
            total = 0.0
            prev_gap = None  # "a" or "b" marks which side held the last gap
            for x, y in zip(aligned_a, aligned_b):
                if x == "-":
                    total += params.gap_extend if prev_gap == "a" else params.gap_open
                    prev_gap = "a"
                elif y == "-":
                    total += params.gap_extend if prev_gap == "b" else params.gap_open
                    prev_gap = "b"
                else:
                    total += params.match if x == y else params.mismatch
                    prev_gap = None
            return total

        rng = np.random.default_rng(7)
        for _ in range(200):
            a = "".join(rng.choice(list("ACDEF"), size=rng.integers(1, 10)))
            b = "".join(rng.choice(list("ACDEF"), size=rng.integers(1, 10)))
            result = nw_align(a, b)
            assert rescore(result.aligned_a, result.aligned_b) == pytest.approx(
                result.score, abs=1e-9
            )

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            AlignParams(match=-1.0)
        with pytest.raises(ConfigError):
            AlignParams(gap_open=-0.1, gap_extend=-0.5)
        for field in ("match", "mismatch", "gap_open", "gap_extend"):
            for value in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ConfigError, match=f"{field} must be finite"):
                    AlignParams(**{field: value})


class TestNormalizedSimilarity:
    def test_identical(self):
        assert normalized_similarity("ACDE", "ACDE") == 1.0

    def test_example_value(self):
        assert normalized_similarity("AAAA", "AAAC") == pytest.approx(0.625)

    def test_clamped_at_zero(self):
        # fully mismatching equal-length triple: raw score -3 -> clamp
        assert normalized_similarity("AAA", "CCC") == 0.0

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = "".join(rng.choice(list("ACDEFGHIK"), size=rng.integers(2, 10)))
            b = "".join(rng.choice(list("ACDEFGHIK"), size=rng.integers(2, 10)))
            s = normalized_similarity(a, b)
            assert 0.0 <= s <= 1.0


class TestClustering:
    def test_identical_pair_connects(self):
        clusters, _ = build_components(["ACDE", "ACDE", "WWWW"], threshold=0.9)
        assert clusters == [[0, 1], [2]]

    def test_threshold_one_gives_singletons(self):
        seqs = ["ACDE", "ACDF", "WWWW"]
        clusters, _ = build_components(seqs, threshold=1.0)
        assert clusters == [[0], [1], [2]]

    def test_components_match_union_find_oracle(self):
        rng = np.random.default_rng(3)
        seqs = [
            "".join(rng.choice(list("ACD"), size=rng.integers(3, 7)))
            for _ in range(20)
        ]
        threshold = 0.6
        clusters, _ = build_components(seqs, threshold=threshold)
        assert clusters == components_from_matrix(similarity_matrix(seqs), threshold)

    def test_monotone_refinement(self):
        rng = np.random.default_rng(4)
        seqs = [
            "".join(rng.choice(list("ACD"), size=rng.integers(3, 7)))
            for _ in range(15)
        ]
        low, _ = build_components(seqs, threshold=0.5)
        high, _ = build_components(seqs, threshold=0.8)
        # every high-threshold cluster sits inside one low-threshold cluster
        low_of = {}
        for ci, members in enumerate(low):
            for m in members:
                low_of[m] = ci
        for members in high:
            assert len({low_of[m] for m in members}) == 1


class TestRepresentatives:
    # complete scores, so the sequences are never aligned
    def test_singleton(self):
        sim = np.eye(1)
        assert pick_representatives([[0]], ["A"], matrix_scores(sim)) == [0]

    def test_center_wins(self):
        sim = np.array(
            [
                [1.0, 0.9, 0.9],
                [0.9, 1.0, 0.7],
                [0.9, 0.7, 1.0],
            ]
        )
        assert pick_representatives([[0, 1, 2]], ["A"] * 3, matrix_scores(sim)) == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        n = 12
        sim = rng.random((n, n))
        sim = (sim + sim.T) / 2
        np.fill_diagonal(sim, 1.0)
        clusters = [[0, 1, 2, 3], [4, 5], [6], [7, 8, 9, 10, 11]]
        reps = pick_representatives(clusters, ["A"] * n, matrix_scores(sim))
        for members, rep in zip(clusters, reps):
            if len(members) == 1:
                assert rep == members[0]
                continue
            means = []
            for m in members:
                others = [x for x in members if x != m]
                means.append(np.mean([sim[m, o] for o in others]))
            assert rep == members[int(np.argmax(means))]


# sequences over a small alphabet, so that many pairs are similar
small_seqs = st.lists(st.text("ACDK", min_size=2, max_size=10), min_size=1, max_size=14)


def full_sweep_dedup(corpus, threshold, params=DEFAULT_PARAMS):
    """Oracle: the longest-first sweep aligning each peptide with every kept one."""
    seqs = [p.sequence for p in corpus]
    order = sorted(range(len(seqs)), key=lambda i: (-len(seqs[i]), seqs[i], i))
    kept = []
    for i in order:
        seq = seqs[i]
        others = [seqs[j] for j in kept]
        if others:
            raw = nw_score_block(seq, others, params)
            denom = np.maximum(self_score(seq, params), [self_score(o, params) for o in others])
            if np.any(np.maximum(raw / denom, 0.0) >= threshold):
                continue
        kept.append(i)
    return [seqs[i] for i in sorted(kept)]


class TestBoundPruning:
    @settings(max_examples=300, deadline=None)
    @given(st.text("ACDKW", min_size=1, max_size=12),
           st.text("ACDKW", min_size=1, max_size=12), align_params())
    def test_bound_keeps_every_pair_at_its_own_similarity(self, a, b, params):
        # the score bound never falls below the score: at a threshold equal
        # to the pair's similarity, the pair is always aligned
        sim = normalized_similarity(a, b, params)
        if sim > 0:
            for pair in ([a, b], [b, a]):
                near_i, near_j = Scorer(pair, params).near_pairs(sim)
                assert (near_i.tolist(), near_j.tolist()) == ([0], [1])

    @settings(max_examples=150, deadline=None)
    @given(small_seqs, st.floats(0.3, 1.0))
    def test_pruned_graph_matches_full_matrix(self, seqs, threshold):
        full = similarity_matrix(seqs)
        clusters, scores = build_components(seqs, threshold=threshold)
        assert clusters == components_from_matrix(full, threshold)
        # every aligned similarity equals the matrix's, bit for bit
        assert all(s == full[i, j] for (i, j), s in scores.items())
        expected = representatives_from_matrix(clusters, full)
        assert pick_representatives(clusters, seqs, scores) == expected
        assert pick_representatives(clusters, seqs, {}) == expected
        for members in clusters:
            block = similarity_matrix([seqs[m] for m in members])
            assert np.array_equal(block, full[np.ix_(members, members)])

    @settings(max_examples=150, deadline=None)
    @given(small_seqs, st.floats(0.3, 1.0))
    def test_pruned_dedup_matches_full_sweep(self, seqs, threshold):
        corpus = [Peptide(s) for s in seqs]
        kept = dedup_greedy(corpus, threshold)
        assert [p.sequence for p in kept] == full_sweep_dedup(corpus, threshold)

    def test_pruning_skips_dissimilar_pairs(self, monkeypatch):
        import peptaste.similarity as sim_mod

        aligned = []
        original = sim_mod.Scorer._scores

        def counting(scorer, queries, refs):
            aligned.append(len(refs))
            return original(scorer, queries, refs)

        monkeypatch.setattr(sim_mod.Scorer, "_scores", counting)
        seqs = ["ACDEFGHIK", "ACDEFGHIR", "WWWWWWW", "PPPPPPP", "YYYYMMMM"]
        clusters, scores = build_components(seqs, threshold=0.7)
        assert clusters == [[0, 1], [2], [3], [4]]
        assert sum(aligned) == 1  # only the one pair sharing residues
        assert list(scores) == [(0, 1)]

    def test_representatives_align_only_pairs_the_graph_skipped(self, monkeypatch):
        import peptaste.similarity as sim_mod

        aligned = []
        original = sim_mod.Scorer._scores

        def counting(scorer, queries, refs):
            # the scorer's rows are seqs, in order
            aligned.extend((seqs[i], seqs[j]) for i, j in zip(queries, refs))
            return original(scorer, queries, refs)

        monkeypatch.setattr(sim_mod.Scorer, "_scores", counting)
        # a chain: b is three substitutions from a, c three more from b, so
        # a and c join one cluster through b, but their bound (14 shared
        # residues of 20) cannot reach 0.75 and the graph never aligns them
        a = "ACDEFGHIKLMNPQRSTVWY"
        b = "WWW" + a[3:]
        c = "WWWYYY" + a[6:]
        seqs = [a, b, c, "PPPPPPPP", "KKKKKKKK"]
        clusters, scores = build_components(seqs, threshold=0.75)
        assert clusters == [[0, 1, 2], [3], [4]]
        assert (0, 2) not in scores and {(0, 1), (1, 2)} <= set(scores)
        del aligned[:]
        reps = pick_representatives(clusters, seqs, scores)
        assert aligned == [(a, c)]
        assert reps == representatives_from_matrix(clusters, similarity_matrix(seqs))

    def test_each_sequence_is_checked_once(self, monkeypatch):
        import peptaste.sequences as seq_mod

        seqs = ["ACDEFGHIK", "ACDEFGHIR", "ACDEFGHKK", "WWWWWWW", "WWWWWWY", "PPPP"]
        corpus = [Peptide(s) for s in seqs]
        checked = []
        original = seq_mod.check_residues

        def counting(seq):
            checked.append(seq)
            return original(seq)

        monkeypatch.setattr(seq_mod, "check_residues", counting)
        clusters, _ = build_components(seqs, threshold=0.7)
        assert clusters == [[0, 1, 2], [3, 4], [5]]
        assert sorted(checked) == sorted(seqs)
        del checked[:]
        kept = dedup_greedy(corpus, 0.75)
        assert [p.sequence for p in kept] == ["ACDEFGHIK", "WWWWWWW", "PPPP"]
        assert sorted(checked) == sorted(seqs)
