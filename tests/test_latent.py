import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from peptaste.errors import DataError
from peptaste.latent import (
    knn_mean_dist,
    mann_whitney_exact_less,
    pca2,
    select_avoidance,
    select_standard,
)


class TestPca2:
    def test_two_dim_centered_identity_up_to_sign(self):
        # sign-symmetric points make the sample covariance exactly diagonal,
        # so the principal axes are the coordinate axes themselves
        base = np.array([[3.0, 1.0], [2.0, 0.5], [1.0, 0.25]])
        pts = np.vstack([base * [sx, sy] for sx in (1, -1) for sy in (1, -1)])
        space = pca2(pts)
        proj = space.project(pts)
        assert np.allclose(np.abs(proj), np.abs(pts), atol=1e-12)
        assert np.allclose(np.abs(space.axes), np.eye(2), atol=1e-12)

    def test_variance_ordering_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = rng.normal(size=(30, 6))
            space = pca2(pts)
            assert space.variances[0] >= space.variances[1] >= 0
            gram = space.axes @ space.axes.T
            assert np.allclose(gram, np.eye(2), atol=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            space = pca2(rng.normal(size=(25, 5)))
            for row in space.axes:
                assert row[np.argmax(np.abs(row))] > 0

    def test_projection_never_beaten_by_random_pairs(self):
        # oracle: no random orthonormal pair reconstructs better than the
        # principal pair (pca minimizes reconstruction error)
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 10)) * np.linspace(3, 0.3, 10)
        space = pca2(pts)
        centered = pts - pts.mean(axis=0)
        proj = (centered @ space.axes.T) @ space.axes
        pca_error = ((centered - proj) ** 2).sum()
        for _ in range(10_000):
            m = rng.normal(size=(10, 2))
            q, _ = np.linalg.qr(m)
            axes = q.T
            rec = (centered @ axes.T) @ axes
            err = ((centered - rec) ** 2).sum()
            assert err >= pca_error - 1e-9

    def test_rank_deficient_flagged(self):
        pts = np.zeros((5, 3))
        pts[:, 0] = np.arange(5.0)
        space = pca2(pts)
        assert space.rank_deficient
        assert space.variances[1] == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DataError):
            pca2(np.zeros((2, 3)))


class TestKnn:
    def test_zero_distance(self):
        ref = np.array([[1.0, 2.0], [5.0, 5.0]])
        assert knn_mean_dist(np.array([1.0, 2.0]), ref, 1) == 0.0

    def test_line_example(self):
        ref = np.array([[0.0], [3.0], [4.0]])
        assert knn_mean_dist(np.array([0.0]), ref, 2) == pytest.approx(1.5)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            ref = rng.normal(size=(20, 2))
            q = rng.normal(size=2)
            k = int(rng.integers(1, 8))
            got = knn_mean_dist(q, ref, k)
            dists = sorted(np.linalg.norm(ref - q, axis=1))
            assert got == pytest.approx(float(np.mean(dists[:k])), abs=1e-12)

    def test_reference_too_small(self):
        with pytest.raises(DataError):
            knn_mean_dist(np.zeros(2), np.zeros((3, 2)), 4)


class TestMannWhitney:
    def test_fully_separated_five_v_five(self):
        p = mann_whitney_exact_less([1, 2, 3, 4, 5], [10, 11, 12, 13, 14])
        assert p == pytest.approx(1 / 252, abs=1e-12)

    def test_reversed_is_near_one(self):
        p = mann_whitney_exact_less([10, 11, 12, 13, 14], [1, 2, 3, 4, 5])
        assert p == pytest.approx(1.0)

    def test_matches_scipy_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            x = rng.normal(size=5)
            y = rng.normal(loc=rng.uniform(-1, 1), size=5)
            ours = mann_whitney_exact_less(x, y)
            ref = scipy.stats.mannwhitneyu(x, y, alternative="less", method="exact")
            assert ours == pytest.approx(ref.pvalue, abs=1e-12)

    def test_tied_symmetric_configuration(self):
        # identical samples: the statistic hits its central value, p well
        # above any reasonable alpha
        p = mann_whitney_exact_less([1.0, 2.0], [1.0, 2.0])
        assert p > 0.5

    @pytest.mark.parametrize("size", [12, 20])
    def test_large_samples_match_scipy_exact(self, size):
        # C(40, 20) relabelings: counted, not enumerated, with no size limit
        rng = np.random.default_rng(size)
        for shift in (-1.0, 0.0, 0.7):
            x = rng.normal(size=size)
            y = rng.normal(loc=shift, size=size)
            ours = mann_whitney_exact_less(x, y)
            ref = scipy.stats.mannwhitneyu(x, y, alternative="less", method="exact")
            assert ours == pytest.approx(ref.pvalue, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=6),
        st.lists(st.integers(0, 5), min_size=1, max_size=6),
    )
    def test_counting_equals_enumeration_with_ties(self, x, y):
        assert mann_whitney_exact_less(x, y) == enumerated_p_value(x, y)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            mann_whitney_exact_less([1.0, np.nan], [2.0, 3.0])


def enumerated_p_value(x, y) -> float:
    """Oracle: the statistic of every one of the C(n+m, n) relabelings."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = len(x)

    def statistic(a, b):
        diff = a[:, None] - b[None, :]
        return float((diff < 0).sum() + 0.5 * (diff == 0).sum())

    observed = statistic(x, y)
    pooled = np.concatenate([x, y])
    total = at_least = 0
    for combo in itertools.combinations(range(len(pooled)), n):
        mask = np.zeros(len(pooled), dtype=bool)
        mask[list(combo)] = True
        total += 1
        at_least += statistic(pooled[mask], pooled[~mask]) >= observed - 1e-12
    return at_least / total


def brute_force_standard(cands, training, keep_fraction, k):
    dists = []
    for c in cands:
        ds = sorted(np.linalg.norm(training - c, axis=1))
        dists.append(float(np.mean(ds[:k])))
    order = sorted(range(len(cands)), key=lambda i: (dists[i], i))
    return order[: math.ceil(keep_fraction * len(cands))]


class TestSelectStandard:
    def test_keep_count_example(self):
        rng = np.random.default_rng(6)
        cands = rng.normal(size=(8, 2))
        training = rng.normal(size=(10, 2))
        kept, _ = select_standard(cands, training, keep_fraction=0.25, k=5)
        assert len(kept) == 2

    def test_training_point_always_kept(self):
        training = np.array([[0.0, 0.0], [4.0, 4.0], [8.0, 0.0], [1.0, 7.0], [5.0, 1.0]])
        cands = np.vstack([[50.0, 50.0], training[2], [30.0, -20.0], [-40.0, 10.0]])
        kept, _ = select_standard(cands, training, keep_fraction=0.25, k=3)
        assert kept == [1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(4, 20))
            cands = rng.normal(size=(n, 3))
            training = rng.normal(size=(int(rng.integers(6, 15)), 3))
            frac = float(rng.choice([0.25, 0.5, 1.0]))
            kept, _ = select_standard(cands, training, keep_fraction=frac, k=5)
            assert kept == brute_force_standard(cands, training, frac, 5)

    def test_full_fraction_keeps_all_and_prefix_property(self):
        rng = np.random.default_rng(8)
        cands = rng.normal(size=(9, 2))
        training = rng.normal(size=(12, 2))
        full, _ = select_standard(cands, training, keep_fraction=1.0, k=4)
        assert sorted(full) == list(range(9))
        part, _ = select_standard(cands, training, keep_fraction=0.5, k=4)
        assert part == full[: len(part)]

    def test_empty_candidates(self):
        with pytest.raises(DataError):
            select_standard(np.zeros((0, 2)), np.zeros((5, 2)))


def brute_force_avoidance(cands, pos, neg, k, alpha):
    accepted = []
    deltas = {}
    for i, c in enumerate(cands):
        dp = sorted(np.linalg.norm(pos - c, axis=1))[:k]
        dn = sorted(np.linalg.norm(neg - c, axis=1))[:k]
        # exact permutation probability by direct enumeration
        pooled = np.array(dp + dn)
        stat = sum(
            1.0 if a < b else (0.5 if a == b else 0.0)
            for a in dp
            for b in dn
        )
        total, count = 0, 0
        for combo in itertools.combinations(range(2 * k), k):
            mask = np.zeros(2 * k, dtype=bool)
            mask[list(combo)] = True
            s = sum(
                1.0 if a < b else (0.5 if a == b else 0.0)
                for a in pooled[mask]
                for b in pooled[~mask]
            )
            total += 1
            if s >= stat - 1e-12:
                count += 1
        p = count / total
        if np.mean(dp) < np.mean(dn) and p < alpha:
            accepted.append(i)
            deltas[i] = float(np.mean(dp) - np.mean(dn))
    return sorted(accepted, key=lambda i: (deltas[i], i))


class TestSelectAvoidance:
    def test_positive_cluster_centroid_accepted(self):
        rng = np.random.default_rng(9)
        pos = rng.normal(size=(20, 2)) * 0.5
        neg = rng.normal(size=(20, 2)) * 0.5 + 50.0
        cand = np.array([pos.mean(axis=0)])
        ranked, scores = select_avoidance(cand, pos, neg, k=5, alpha=0.05)
        assert ranked == [0]
        assert scores[0].delta < 0
        assert scores[0].p_value == pytest.approx(1 / 252, abs=1e-12)

    def test_interleaved_candidate_rejected(self):
        # candidate equidistant from alternating positive/negative ring
        angles = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pos, neg = ring[::2], ring[1::2]
        ranked, scores = select_avoidance(np.zeros((1, 2)), pos, neg, k=5)
        assert ranked == []
        assert not scores[0].accepted

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            cands = rng.normal(size=(n, 2))
            pos = rng.normal(size=(12, 2))
            neg = rng.normal(size=(12, 2)) + rng.uniform(0, 3)
            ranked, scores = select_avoidance(cands, pos, neg, k=5, alpha=0.05)
            assert ranked == brute_force_avoidance(cands, pos, neg, 5, 0.05)
            for s in scores:
                assert s.delta == pytest.approx(s.d_plus - s.d_minus, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        cands = rng.normal(size=(5, 3))
        pos = rng.normal(size=(8, 3))
        neg = rng.normal(size=(8, 3)) + 2.0
        shift = rng.normal(size=3) * 10
        _, base = select_avoidance(cands, pos, neg, k=4)
        _, moved = select_avoidance(cands + shift, pos + shift, neg + shift, k=4)
        for a, b in zip(base, moved):
            assert a.d_plus == pytest.approx(b.d_plus, rel=1e-9)
            assert a.d_minus == pytest.approx(b.d_minus, rel=1e-9)
            assert a.p_value == pytest.approx(b.p_value, abs=1e-12)
            assert a.accepted == b.accepted

    def test_uniform_scaling_preserves_decisions(self):
        rng = np.random.default_rng(12)
        cands = rng.normal(size=(5, 2))
        pos = rng.normal(size=(9, 2))
        neg = rng.normal(size=(9, 2)) + 1.5
        s = 3.7
        ranked_a, base = select_avoidance(cands, pos, neg, k=4)
        ranked_b, scaled = select_avoidance(cands * s, pos * s, neg * s, k=4)
        assert ranked_a == ranked_b
        for a, b in zip(base, scaled):
            assert b.d_plus == pytest.approx(s * a.d_plus, rel=1e-9)
            assert b.delta == pytest.approx(s * a.delta, rel=1e-9)
            assert a.accepted == b.accepted
