"""Candidate screening in latent space.

Points are projected onto their top two principal components; screening
then ranks candidates by mean Euclidean distance to the k nearest training
points (standard mode) or by the bilateral distance differential between
positive and negative training sets with an exact rank-test significance
gate (avoidance mode).  All functions accept coordinates of any dimension,
so callers choose between the projected plane and the full latent space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class ProjectedSpace:
    mean: np.ndarray
    axes: np.ndarray  # (2, d), orthonormal rows
    variances: tuple[float, float]
    rank_deficient: bool

    def project(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=float) - self.mean) @ self.axes.T


def pca2(points: np.ndarray) -> ProjectedSpace:
    """Top-2 principal axes from an exact symmetric eigendecomposition.

    Covariance uses the n-1 divisor.  With fewer points than dimensions
    (n < d) the axes come from the n x n Gram matrix of the centred points
    (the "snapshot" method), which has the covariance's nonzero eigenvalues;
    otherwise, or when every centred point is zero, from the d x d
    covariance.  Each axis is flipped so its largest-magnitude loading is
    positive.  When fewer than two eigenvalues are positive the remaining
    axis is a deterministic null-space vector and the result is flagged
    rank-deficient.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise DataError("projection needs at least 3 points")
    if pts.shape[1] < 2:
        raise DataError("projection needs dimension >= 2")
    mean = pts.mean(axis=0)
    centered = pts - mean
    n, d = centered.shape
    if n < d and centered.any():
        eigvals, axes = _gram_axes(centered)
    else:
        eigvals, axes = _covariance_axes(centered)
    for row in axes:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    tol = max(eigvals[0], 1.0) * 1e-12
    deficient = bool(np.sum(eigvals > tol) < 2)
    return ProjectedSpace(mean, axes, (float(eigvals[0]), float(eigvals[1])), deficient)


def _covariance_axes(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped covariance eigenvalues, descending, and the top two axes."""
    cov = centered.T @ centered / (centered.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return np.maximum(eigvals[order], 0.0), eigvecs[:, order[:2]].T.copy()


def _gram_axes(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped Gram eigenvalues, descending, and the top two axes.

    An eigenvector u of C C^T / (n-1) maps to the covariance eigenvector
    C^T u.  When the points span less than a plane, the second mapped
    vector is rounding noise, largely along the first axis, so it is
    orthogonalised against that axis; if no more than 1e-8 of it survives,
    the coordinate vector where the first axis is smallest, orthogonalised
    likewise, stands in.
    """
    gram = centered @ centered.T / (centered.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    first, second = (centered.T @ eigvecs[:, order[:2]]).T
    first /= np.linalg.norm(first)
    norm_before = np.linalg.norm(second)
    second -= (first @ second) * first
    if not np.linalg.norm(second) > 1e-8 * norm_before:
        j = np.argmin(np.abs(first))
        second = -first[j] * first
        second[j] += 1.0
    second /= np.linalg.norm(second)
    return np.maximum(eigvals[order], 0.0), np.vstack([first, second])


def _knn_distances(query: np.ndarray, reference: np.ndarray, k: int) -> np.ndarray:
    ref = np.asarray(reference, dtype=float)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if ref.shape[0] < k:
        raise DataError(f"reference set has {ref.shape[0]} points, needs >= k={k}")
    dists = np.sqrt(((ref - np.asarray(query, dtype=float)) ** 2).sum(axis=1))
    order = np.argsort(dists, kind="stable")
    return dists[order[:k]]


def knn_mean_dist(query, reference, k: int) -> float:
    """Mean Euclidean distance from the query to its k nearest references."""
    return float(_knn_distances(query, reference, k).mean())


def _doubled_midranks(values: np.ndarray) -> np.ndarray:
    """Twice each value's midrank among values (1-based), as integers."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    out = np.empty(len(values), dtype=np.int64)
    out[order] = np.repeat(starts + 1 + ends, ends - starts)
    return out


def mann_whitney_exact_less(x, y) -> float:
    """Exact one-sided rank-test p-value for 'x tends smaller than y'.

    The statistic counts pairs with x_i < y_j (ties half).  The p-value is
    the fraction of all C(n+m, n) relabelings of the pooled values whose
    statistic is at least the observed one, so it is exact under ties too.

    The relabelings are counted, not enumerated: a relabeling's statistic
    is n*m + n(n+1)/2 minus the midrank sum of the values it labels x, so
    it reaches the observed statistic exactly when that rank sum is at most
    the observed one.  A subset-sum recursion over the pooled midranks,
    doubled so they are integers, counts the n-subsets at each rank sum in
    exact integers (Python integers once int64 could overflow).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = len(x), len(y)
    if n == 0 or m == 0:
        raise DataError("rank test needs non-empty samples")
    pooled = np.concatenate([x, y])
    if not np.isfinite(pooled).all():
        raise DataError("rank test needs finite values")
    ranks = _doubled_midranks(pooled)
    limit = int(ranks[:n].sum())
    # ways[k, s]: k-subsets of the values seen so far with doubled rank sum s
    small = math.comb(n + m, min(n, (n + m) // 2)) < 2**63
    ways = np.zeros((n + 1, limit + 1), dtype=np.int64 if small else object)
    ways[0, 0] = 1
    for r in ranks.tolist():
        if r <= limit:
            ways[1:, r:] = ways[1:, r:] + ways[:-1, : limit + 1 - r]
    return int(ways[n].sum()) / math.comb(n + m, n)


@dataclass(frozen=True)
class BilateralScore:
    index: int
    d_plus: float
    d_minus: float
    delta: float
    p_value: float
    accepted: bool


def select_standard(
    candidates: np.ndarray,
    training: np.ndarray,
    keep_fraction: float = 0.25,
    k: int = 5,
) -> tuple[list[int], np.ndarray]:
    """Rank candidates by mean k-NN distance to the training points and keep
    the closest ceil(keep_fraction * n); ties break by candidate index.

    Returns (kept indices in rank order, all candidate distances).
    """
    cands = np.asarray(candidates, dtype=float)
    if cands.ndim != 2 or cands.shape[0] == 0:
        raise DataError("no candidates to filter")
    if not 0 < keep_fraction <= 1:
        raise ConfigError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    dists = np.array([knn_mean_dist(c, training, k) for c in cands])
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
    n_keep = math.ceil(keep_fraction * len(dists))
    return order[:n_keep], dists


def select_avoidance(
    candidates: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    k: int = 5,
    alpha: float = 0.05,
) -> tuple[list[int], list[BilateralScore]]:
    """Bilateral screening: keep candidates significantly closer to the
    positive set than to the negative set.

    A candidate passes when its mean distance to the k nearest positives is
    below the mean to the k nearest negatives AND the exact one-sided rank
    test on the two k-distance samples is significant at alpha.  Accepted
    candidates are ranked by ascending distance differential.

    Returns (accepted indices in rank order, scores for all candidates).
    """
    cands = np.asarray(candidates, dtype=float)
    if cands.ndim != 2 or cands.shape[0] == 0:
        raise DataError("no candidates to filter")
    if not 0 < alpha <= 1:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
    scores = []
    for i, c in enumerate(cands):
        near_pos = _knn_distances(c, positives, k)
        near_neg = _knn_distances(c, negatives, k)
        d_plus = float(near_pos.mean())
        d_minus = float(near_neg.mean())
        p = mann_whitney_exact_less(near_pos, near_neg)
        accepted = d_plus < d_minus and p < alpha
        scores.append(BilateralScore(i, d_plus, d_minus, d_plus - d_minus, p, accepted))
    ranked = sorted(
        (s.index for s in scores if s.accepted),
        key=lambda i: (scores[i].delta, i),
    )
    return ranked, scores
