"""Base classifiers for the toxicity ensemble, implemented from scratch.

All learners share a tiny interface: fit(X, y) with y in {0, 1}, and
predict_proba(X) returning the positive-class probability per row.  With
rowwise=True every row is rounded exactly as a call with that row alone
would round it, so a score never depends on the batch it came in; the
default rounds the batch as one (training and cross-validation use it).
Tree traversal is row-independent either way.
Every source of randomness flows from a spawned SeedSequence, so fits
are deterministic and independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError, DataError, ValidationError

ALGORITHMS = ("rf", "ert", "gbt", "knn", "lr", "adb", "dt")


@dataclass(frozen=True)
class ClassifierSpec:
    """One base learner plus its hyperparameters.

    trees counts forest members, boosting rounds, or stumps depending on
    the algorithm; depth limits individual trees.  Unset fields take the
    per-algorithm defaults resolved in make_classifier.
    """

    algorithm: str
    trees: int | None = None
    depth: int | None = None
    k: int = 5
    learning_rate: float | None = None
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        for field_name in ("trees", "depth"):
            v = getattr(self, field_name)
            if v is not None and v < 1:
                raise ConfigError(f"{field_name} must be >= 1")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")


# named presets: the boosted-tree learner carries two hyperparameter
# flavors so the reference five-member ensemble can weight them separately
PRESETS = {
    "rf": ClassifierSpec("rf"),
    "ert": ClassifierSpec("ert"),
    "gbt-x": ClassifierSpec("gbt", depth=3, learning_rate=0.1),
    "gbt-l": ClassifierSpec("gbt", depth=4, learning_rate=0.05),
    "knn": ClassifierSpec("knn"),
    "lr": ClassifierSpec("lr"),
    "adb": ClassifierSpec("adb"),
    "dt": ClassifierSpec("dt"),
}

DEFAULT_MEMBERS = ("rf", "gbt-l", "gbt-x", "knn", "lr")

def _check_xy(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValidationError("X must be (n, d) with one label per row")
    if X.shape[0] < 2:
        raise DataError("need at least 2 samples")
    classes = np.unique(y)
    if not np.array_equal(classes, [0, 1]):
        raise DataError(f"labels must contain both classes 0 and 1, got {classes}")
    return X, y.astype(np.int64)


# --- decision trees ---------------------------------------------------------


class _Tree:
    """Array-encoded binary tree: feature < 0 marks a leaf with `value`."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            at = node[idx]
            goes_left = X[idx, self.feature[at]] <= self.threshold[at]
            node[idx] = np.where(goes_left, self.left[at], self.right[at])
            active = self.feature[node] >= 0
        return self.value[node]

    def to_state(self) -> dict:
        return {name: getattr(self, name).tolist() for name in self.__slots__}

    @classmethod
    def from_state(cls, state: dict) -> "_Tree":
        return cls(*(state[name] for name in cls.__slots__))


def _grow_tree(X, max_depth, visit) -> _Tree:
    """Depth-first growth shared by every tree learner.

    visit(idx, may_split) gives a node's value and, when may_split is true,
    its best (cost, feature, threshold) or None.  Rows with
    X[:, feature] <= threshold go left.
    """
    feature, threshold, left, right, value = [], [], [], [], []
    # (rows, depth, parent's child list, parent); popping the left child
    # first numbers the nodes, and makes the visits, in depth-first order
    stack = [(np.arange(X.shape[0]), 0, None, -1)]
    while stack:
        idx, depth, children, parent = stack.pop()
        node = len(feature)
        if children is not None:
            children[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        v, split = visit(idx, depth < max_depth and len(idx) >= 2)
        value.append(float(v))
        if split is None:
            continue
        _, f, thr = split
        mask = X[idx, f] <= thr
        if np.count_nonzero(mask) in (0, len(idx)):
            continue
        feature[node] = int(f)
        threshold[node] = float(thr)
        stack.append((idx[~mask], depth + 1, right, node))
        stack.append((idx[mask], depth + 1, left, node))
    return _Tree(feature, threshold, left, right, value)


# cells (rows x columns) scored at once: bounds the scorer's temporaries
# to a few MB however many rows and features a node has
_SPLIT_BLOCK = 1 << 16


def _best_split(X, idx, feat_ids, stats, cost, rng=None):
    """Best (cost, feature, threshold) of one node; None when no column splits.

    The node holds rows idx of X; its candidate columns are feat_ids and
    stats holds its per-row statistics (rows x s).  cost maps the sums of
    those statistics left and right of every candidate split (candidates x
    columns x s) to the quantity to minimize.  Every boundary between
    distinct sorted values is a candidate; with rng set (extremely
    randomized mode) each non-constant column instead gets one uniform
    threshold, drawn in column order.  A later column wins only when lower
    by more than 1e-15.
    """
    m = len(idx)
    best = None
    width = max(1, _SPLIT_BLOCK // m)
    for start in range(0, len(feat_ids), width):
        ids = feat_ids[start : start + width]
        block = X[idx[:, None], ids]
        if rng is None:
            # a stable sort per column and numpy's sequential cumsum give
            # the same bits as sorting and summing one column at a time
            order = block.argsort(axis=0, kind="stable")
            xs = block[order, np.arange(len(ids))]
            sums = stats[order].cumsum(axis=0)
            cols, rows, scores = _column_winners(
                cost, sums[:-1], sums[-1] - sums[:-1], xs[:-1] < xs[1:]
            )
            thresholds = 0.5 * (xs[rows, cols] + xs[rows + 1, cols])
        else:
            lo, hi = block.min(axis=0), block.max(axis=0)
            varying = (lo != hi).nonzero()[0]
            thr = lo[varying] + (hi[varying] - lo[varying]) * rng.random(varying.size)
            goes_left = (block[:, varying] <= thr).T
            # summed one row set and statistic at a time: numpy's pairwise
            # summation order depends on which rows are summed, so masking
            # with zeros or reducing a 2-d block would not give the same bits
            sums = [
                np.add.reduce(c[g])
                for side in (goes_left, ~goes_left)
                for g in side
                for c in stats.T
            ]
            left, right = np.reshape(sums, (2, 1, varying.size, stats.shape[1]))
            n_left = goes_left.sum(axis=1)
            cols, _, scores = _column_winners(
                cost, left, right, ((n_left > 0) & (n_left < m))[None]
            )
            thresholds = thr[cols]
            cols = varying[cols]
        winners = zip(ids[cols].tolist(), scores.tolist(), thresholds.tolist())
        for f, score, t in winners:
            if best is None or score < best[0] - 1e-15:
                best = (score, f, t)
    return best


def _column_winners(cost, left, right, valid):
    """For each column with a valid candidate: (column, row, cost) of its
    first lowest-cost candidate."""
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(valid, cost(left, right), np.inf)
    cols = valid.any(axis=0).nonzero()[0]
    rows = scores.argmin(axis=0)[cols]
    return cols, rows, scores[rows, cols]


def _gini_cost(total_w):
    """Weighted Gini impurity of a split from sums of (w, w * y)."""

    def cost(left, right):
        wl = left[..., 0]
        wr = total_w - wl
        pl = left[..., 1] / wl
        pr = right[..., 1] / wr
        return wl * pl * (1 - pl) + wr * pr * (1 - pr)

    return cost


def _newton_cost(left, right):
    """Negated Newton gain sl^2 / nl + sr^2 / nr from sums of (r, 1)."""
    sl, nl = left[..., 0], left[..., 1]
    sr, nr = right[..., 0], right[..., 1]
    return -(sl**2 / nl + sr**2 / nr)


class DecisionTree:
    """CART classifier with Gini splits and optional feature subsampling."""

    def __init__(
        self,
        max_depth: int = 12,
        max_features: str | None = None,
        random_thresholds: bool = False,
        seed_seq: np.random.SeedSequence | None = None,
    ):
        self.max_depth = max_depth
        self.max_features = max_features
        self.random_thresholds = random_thresholds
        self.seed_seq = seed_seq or np.random.SeedSequence(0)
        self.tree: _Tree | None = None

    def fit(self, X, y, sample_weight=None):
        X, y = _check_xy(X, y)
        w = (
            np.full(len(y), 1.0 / len(y))
            if sample_weight is None
            else np.asarray(sample_weight, dtype=float)
        )
        wy = w * y
        stats = np.column_stack((w, wy))
        rng = np.random.default_rng(self.seed_seq)
        threshold_rng = rng if self.random_thresholds else None
        d = X.shape[1]
        n_feat = max(1, int(np.sqrt(d))) if self.max_features == "sqrt" else d

        def visit(idx, may_split):
            wsum = w[idx].sum()
            pos = wy[idx].sum() / wsum if wsum > 0 else 0.0
            if not may_split or pos in (0.0, 1.0):
                return pos, None
            if n_feat < d:
                feat_ids = np.sort(rng.choice(d, size=n_feat, replace=False))
            else:
                feat_ids = np.arange(d)
            return pos, _best_split(
                X, idx, feat_ids, stats[idx], _gini_cost(wsum), threshold_rng
            )

        self.tree = _grow_tree(X, self.max_depth, visit)
        return self

    def predict_proba(self, X, *, rowwise: bool = False) -> np.ndarray:
        return self.tree.predict(np.asarray(X, dtype=float))

    def to_state(self) -> dict:
        return {"tree": self.tree.to_state()}

    def from_state(self, state: dict):
        self.tree = _Tree.from_state(state["tree"])
        return self


class _Forest:
    """Shared machinery for bagged (RF) and extremely randomized (ERT) trees."""

    bootstrap = True
    random_thresholds = False

    def __init__(self, n_trees: int = 200, max_depth: int = 12, seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed
        self.trees: list[DecisionTree] = []

    def fit(self, X, y, sample_weight=None):
        X, y = _check_xy(X, y)
        seqs = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.trees = []
        n = len(y)
        for seq in seqs:
            rng = np.random.default_rng(seq.spawn(1)[0])
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree = DecisionTree(
                max_depth=self.max_depth,
                max_features="sqrt",
                random_thresholds=self.random_thresholds,
                seed_seq=seq,
            )
            xi, yi = X[idx], y[idx]
            if np.unique(yi).size < 2:
                # degenerate bootstrap: fall back to the full sample
                xi, yi = X, y
            tree.fit(xi, yi)
            self.trees.append(tree)
        return self

    def predict_proba(self, X, *, rowwise: bool = False) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = [t.predict_proba(X) for t in self.trees]
        if rowwise:
            # a one-row mean sums its trees pairwise; a batch mean, in order
            return np.mean(np.stack(votes, axis=1), axis=1)
        return np.mean(votes, axis=0)

    def to_state(self) -> dict:
        return {"trees": [t.to_state() for t in self.trees]}

    def from_state(self, state: dict):
        self.trees = [
            DecisionTree(max_depth=self.max_depth).from_state(s)
            for s in state["trees"]
        ]
        return self


class RandomForest(_Forest):
    bootstrap = True
    random_thresholds = False


class ExtraTrees(_Forest):
    bootstrap = False
    random_thresholds = True


def _regression_tree(X, r, h, max_depth) -> _Tree:
    """Squared-error regression tree, the boosting weak learner; each leaf
    holds the Newton step for the logistic loss."""
    features = np.arange(X.shape[1])
    stats = np.column_stack((r, np.ones(len(r))))

    def visit(idx, may_split):
        step = r[idx].sum() / max(h[idx].sum(), 1e-12)
        if not may_split:
            return step, None
        return step, _best_split(X, idx, features, stats[idx], _newton_cost)

    return _grow_tree(X, max_depth, visit)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class GradientBoosting:
    """Additive depth-limited trees on the logistic loss."""

    def __init__(self, n_rounds: int = 200, max_depth: int = 3, learning_rate: float = 0.1):
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.f0 = 0.0
        self.stages: list[_Tree] = []

    def fit(self, X, y, sample_weight=None):
        X, y = _check_xy(X, y)
        p0 = np.clip(y.mean(), 1e-6, 1 - 1e-6)
        self.f0 = float(np.log(p0 / (1 - p0)))
        f = np.full(len(y), self.f0)
        self.stages = []
        for _ in range(self.n_rounds):
            p = _sigmoid(f)
            residual = y - p
            hessian = p * (1 - p)
            tree = _regression_tree(X, residual, hessian, self.max_depth)
            f = f + self.learning_rate * tree.predict(X)
            self.stages.append(tree)
        return self

    def predict_proba(self, X, *, rowwise: bool = False) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        f = np.full(X.shape[0], self.f0)
        for tree in self.stages:
            f = f + self.learning_rate * tree.predict(X)
        return _sigmoid(f)

    def to_state(self) -> dict:
        return {"f0": self.f0, "stages": [t.to_state() for t in self.stages]}

    def from_state(self, state: dict):
        self.f0 = float(state["f0"])
        self.stages = [_Tree.from_state(s) for s in state["stages"]]
        return self


class KNearest:
    """k-NN with probability = toxic fraction among the k nearest rows.

    Distance ties resolve by training-row index via a stable sort.
    """

    def __init__(self, k: int = 5):
        self.k = k
        self.X = None
        self.y = None

    def fit(self, X, y, sample_weight=None):
        X, y = _check_xy(X, y)
        if len(y) < self.k:
            raise DataError(f"need at least k={self.k} training rows")
        self.X = X
        self.y = y
        return self

    def predict_proba(self, Xq, *, rowwise: bool = False) -> np.ndarray:
        Xq = np.asarray(Xq, dtype=float)
        out = np.empty(Xq.shape[0])
        # chunked to bound the distance-matrix footprint
        step = max(1, int(2e7 // max(self.X.shape[0], 1)))
        for s in range(0, Xq.shape[0], step):
            block = Xq[s : s + step]
            if rowwise:  # a stack of one-row products, each rounded alone
                cross = (2 * block[:, None] @ self.X.T)[:, 0]
            else:
                cross = 2 * block @ self.X.T
            d2 = (
                (block**2).sum(axis=1)[:, None]
                - cross
                + (self.X**2).sum(axis=1)[None, :]
            )
            idx = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            out[s : s + step] = self.y[idx].mean(axis=1)
        return out

    def to_state(self) -> dict:
        return {"X": self.X.tolist(), "y": self.y.tolist(), "k": self.k}

    def from_state(self, state: dict):
        self.X = np.asarray(state["X"], dtype=float)
        self.y = np.asarray(state["y"], dtype=np.int64)
        self.k = int(state["k"])
        return self


class LogisticRegressionGD:
    """L2-regularized logistic regression fitted by plain gradient descent.

    The step size is 1 / L for the logistic-loss Lipschitz bound
    L = ||X||^2 / (4n) + l2, and iteration stops when the gradient's
    max-norm falls below the tolerance.
    """

    def __init__(self, l2: float = 1e-4, tol: float = 1e-6, max_iter: int = 20_000):
        self.l2 = l2
        self.tol = tol
        self.max_iter = max_iter
        self.coef = None
        self.intercept = 0.0

    def fit(self, X, y, sample_weight=None):
        X, y = _check_xy(X, y)
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        # spectral-norm upper bound via the Frobenius norm
        lipschitz = (np.linalg.norm(X) ** 2 + n) / (4.0 * n) + self.l2
        step = 1.0 / lipschitz
        for _ in range(self.max_iter):
            p = _sigmoid(X @ w + b)
            err = p - y
            gw = X.T @ err / n + self.l2 * w
            gb = err.mean()
            if max(np.abs(gw).max(), abs(gb)) < self.tol:
                break
            w -= step * gw
            b -= step * gb
        self.coef = w
        self.intercept = float(b)
        return self

    def predict_proba(self, X, *, rowwise: bool = False) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        # one row is a dot product; a batch, a matrix-vector product that
        # may round differently
        z = (X[:, None] @ self.coef)[:, 0] if rowwise else X @ self.coef
        return _sigmoid(z + self.intercept)

    def to_state(self) -> dict:
        return {"coef": self.coef.tolist(), "intercept": self.intercept}

    def from_state(self, state: dict):
        self.coef = np.asarray(state["coef"], dtype=float)
        self.intercept = float(state["intercept"])
        return self


class AdaBoostStumps:
    """Discrete two-class boosting over depth-1 stumps.

    Stump weights are ln((1 - err) / err); the predicted probability is
    the weighted vote share for the toxic class.
    """

    def __init__(self, n_stumps: int = 100):
        self.n_stumps = n_stumps
        self.stumps: list[DecisionTree] = []
        self.alphas: list[float] = []

    def fit(self, X, y, sample_weight=None):
        X, y = _check_xy(X, y)
        n = len(y)
        w = np.full(n, 1.0 / n)
        self.stumps, self.alphas = [], []
        for _ in range(self.n_stumps):
            stump = DecisionTree(max_depth=1)
            stump.fit(X, y, sample_weight=w)
            pred = (stump.predict_proba(X) >= 0.5).astype(np.int64)
            miss = pred != y
            err = float(w[miss].sum())
            if err >= 0.5:
                break
            err = max(err, 1e-10)
            alpha = float(np.log((1 - err) / err))
            self.stumps.append(stump)
            self.alphas.append(alpha)
            w = w * np.exp(alpha * miss)
            w /= w.sum()
            if err <= 1e-10:
                break
        if not self.stumps:
            # no stump beat chance: keep a single majority-vote stump
            stump = DecisionTree(max_depth=1)
            stump.fit(X, y)
            self.stumps = [stump]
            self.alphas = [1.0]
        return self

    def predict_proba(self, X, *, rowwise: bool = False) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = np.zeros(X.shape[0])
        for stump, alpha in zip(self.stumps, self.alphas):
            votes += alpha * (stump.predict_proba(X) >= 0.5)
        return votes / sum(self.alphas)

    def to_state(self) -> dict:
        return {
            "stumps": [s.to_state() for s in self.stumps],
            "alphas": self.alphas,
        }

    def from_state(self, state: dict):
        self.stumps = [
            DecisionTree(max_depth=1).from_state(s) for s in state["stumps"]
        ]
        self.alphas = [float(a) for a in state["alphas"]]
        return self


def make_classifier(spec: ClassifierSpec):
    """Instantiate a learner with per-algorithm defaults filled in."""
    alg = spec.algorithm
    if alg == "rf":
        forest = RandomForest(spec.trees or 200, spec.depth or 12, seed=spec.seed)
        return forest
    if alg == "ert":
        forest = ExtraTrees(spec.trees or 200, spec.depth or 12, seed=spec.seed)
        return forest
    if alg == "gbt":
        return GradientBoosting(
            spec.trees or 200, spec.depth or 3, spec.learning_rate or 0.1
        )
    if alg == "knn":
        return KNearest(spec.k)
    if alg == "lr":
        return LogisticRegressionGD(l2=spec.l2)
    if alg == "adb":
        return AdaBoostStumps(spec.trees or 100)
    if alg == "dt":
        return DecisionTree(max_depth=spec.depth or 12)
    raise ConfigError(f"unknown algorithm {alg!r}")


def preset_spec(name: str, seed: int = 0, trees: int | None = None) -> ClassifierSpec:
    """Look up a preset by name, optionally overriding seed and size."""
    if name not in PRESETS:
        raise ConfigError(f"unknown classifier preset {name!r}")
    spec = replace(PRESETS[name], seed=seed)
    if trees is not None:
        spec = replace(spec, trees=trees)
    return spec
