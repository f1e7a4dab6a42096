"""Base classifiers for the toxicity ensemble, implemented from scratch.

All learners share a tiny interface: fit_folds(X, y, sets) fits one
learner per training set, each set a list of distinct row ids of X, in
one call, and returns them in set order; fit(X, y) with y in {0, 1} is
its one-set case, on every row.  A set's learner is byte-identical to a
fit on X[rows], y[rows].  predict_proba(X) returns the positive-class
probability per row, each row rounded exactly as a call with that row
alone would round it, so a score never depends on the batch it came in:
cross-validation, the held-out report and the screens give a row the same
bits.  Every source of randomness flows from a spawned SeedSequence, so
fits are deterministic and independent of scheduling.
"""

from __future__ import annotations

import copy
import math
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
        lr = self.learning_rate
        if lr is not None and not (math.isfinite(lr) and lr > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {lr}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ConfigError(f"l2 must be finite and >= 0, got {self.l2}")


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

def _check_sets(X, y, sets):
    """X as floats, y as int64 and each training set as an int64 array of
    row ids; every set needs two rows or more and both classes."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValidationError("X must be (n, d) with one label per row")
    sets = [np.asarray(rows, dtype=np.int64) for rows in sets]
    for rows in sets:
        if len(rows) < 2:
            raise DataError("need at least 2 samples")
        classes = np.unique(y[rows])
        if not np.array_equal(classes, [0, 1]):
            raise DataError(f"labels must contain both classes 0 and 1, got {classes}")
    return X, y.astype(np.int64), sets


def _take_rows(X, rows):
    """X[rows], as a view of X when rows is one run of consecutive ids."""
    if np.array_equal(rows, np.arange(rows[0], rows[0] + len(rows))):
        return X[rows[0] : rows[0] + len(rows)]
    return X[rows]


class _Learner:
    def fit(self, X, y):
        """Fit on every row of X: the one-set case of fit_folds."""
        self.fit_folds(X, y, [np.arange(len(y))])
        return self

    def _copies(self, k: int) -> list:
        """k learners with this one's settings, this one first, for
        fit_folds to fit one per set."""
        return [self] + [copy.copy(self) for _ in range(k - 1)]


def _check_finite(what, *arrays):
    """Raise ValidationError naming what unless every value of arrays is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValidationError(f"{what} must be finite")


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
    def from_state(cls, state: dict, width: int) -> "_Tree":
        """The tree saved as state, for rows of width columns: finite arrays of
        one length, each split reading a column and leading to later nodes."""
        tree = cls(*(state[name] for name in cls.__slots__))
        n = len(tree.feature)
        if n == 0 or any(getattr(tree, name).shape != (n,) for name in cls.__slots__):
            raise ValidationError("a tree's arrays must share one non-zero length")
        at = np.flatnonzero(tree.feature >= 0)
        first, last = np.sort((tree.left[at], tree.right[at]), axis=0)
        if (tree.feature >= width).any() or (first <= at).any() or (last >= n).any():
            raise ValidationError(
                f"a tree of {n} nodes needs features below {width} and each "
                "child after its parent"
            )
        _check_finite("a tree's thresholds and values", tree.threshold, tree.value)
        return tree


def _grow_trees(X, stats, roots, offsets, max_depth, visits, cost_of) -> list[_Tree]:
    """Depth-first growth shared by every tree learner, of many trees in
    lockstep.

    Tree t grows from rows roots[t] of X; stats holds statistics that its
    splits sum (s x columns), row r's for tree t in column offsets[t] + r,
    so trees of different training sets can share X.  visits[t](idx,
    may_split) gives a node's value and, when may_split is true, either
    None or the node's split search as (feat_ids, param, rng) for
    _best_splits.  Each step visits every unfinished tree's nodes up to its
    next search; one _best_splits call then scores every search of the
    step.  Rows with X[:, feature] <= threshold go left.
    """
    grown = [([], [], [], [], []) for _ in roots]
    # per tree: (rows, depth, parent's child list, parent); popping the left
    # child first numbers the nodes, and makes the visits, in depth-first order
    stacks = [[(root, 0, None, -1)] for root in roots]
    active = list(range(len(roots)))
    while active:
        visited, searches = [], []
        for t in active:
            stack = stacks[t]
            feature, threshold, left, right, value = grown[t]
            while stack:
                idx, depth, children, parent = stack.pop()
                node = len(feature)
                if children is not None:
                    children[parent] = node
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                v, search = visits[t](idx, depth < max_depth and len(idx) >= 2)
                value.append(float(v))
                if search is not None:
                    visited.append((t, idx, depth, node))
                    searches.append((idx, offsets[t], *search))
                    break
        splits = _best_splits(X, stats, searches, cost_of) if searches else []
        for (t, idx, depth, node), split in zip(visited, splits):
            if split is None:
                continue
            _, f, thr = split
            mask = X[idx, f] <= thr
            if np.count_nonzero(mask) in (0, len(idx)):
                continue
            feature, threshold, left, right, _ = grown[t]
            feature[node] = int(f)
            threshold[node] = float(thr)
            stacks[t].append((idx[~mask], depth + 1, right, node))
            stacks[t].append((idx[mask], depth + 1, left, node))
        active = [t for t in active if stacks[t]]
    return [_Tree(*arrays) for arrays in grown]


def _stacked(n_rows, sets, columns):
    """The statistics of several training sets of an n_rows-row X in one
    array, for _grow_trees: set j's statistics columns[j] (s x len(sets[j]))
    land in columns offsets[j] + sets[j].  Returns (stats, offsets)."""
    offsets = [j * n_rows for j in range(len(sets))]
    stats = np.zeros((len(columns[0]), len(sets) * n_rows))
    for rows, offset, c in zip(sets, offsets, columns):
        stats[:, offset + rows] = c
    return stats, offsets


# cells (nodes x columns x padded rows) scored at once: bounds the scorer's
# temporaries (about 130 bytes a cell) to about 1 MB however many nodes,
# rows and features a step has.  On a 2-core Xeon VM, 20-tree forests on
# 4,568 x 20 rows fit as fast with 2,048 to 65,536 cells; the smaller
# block keeps a ten-fold lockstep step from raising peak memory
_SPLIT_BLOCK = 1 << 13
# cells the scorer handles in the time one more call costs (about 100 us
# per call and 100 ns per cell on a 2-core Xeon VM): a node whose padding
# would cost more cells than this starts a new chunk
_CALL_CELLS = 1 << 10


def _best_splits(X, stats, nodes, cost_of):
    """Best (cost, feature, threshold) of each node; None where no column
    splits.

    Node k is (idx, offset, feat_ids, param, rng): it holds rows idx of
    X, whose statistics are stats[:, offset + idx] (stats is s x columns),
    its candidate columns are feat_ids, the same number for every node, and
    param is a number its cost depends on.  cost_of(params) gives the cost
    of nodes with those params (nodes x 1 x 1): it maps the sums of the
    statistics left and right of every candidate split (s x nodes x columns
    x candidates) to the quantity to minimize, summed in sorted order.  Every
    boundary between distinct sorted values is a candidate, at their
    midpoint; with rng set (extremely randomized mode) each non-constant
    column instead draws one uniform threshold from rng, in column order,
    whose one candidate is the boundary after the last row at or below it.
    A later column wins only when lower by more than 1e-15.
    """
    best = [None] * len(nodes)
    flat = np.ascontiguousarray(X).reshape(-1)
    for chunk in _node_chunks(nodes):
        # node i of the chunk fills the first m[i] of its rows; when sizes
        # differ, the rest are pad rows that read NaN with zero statistics.
        # A stable sort puts them last, so the real rows keep the order and
        # cumsum the node alone would give, no boundary next to a pad row is
        # a candidate, and the last sum is the node's total (adding zeros
        # changes no bits but the sign of a -0.0, which no cost tells apart)
        m = [len(nodes[k][0]) for k in chunk]
        n_rows = m[-1]
        pad = None
        if m[0] < n_rows:
            pad = np.arange(n_rows) >= np.array(m)[:, None]
            rows = np.zeros(pad.shape, dtype=np.int64)
            rows[~pad] = np.concatenate([nodes[k][0] for k in chunk])
        else:
            rows = np.array([nodes[k][0] for k in chunk])
        stat_rows = rows + np.array([nodes[k][1] for k in chunk])[:, None]
        feats = np.array([nodes[k][2] for k in chunk])
        params = np.array([nodes[k][3] for k in chunk], dtype=float)
        rngs = [nodes[k][4] for k in chunk]
        drawing = [i for i, rng in enumerate(rngs) if rng is not None]
        cost = cost_of(params[:, None, None])
        node_rows = np.arange(0, rows.size, n_rows)[:, None, None]
        row_cells = rows * X.shape[1]
        width = max(1, _SPLIT_BLOCK // rows.size)
        for start in range(0, feats.shape[1], width):
            ids = feats[:, start : start + width]
            # nodes x columns x rows, read through flat positions
            block = flat.take(row_cells[:, None, :] + ids[:, :, None])
            if pad is not None:
                np.copyto(block, np.nan, where=pad[:, None, :])
            order = block.argsort(axis=2, kind="stable")
            column_rows = np.arange(0, block.size, n_rows).reshape(ids.shape + (1,))
            xs = block.take(order + column_rows)
            del block  # the temporaries below are the scorer's peak
            sums = stats.take(stat_rows.take(order + node_rows), axis=1)
            del order
            if pad is not None:
                np.copyto(sums, 0.0, where=pad[:, None, :])
            np.cumsum(sums, axis=3, out=sums)
            left, right = sums[..., :-1], sums[..., -1:] - sums[..., :-1]
            valid = xs[:, :, :-1] < xs[:, :, 1:]
            if drawing:
                # drawn between the node's first and last sorted rows; pad
                # rows and NaN (a constant column's draw) are below none
                drawn = np.full(ids.shape, np.nan)
                for i in drawing:
                    lo, hi = xs[i, :, 0], xs[i, :, m[i] - 1]
                    varying = (lo != hi).nonzero()[0]
                    u = rngs[i].random(varying.size)
                    drawn[i, varying] = lo[varying] + (hi[varying] - lo[varying]) * u
                below = np.count_nonzero(xs[drawing] <= drawn[drawing, :, None], axis=2)
                valid[drawing] &= np.arange(n_rows - 1) == below[:, :, None] - 1
            with np.errstate(divide="ignore", invalid="ignore"):
                costs = cost(left, right)
            np.copyto(costs, np.inf, where=~valid)
            # each column's first lowest-cost candidate; min gives the
            # argmin's bits, as a cost's zeros all have one sign
            at, scores = costs.argmin(axis=2), costs.min(axis=2)
            # node chunk[i]'s columns in order
            columns = zip(ids.tolist(), valid.any(axis=2).tolist(), scores.tolist())
            for i, (k, column) in enumerate(zip(chunk, columns)):
                b, won = best[k], None
                for j, (f, ok, score) in enumerate(zip(*column)):
                    if ok and (b is None or score < b[0] - 1e-15):
                        b, won = (score, f), j
                if won is not None:
                    a = at[i, won]
                    mid = 0.5 * (xs[i, won, a] + xs[i, won, a + 1])
                    best[k] = (*b, mid if rngs[i] is None else drawn[i, won])
    return best


def _node_chunks(nodes):
    """The indices of nodes, smallest node first, in chunks of at most
    _SPLIT_BLOCK (nodes x columns x padded rows) cells; a node over the
    budget on its own is a chunk of one, scored in column blocks.  A node
    also starts a new chunk when padding the chunk's nodes to its row count
    would cost more than _CALL_CELLS cells."""
    chunk, rows = [], 0
    for k in sorted(range(len(nodes)), key=lambda k: len(nodes[k][0])):
        m, n_cols = len(nodes[k][0]), len(nodes[k][2])
        if chunk and (
            (len(chunk) + 1) * m * n_cols > _SPLIT_BLOCK
            or len(chunk) * (m - rows) * n_cols > _CALL_CELLS
        ):
            yield chunk
            chunk = []
        chunk.append(k)
        rows = m
    if chunk:
        yield chunk


# the costs return a new array and build it in place, in the operation
# order of the expression each names, to hold few temporaries at once


def _gini_cost(total_w):
    """Weighted Gini impurity of a split from sums of (w, w * y):
    wl * pl * (1 - pl) + wr * pr * (1 - pr)."""

    def cost(left, right):
        wl, wyl = left
        wr = total_w - wl
        pl = wyl / wl
        pr = right[1] / wr
        out = wl * pl
        out *= np.subtract(1, pl, out=pl)
        wr *= pr
        wr *= np.subtract(1, pr, out=pr)
        out += wr
        return out

    return cost


def _newton_cost(left, right):
    """Negated Newton gain -(sl^2 / nl + sr^2 / nr) from sums of (r, 1)."""
    sl, nl = left
    sr, nr = right
    out = np.square(sl)
    out /= nl
    gain_right = np.square(sr)
    gain_right /= nr
    out += gain_right
    return np.negative(out, out=out)


class DecisionTree(_Learner):
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

    def fit_folds(self, X, y, sets, weights=None):
        """One tree per set, all grown together; weights[j], when given,
        weighs set j's rows in order (uniform otherwise)."""
        X, y, sets = _check_sets(X, y, sets)
        trees = self._copies(len(sets))
        _grow_gini_trees(X, y, sets, weights, trees, sets, range(len(sets)))
        return trees

    def _visit(self, d, stats):
        """This tree's node visit for _grow_trees, over d columns whose rows
        have statistics stats = (w, w * y)."""
        w, wy = stats
        rng = np.random.default_rng(self.seed_seq)
        threshold_rng = rng if self.random_thresholds else None
        n_feat = max(1, int(np.sqrt(d))) if self.max_features == "sqrt" else d

        def visit(idx, may_split):
            wsum = np.add.reduce(w[idx])
            pos = np.add.reduce(wy[idx]) / wsum if wsum > 0 else 0.0
            if not may_split or pos in (0.0, 1.0):
                return pos, None
            if n_feat < d:
                feat_ids = rng.choice(d, size=n_feat, replace=False)
                feat_ids.sort()
            else:
                feat_ids = np.arange(d)
            return pos, (feat_ids, wsum, threshold_rng)

        return visit

    def predict_proba(self, X) -> np.ndarray:
        return self.tree.predict(np.asarray(X, dtype=float))

    def to_state(self) -> dict:
        return {"tree": self.tree.to_state()}

    def from_state(self, state: dict, width: int):
        self.tree = _Tree.from_state(state["tree"], width)
        return self


def _grow_gini_trees(X, y, sets, weights, trees, roots, set_of):
    """Grow DecisionTrees together over X: tree t from rows roots[t], on
    the statistics (w, w * y) of training set set_of[t], where set j's rows
    weigh weights[j] in order, or uniformly when weights is None."""
    columns = []
    for j, rows in enumerate(sets):
        w = (
            np.full(len(rows), 1.0 / len(rows))
            if weights is None
            else np.asarray(weights[j], dtype=float)
        )
        columns.append(np.stack((w, w * y[rows])))
    stats, set_offsets = _stacked(len(y), sets, columns)
    offsets = [set_offsets[j] for j in set_of]
    n, d = X.shape
    visits = [t._visit(d, stats[:, o : o + n]) for t, o in zip(trees, offsets)]
    max_depth = trees[0].max_depth
    grown = _grow_trees(X, stats, roots, offsets, max_depth, visits, _gini_cost)
    for tree, grown_tree in zip(trees, grown):
        tree.tree = grown_tree


class _Forest(_Learner):
    """Shared machinery for bagged (RF) and extremely randomized (ERT) trees."""

    bootstrap = True
    random_thresholds = False

    def __init__(self, n_trees: int = 200, max_depth: int = 12, seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed
        self.trees: list[DecisionTree] = []

    def fit_folds(self, X, y, sets):
        """Grow every set's trees together over X; each tree's root holds
        its bootstrap row ids in draw order, so its splits are those of a
        fit on X[rows[boot]]."""
        X, y, sets = _check_sets(X, y, sets)
        forests = self._copies(len(sets))
        trees, roots, set_of = [], [], []
        for j, (forest, rows) in enumerate(zip(forests, sets)):
            n, y_set = len(rows), y[rows]
            forest.trees = []
            for seq in np.random.SeedSequence(self.seed).spawn(self.n_trees):
                rng = np.random.default_rng(seq.spawn(1)[0])
                idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
                if np.unique(y_set[idx]).size < 2:
                    # degenerate bootstrap: fall back to the full sample
                    idx = np.arange(n)
                forest.trees.append(
                    DecisionTree(
                        max_depth=self.max_depth,
                        max_features="sqrt",
                        random_thresholds=self.random_thresholds,
                        seed_seq=seq,
                    )
                )
                roots.append(rows[idx])
                set_of.append(j)
            trees += forest.trees
        _grow_gini_trees(X, y, sets, None, trees, roots, set_of)
        return forests

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = [t.predict_proba(X) for t in self.trees]
        # each row's mean sums its trees pairwise, as a one-row call does
        return np.mean(np.stack(votes, axis=1), axis=1)

    def to_state(self) -> dict:
        return {"trees": [t.to_state() for t in self.trees]}

    def from_state(self, state: dict, width: int):
        if not state["trees"]:
            raise ValidationError("a forest needs at least one tree")
        self.trees = [
            DecisionTree(max_depth=self.max_depth).from_state(s, width)
            for s in state["trees"]
        ]
        return self


class RandomForest(_Forest):
    """Bagged trees with exhaustive thresholds: _Forest's defaults."""


class ExtraTrees(_Forest):
    bootstrap = False
    random_thresholds = True


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class GradientBoosting(_Learner):
    """Additive depth-limited trees on the logistic loss.  The weak learner
    is a squared-error regression tree whose leaves hold the Newton step for
    the logistic loss."""

    def __init__(self, n_rounds: int = 200, max_depth: int = 3, learning_rate: float = 0.1):
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.f0 = 0.0
        self.stages: list[_Tree] = []

    def fit_folds(self, X, y, sets):
        """Round r of every set grows together, one regression tree each."""
        X, y, sets = _check_sets(X, y, sets)
        models = self._copies(len(sets))
        scores = []  # per set: the ensemble's score of each of its rows
        for model, rows in zip(models, sets):
            p0 = np.clip(y[rows].mean(), 1e-6, 1 - 1e-6)
            model.f0 = float(np.log(p0 / (1 - p0)))
            model.stages = []
            scores.append(np.full(len(rows), model.f0))
        n, features = len(y), np.arange(X.shape[1])
        for _ in range(self.n_rounds):
            columns, hessians = [], []
            for rows, f in zip(sets, scores):
                p = _sigmoid(f)
                columns.append(np.stack((y[rows] - p, np.ones(len(rows)))))
                hessians.append((p * (1 - p))[None])
            stats, offsets = _stacked(n, sets, columns)
            (h,), _ = _stacked(n, sets, hessians)
            visits = [
                _newton_visit(stats[0, o : o + n], h[o : o + n], features)
                for o in offsets
            ]
            trees = _grow_trees(
                X, stats, sets, offsets, self.max_depth, visits, lambda _: _newton_cost
            )
            for j, (model, rows, tree) in enumerate(zip(models, sets, trees)):
                scores[j] = scores[j] + self.learning_rate * tree.predict(X)[rows]
                model.stages.append(tree)
        return models

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        f = np.full(X.shape[0], self.f0)
        for tree in self.stages:
            f = f + self.learning_rate * tree.predict(X)
        return _sigmoid(f)

    def to_state(self) -> dict:
        return {"f0": self.f0, "stages": [t.to_state() for t in self.stages]}

    def from_state(self, state: dict, width: int):
        if not state["stages"]:
            raise ValidationError("gradient boosting needs at least one stage")
        self.f0 = float(state["f0"])
        _check_finite("gradient boosting's f0", self.f0)
        self.stages = [_Tree.from_state(s, width) for s in state["stages"]]
        return self


def _newton_visit(r, h, features):
    """A regression tree's node visit for _grow_trees over rows with
    residuals r and hessians h: each node holds the Newton step."""

    def visit(idx, may_split):
        step = np.add.reduce(r[idx]) / max(np.add.reduce(h[idx]), 1e-12)
        if not may_split:
            return step, None
        return step, (features, 0.0, None)

    return visit


class KNearest(_Learner):
    """k-NN with probability = toxic fraction among the k nearest rows.

    The model keeps X, y and the ids of its training rows; a set's learner
    reads its rows of the shared X when it predicts.  Distance ties resolve
    by training-row index via a stable sort.
    """

    def __init__(self, k: int = 5):
        self.k = k
        self.X = None
        self.y = None
        self.rows = None

    def fit_folds(self, X, y, sets):
        X, y, sets = _check_sets(X, y, sets)
        if min(len(rows) for rows in sets) < self.k:
            raise DataError(f"need at least k={self.k} training rows")
        models = self._copies(len(sets))
        for model, rows in zip(models, sets):
            model.X, model.y, model.rows = X, y, rows
        return models

    def _training_rows(self):
        return _take_rows(self.X, self.rows), self.y[self.rows]

    def predict_proba(self, Xq) -> np.ndarray:
        Xq = np.asarray(Xq, dtype=float)
        X, y = self._training_rows()
        out = np.empty(Xq.shape[0])
        # chunked to bound the distance-matrix footprint
        step = max(1, int(2e7 // max(X.shape[0], 1)))
        for s in range(0, Xq.shape[0], step):
            block = Xq[s : s + step]
            # a stack of one-row products, each rounded as a one-row call
            d2 = (
                (block**2).sum(axis=1)[:, None]
                - (2 * block[:, None] @ X.T)[:, 0]
                + (X**2).sum(axis=1)[None, :]
            )
            idx = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            out[s : s + step] = y[idx].mean(axis=1)
        return out

    def to_state(self) -> dict:
        X, y = self._training_rows()
        return {"X": X.tolist(), "y": y.tolist(), "k": self.k}

    def from_state(self, state: dict, width: int):
        self.X = np.asarray(state["X"], dtype=float)
        self.y = np.asarray(state["y"], dtype=np.int64)
        self.rows = np.arange(len(self.y))
        self.k = state["k"]
        k_ok = type(self.k) is int and 1 <= self.k <= len(self.y)
        if self.X.shape != (len(self.y), width) or not k_ok:
            raise ValidationError(
                f"k-NN needs X of shape (labels, {width}) and an integer 1 <= k <= labels,"
                f" got X of shape {self.X.shape}, {len(self.y)} labels and k={self.k!r}"
            )
        _check_finite("k-NN training rows", self.X)
        return self


# cells (sets x rows x columns) of X one gradient loop stacks (2 MB): ten
# folds of a narrow X share a loop, and a set wider than this (DPC or TPC
# at reference scale) descends alone, holding one copy of its rows as a
# fold-by-fold fit would
_LR_STACK_CELLS = 1 << 18


class LogisticRegressionGD(_Learner):
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
        self.n_iter = 0  # gradient steps the last fit took

    def fit_folds(self, X, y, sets):
        """Sets of equal size descend together, up to _LR_STACK_CELLS cells
        of their rows at a time."""
        X, y, sets = _check_sets(X, y, sets)
        models = self._copies(len(sets))
        by_size = {}
        for rows, model in zip(sets, models):
            by_size.setdefault(len(rows), []).append((rows, model))
        for n, group in by_size.items():
            per = max(1, _LR_STACK_CELLS // max(1, n * X.shape[1]))
            for start in range(0, len(group), per):
                chunk = group[start : start + per]
                self._descend(X, y, [rows for rows, _ in chunk], [m for _, m in chunk])
        return models

    def _descend(self, X, y, sets, models):
        """Gradient descent for k training sets of n rows each, over one
        (k, n, d) stack of their rows; a set leaves the stack at the step
        it converges."""
        if len(sets) == 1:  # one set reads X itself when its rows are a run
            stack = _take_rows(X, sets[0])[None]
        else:
            stack = X[np.array(sets)]
        k, n, d = stack.shape
        targets = y[np.array(sets)].astype(float)
        # spectral-norm upper bounds via the Frobenius norm
        steps = np.array(
            [1.0 / ((np.linalg.norm(x) ** 2 + n) / (4.0 * n) + self.l2) for x in stack]
        )
        w, b = np.zeros((k, d)), np.zeros(k)
        # every pass works in these buffers, in the operation order of
        # p = _sigmoid(X @ w + b), gw = X.T @ err / n + l2 * w and
        # gb = err.mean(), so each set keeps those expressions' bits; the
        # stacked products are one matrix-vector product per set
        z, err = np.empty((k, n)), np.empty((k, n))
        gw, scratch = np.empty((k, d)), np.empty((k, d))
        live = list(models)  # the model of each stacked set
        arrays = (stack, targets, steps, w, b, z, err, gw, scratch)
        m, held = k, 0
        for it in range(self.max_iter):
            if m != held:  # the first m sets' arrays and the products' views
                xs, ts, ss, ws, bs, zs, es, gs, cs = (a[:m] for a in arrays)
                xts, ws3, zs3, es3, gs3 = (
                    xs.transpose(0, 2, 1), ws[..., None], zs[..., None],
                    es[..., None], gs[..., None],
                )
                held = m
            np.matmul(xs, ws3, out=zs3)
            zs += bs[:, None]
            np.maximum(zs, -500, out=zs)
            np.minimum(zs, 500, out=zs)
            np.negative(zs, out=zs)
            np.exp(zs, out=zs)
            zs += 1.0
            np.divide(1.0, zs, out=zs)
            np.subtract(zs, ts, out=es)
            np.matmul(xts, es3, out=gs3)
            gs /= n
            np.multiply(ws, self.l2, out=cs)
            gs += cs
            gb = np.add.reduce(es, axis=1)
            gb /= n
            top = np.maximum.reduce(np.abs(gs, out=cs), axis=1)
            gb_abs = np.abs(gb)
            # max(top, |gb|) < tol as Python's max takes it
            converged = np.where(gb_abs > top, gb_abs, top) < self.tol
            done = np.flatnonzero(converged) if np.logical_or.reduce(converged) else ()
            for i in done:
                live[i].n_iter = it
                live[i].coef, live[i].intercept = ws[i].copy(), float(bs[i])
            np.multiply(gs, ss[:, None], out=cs)
            ws -= cs
            bs -= ss * gb
            for i in done[::-1]:  # a converged set leaves; the last takes its place
                m -= 1
                if i != m:  # never so for a stack that is a view of X
                    for a in arrays:
                        a[i] = a[m]
                    live[i] = live[m]
            del live[m:]
            if not live:
                return
        for model, coef, intercept in zip(live, w, b):
            model.n_iter = self.max_iter
            model.coef, model.intercept = coef.copy(), float(intercept)

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        # one dot product per row: a matrix-vector product may round a row
        # differently from a one-row call
        return _sigmoid((X[:, None] @ self.coef)[:, 0] + self.intercept)

    def to_state(self) -> dict:
        return {"coef": self.coef.tolist(), "intercept": self.intercept}

    def from_state(self, state: dict, width: int):
        self.coef = np.asarray(state["coef"], dtype=float)
        self.intercept = float(state["intercept"])
        if self.coef.shape != (width,):
            raise ValidationError(
                f"logistic regression has {self.coef.size} coefficients for "
                f"{width} columns"
            )
        _check_finite("logistic regression weights", self.coef, self.intercept)
        return self


class AdaBoostStumps(_Learner):
    """Discrete two-class boosting over depth-1 stumps.

    Stump weights are ln((1 - err) / err); the predicted probability is
    the weighted vote share for the toxic class.
    """

    def __init__(self, n_stumps: int = 100):
        self.n_stumps = n_stumps
        self.stumps: list[DecisionTree] = []
        self.alphas: list[float] = []

    def fit_folds(self, X, y, sets):
        """Round r of every set still boosting grows its stump together; a
        set stops at its own round."""
        X, y, sets = _check_sets(X, y, sets)
        models = self._copies(len(sets))
        weights = []
        for model, rows in zip(models, sets):
            model.stumps, model.alphas = [], []
            weights.append(np.full(len(rows), 1.0 / len(rows)))
        boosting = list(range(len(sets)))
        # round 1 fits every set on uniform weights
        first = stumps = DecisionTree(max_depth=1).fit_folds(X, y, sets)
        for r in range(self.n_stumps):
            if not boosting:
                break
            if r:
                stumps = DecisionTree(max_depth=1).fit_folds(
                    X, y, [sets[j] for j in boosting], [weights[j] for j in boosting]
                )
            still = []
            for j, stump in zip(boosting, stumps):
                rows, w, model = sets[j], weights[j], models[j]
                pred = (stump.predict_proba(X)[rows] >= 0.5).astype(np.int64)
                miss = pred != y[rows]
                err = float(w[miss].sum())
                if err >= 0.5:
                    continue
                err = max(err, 1e-10)
                alpha = float(np.log((1 - err) / err))
                model.stumps.append(stump)
                model.alphas.append(alpha)
                w = w * np.exp(alpha * miss)
                w /= w.sum()
                weights[j] = w
                if err > 1e-10:
                    still.append(j)
            boosting = still
        # no stump beat chance, so round 1's failed: keep it as a single
        # majority-vote stump
        for model, stump in zip(models, first):
            if not model.stumps:
                model.stumps, model.alphas = [stump], [1.0]
        return models

    def predict_proba(self, X) -> np.ndarray:
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

    def from_state(self, state: dict, width: int):
        self.stumps = [
            DecisionTree(max_depth=1).from_state(s, width) for s in state["stumps"]
        ]
        self.alphas = [float(a) for a in state["alphas"]]
        if not self.stumps or len(self.alphas) != len(self.stumps):
            raise ValidationError("AdaBoost needs one or more stumps, one alpha each")
        _check_finite("AdaBoost alphas", self.alphas)
        return self


def make_classifier(spec: ClassifierSpec):
    """Instantiate a learner with per-algorithm defaults filled in."""
    alg = spec.algorithm
    if alg == "rf":
        return RandomForest(spec.trees or 200, spec.depth or 12, seed=spec.seed)
    if alg == "ert":
        return ExtraTrees(spec.trees or 200, spec.depth or 12, seed=spec.seed)
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
    # ClassifierSpec admits no algorithm outside ALGORITHMS, so this is "dt"
    return DecisionTree(max_depth=spec.depth or 12)


def preset_spec(name: str, seed: int = 0, trees: int | None = None) -> ClassifierSpec:
    """Look up a preset by name, optionally overriding seed and size."""
    if name not in PRESETS:
        raise ConfigError(f"unknown classifier preset {name!r}")
    spec = replace(PRESETS[name], seed=seed)
    if trees is not None:
        spec = replace(spec, trees=trees)
    return spec
