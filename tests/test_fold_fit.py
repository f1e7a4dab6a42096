"""Fold fits: every learner's fit_folds against one fit per training set.

fit_folds(X, y, sets) must give, for each set, the learner that
fit(X[rows], y[rows]) gives, byte for byte: the folds of a cross-validation
grow their trees together and share a gradient loop, but none of that may
reach a model.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from peptaste.toxicity import classifiers as clf

LEARNERS = {
    "rf": lambda: clf.RandomForest(4, 6, seed=5),
    "ert": lambda: clf.ExtraTrees(3, 5, seed=6),
    "gbt": lambda: clf.GradientBoosting(4, 3, 0.1),
    "knn": lambda: clf.KNearest(2),
    "lr": lambda: clf.LogisticRegressionGD(l2=1e-3, max_iter=400),
    "adb": lambda: clf.AdaBoostStumps(6),
    "dt": lambda: clf.DecisionTree(max_depth=5),
}


def one_fit_per_set(make, X, y, sets):
    return [make().fit(X[rows], y[rows]) for rows in sets]


def states(models) -> str:
    return json.dumps([m.to_state() for m in models])


def assert_same_models(make, X, y, sets):
    """fit_folds against one fit per set; returns the fold models."""
    models = make().fit_folds(X, y, sets)
    expected = one_fit_per_set(make, X, y, sets)
    assert states(models) == states(expected)
    if isinstance(models[0], clf.LogisticRegressionGD):
        assert [m.n_iter for m in models] == [m.n_iter for m in expected]
    return models


@st.composite
def fold_sets(draw):
    """Quantized features (ties), one to five training sets of random sizes
    (each with both classes, in row order or shuffled) over the same rows."""
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 8))
    X = rng.integers(0, levels, size=(n, d)) / levels
    if draw(st.booleans()):
        X += rng.normal(scale=1e-3, size=(n, d))
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    sets = []
    for _ in range(draw(st.integers(1, 5))):
        size = int(rng.integers(2, n + 1))
        rest = rng.choice(np.arange(2, n), size - 2, replace=False)
        rows = np.concatenate([[0, 1], rest])
        sets.append(rng.permutation(rows) if draw(st.booleans()) else np.sort(rows))
    return X, y, sets


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(LEARNERS)), fold_sets())
def test_fold_fit_matches_one_fit_per_set(name, case):
    X, y, sets = case
    assert_same_models(LEARNERS[name], X, y, sets)


def test_fit_is_the_one_set_case():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = (X[:, 0] > 0).astype(np.int64)
    for make in LEARNERS.values():
        model = make()
        assert model.fit(X, y) is model
        (only,) = make().fit_folds(X, y, [np.arange(30)])
        assert states([only]) == states([model])


def test_forest_fold_with_degenerate_bootstraps():
    # set 1 holds one toxic row among 30: most bootstraps miss it, and
    # those trees fall back to the full set
    rng = np.random.default_rng(3)
    X = np.round(rng.normal(size=(80, 5)), 1)
    y = (X[:, 0] > 0).astype(np.int64)
    lone = np.flatnonzero(y == 1)[0]
    sets = [np.arange(40, 80), np.sort(np.append(np.flatnonzero(y == 0)[:29], lone))]
    forest = clf.RandomForest(7, 6, seed=4)
    assert_same_models(lambda: clf.RandomForest(7, 6, seed=4), X, y, sets)
    degenerate = 0
    for seq in np.random.SeedSequence(forest.seed).spawn(forest.n_trees):
        boot = np.random.default_rng(seq.spawn(1)[0]).integers(0, 30, size=30)
        degenerate += np.unique(y[sets[1]][boot]).size < 2
    assert degenerate > 0


def test_lr_fold_leaves_the_stack_at_its_own_step():
    # three sets of 60 rows share one stack: two noisy ones converge at
    # different steps, the linearly separable one hits max_iter; a set of
    # another size descends in its own stack
    rng = np.random.default_rng(1)
    X = rng.normal(size=(180, 3))
    y = rng.integers(0, 2, size=180)
    sep = np.arange(60, 120)
    X[sep, 0] = np.where(y[sep] == 1, 1.0, -1.0) + 0.1 * X[sep, 0]
    sets = [np.arange(0, 60), sep, np.arange(120, 180), np.arange(5, 52)]
    make = lambda: clf.LogisticRegressionGD(max_iter=500)  # noqa: E731
    models = assert_same_models(make, X, y, sets)
    steps = [m.n_iter for m in models]
    assert steps[1] == 500
    assert max(steps[0], steps[2], steps[3]) < 500 and steps[0] != steps[2]


def test_adaboost_folds_stop_at_their_own_round():
    # set 0 is split by one stump (zero error: it stops after one round),
    # set 1 boosts every round, and set 2's 32 rows all look alike with 16
    # of each class, so no stump beats chance (error exactly 0.5) and it
    # keeps the majority-vote stump
    rng = np.random.default_rng(5)
    X = rng.normal(size=(92, 3))
    y = rng.integers(0, 2, size=92)
    X[:30, 0] = np.where(y[:30] == 1, 2.0, -2.0)
    X[60:] = 0.5
    y[60:] = np.arange(32) % 2
    sets = [np.arange(0, 30), np.arange(30, 60), np.arange(60, 92)]
    models = assert_same_models(lambda: clf.AdaBoostStumps(8), X, y, sets)
    assert [len(m.stumps) for m in models] == [1, 8, 1]
    assert models[2].alphas == [1.0]


def test_adaboost_without_rounds_keeps_a_majority_vote_stump():
    # no boosting round: every set keeps its uniform-weight stump, weight 1
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)
    sets = [np.arange(0, 25), np.arange(10, 40)]
    models = assert_same_models(lambda: clf.AdaBoostStumps(0), X, y, sets)
    for model, rows in zip(models, sets):
        stump = clf.DecisionTree(max_depth=1).fit(X[rows], y[rows])
        assert model.alphas == [1.0]
        assert states(model.stumps) == states([stump])


def test_lr_fold_stack_stays_under_its_cell_budget():
    # ten folds of 1,800 x 60 rows would take 8.6 MB stacked; the budget
    # lets two share a loop, and no fold-by-fold copy is made besides
    rng = np.random.default_rng(6)
    X = rng.normal(size=(2000, 60))
    y = (X[:, 0] > 0).astype(np.int64)
    fold_of = np.arange(2000) % 10
    sets = [np.flatnonzero(fold_of != f) for f in range(10)]
    budget = clf._LR_STACK_CELLS * X.itemsize
    assert 1800 * 60 * X.itemsize * 2 < budget < 1800 * 60 * X.itemsize * 3
    tracemalloc.start()
    try:
        clf.LogisticRegressionGD(max_iter=3).fit_folds(X, y, sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget


def test_lr_fold_fit_does_not_write_to_X():
    # one set that is a run of X's rows descends on a view of X
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    before = X.copy()
    with mock.patch.object(clf, "_LR_STACK_CELLS", 1):
        clf.LogisticRegressionGD(max_iter=50).fit_folds(
            X, y, [np.arange(0, 40), np.arange(10, 50), np.arange(0, 50)]
        )
    assert np.array_equal(X, before)
