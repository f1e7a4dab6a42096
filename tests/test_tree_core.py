"""The tree learners' split search: golden model digests and oracle tests.

The digests were recorded before the split search was vectorized; they pin
every tree learner's fitted state byte for byte.
"""

import hashlib
import json
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from peptaste import pipeline
from peptaste.toxicity import classifiers as clf

TREE_PRESETS = ("rf", "ert", "gbt-l", "gbt-x", "adb", "dt")


def noisy_tox_corpus(rng, n=70, lo=6, hi=20, flip=0.2):
    """Toxicity corpora with overlapping compositions and flipped labels, so
    trees grow well past stumps (the conftest corpus is separable)."""

    aa = np.array(list("ACDEFGHIKLMNPQRSTVWY"))

    def profile(enriched):
        p = np.ones(20)
        p[np.isin(aa, list(enriched))] = 2.0
        return p / p.sum()

    tox_p, ben_p = profile("KRCWHLFI"), profile("DESTGANQ")

    def sample(p):
        length = int(rng.integers(lo, hi + 1))
        return "".join(rng.choice(aa, size=length, p=p))

    tox, ben = set(), set()
    while len(tox) < n or len(ben) < n:
        toxic = bool(rng.random() < 0.5)
        seq = sample(tox_p if toxic else ben_p)
        if rng.random() < flip:
            toxic = not toxic
        bucket = tox if toxic else ben
        if len(bucket) < n and seq not in tox | ben:
            bucket.add(seq)
    return sorted(tox), sorted(ben)


def noisy_matrix(rng, n=90, d=7):
    """Quantized noisy features: many ties, one constant column."""
    X = np.round(rng.normal(size=(n, d)), 1)
    X[:, 3] = 0.5
    y = (X[:, 0] + X[:, 1] + rng.normal(scale=1.0, size=n) > 0).astype(np.int64)
    return X, y


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_toxtrain_model_golden_digest(tmp_path):
    tox, ben = noisy_tox_corpus(np.random.default_rng(11))
    pos, neg = tmp_path / "toxic.txt", tmp_path / "benign.txt"
    pos.write_text("\n".join(tox) + "\n")
    neg.write_text("\n".join(ben) + "\n")
    out = tmp_path / "model.json"
    # the selector (dt) is pinned through its cross-validated MCCs, the five
    # members through the model file
    options = pipeline.ToxTrainOptions(
        seed=5,
        folds=3,
        selector="dt",
        member_names=("rf", "ert", "gbt-l", "gbt-x", "adb"),
        member_trees=4,
        universe=("AAC", "GAAC"),
    )
    result = pipeline.run_toxtrain(str(pos), str(neg), str(out), options)
    doc = json.loads(out.read_text())
    rf_nodes = [len(t["tree"]["feature"]) for t in doc["members"]["rf"]["trees"]]
    assert min(rf_nodes) > 3  # trees grow past stumps
    assert [(r.stage, r.ids, r.mcc) for r in result.selection.trace] == [
        ("single", ("AAC",), 0.15891043154093207),
        ("single", ("GAAC",), 0.03296902366978935),
        ("pair", ("AAC", "GAAC"), 0.047836487323493986),
    ]
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "4d0a1888f4162189ee07ae06855de407a61e90862b918d2aefce9635b4a2f8a6"
    )


def test_learner_states_golden_digests():
    X, y = noisy_matrix(np.random.default_rng(3))
    digests = {}
    for name in TREE_PRESETS:
        model = clf.make_classifier(clf.preset_spec(name, seed=9, trees=5))
        model.fit(X, y)
        digests[name] = _sha(json.dumps(model.to_state(), sort_keys=True))
    assert digests == GOLDEN_STATES


GOLDEN_STATES = {
    "rf": "6bc4d46ce9b71ae3ebbdf54f498ec51a759ebe606fe6e4b6aa7222fe6d6a6142",
    "ert": "6c32b5f1fa2a4a5f43235247f4c6a84b3808fdbf3277d97006825c57aa2ffc2a",
    "gbt-l": "0b00edd7d7dd716eda6549fea104d3fcfd91a06ff491e14840f49692afb119ac",
    "gbt-x": "f97c487ee0d1b90f5337e057037e36685c2f1593cde003d11deaf53c6bbc8143",
    "adb": "022558f46a73398c202e76331d7a545f55d616bf81e4f7e79c146f8159d4ec2b",
    "dt": "65051669610269f7e326e3b96cf84a9d5c06c03cd6004fc04733e0637a66d6b1",
}


# --- oracle: the per-feature split searches the shared scorer replaced -------


def reference_gini_split(X, y, w, feat_ids, rng=None):
    best = None  # (impurity, feature, threshold)
    total_w = w.sum()
    for f in feat_ids:
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        w_sorted = w[order]
        wy_sorted = w_sorted * y[order]
        cw = np.cumsum(w_sorted)
        cwy = np.cumsum(wy_sorted)
        if rng is not None:
            # one uniform threshold per non-constant column; its candidate
            # is the boundary after the last row at or below it
            lo, hi = xs_sorted[0], xs_sorted[-1]
            if lo == hi:
                continue
            thr = lo + (hi - lo) * rng.random()
            distinct = np.array([np.count_nonzero(xs <= thr) - 1])
            if distinct[0] == len(xs) - 1:
                continue
        else:
            distinct = np.nonzero(xs_sorted[:-1] < xs_sorted[1:])[0]
            if distinct.size == 0:
                continue
        wl = cw[distinct]
        wr = total_w - wl
        pl = cwy[distinct] / wl
        pr = (cwy[-1] - cwy[distinct]) / wr
        imp = wl * pl * (1 - pl) + wr * pr * (1 - pr)
        j = int(np.argmin(imp))
        if rng is None:
            thr = 0.5 * (xs_sorted[distinct[j]] + xs_sorted[distinct[j] + 1])
        if best is None or imp[j] < best[0] - 1e-15:
            best = (float(imp[j]), f, float(thr))
    return best


def reference_newton_split(X, r):
    best = None  # (gain, feature, threshold)
    n = len(r)
    for f in range(X.shape[1]):
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        rs = np.cumsum(r[order])
        ns = np.arange(1, n + 1)
        distinct = np.nonzero(xs_sorted[:-1] < xs_sorted[1:])[0]
        if distinct.size == 0:
            continue
        nl = ns[distinct]
        nr = n - nl
        sl = rs[distinct]
        sr = rs[-1] - sl
        gain = sl**2 / nl + sr**2 / nr
        j = int(np.argmax(gain))
        thr = 0.5 * (xs_sorted[distinct[j]] + xs_sorted[distinct[j] + 1])
        if best is None or gain[j] > best[0] + 1e-15:
            best = (float(gain[j]), f, float(thr))
    return best


def bits(split):
    """A split with its floats as exact hex strings."""
    if split is None:
        return None
    score, f, thr = split
    return float(score).hex(), int(f), float(thr).hex()


def best_split(X, idx, feat_ids, stats, cost, rng=None):
    """Best (cost, feature, threshold) of one node, rows idx of X with
    statistics stats (rows x s), scored by clf._best_splits; cost maps the
    node's left and right sums to the quantity to minimize."""
    node = (np.arange(len(idx)), 0, feat_ids, 0.0, rng)
    return clf._best_splits(X[idx], stats.T, [node], lambda _: cost)[0]


def gini_split(X, y, w, feat_ids, rng=None):
    stats = np.column_stack((w, w * y))
    rows = np.arange(len(y))
    return best_split(X, rows, feat_ids, stats, clf._gini_cost(w.sum()), rng)


@st.composite
def nodes(draw):
    """A node's rows: few distinct values (ties), sometimes a constant
    column or bootstrap-duplicated rows, labels, and uniform or
    AdaBoost-like weights."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    levels = draw(st.integers(1, 12))
    X = rng.integers(0, levels, size=(n, d)) / levels
    if draw(st.booleans()):
        X += rng.normal(scale=1e-3, size=(n, d))  # distinct values too
    if draw(st.booleans()):
        X[:, rng.integers(0, d)] = 0.25  # constant column
    y = rng.integers(0, 2, size=n)
    if draw(st.booleans()):
        boot = rng.integers(0, n, size=n)  # bootstrap duplicates
        X, y = X[boot], y[boot]
    weighting = draw(st.sampled_from(["uniform", "adaboost"]))
    if weighting == "uniform":
        w = np.full(n, 1.0 / n)
    else:
        w = np.exp(rng.normal(scale=2.0, size=n))
        w /= w.sum()
    if draw(st.booleans()):
        k = max(1, int(np.sqrt(d)))  # RF's sqrt feature subset
        feat_ids = np.sort(rng.choice(d, size=k, replace=False))
    else:
        feat_ids = np.arange(d)
    return X, y, w, feat_ids, seed


# the default block scores every column at once; a one-column block walks
# the columns block by block
BLOCKS = (clf._SPLIT_BLOCK, 1)


@settings(max_examples=300, deadline=None)
@given(nodes())
def test_gini_scorer_matches_per_feature_loop(node):
    X, y, w, feat_ids, _ = node
    expected = bits(reference_gini_split(X, y, w, feat_ids))
    for block in BLOCKS:
        with mock.patch.object(clf, "_SPLIT_BLOCK", block):
            assert bits(gini_split(X, y, w, feat_ids)) == expected


@settings(max_examples=300, deadline=None)
@given(nodes())
def test_random_threshold_scorer_matches_per_feature_loop(node):
    X, y, w, feat_ids, seed = node
    theirs = np.random.default_rng(seed)
    expected = bits(reference_gini_split(X, y, w, feat_ids, theirs))
    for block in BLOCKS:
        ours = np.random.default_rng(seed)
        with mock.patch.object(clf, "_SPLIT_BLOCK", block):
            assert bits(gini_split(X, y, w, feat_ids, ours)) == expected
        # the same draws, in the same order, were taken
        assert ours.bit_generator.state == theirs.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(nodes())
def test_newton_scorer_matches_per_feature_loop(node):
    X, y, w, _, seed = node
    r = np.random.default_rng(seed).normal(size=len(y)) * w
    stats = np.column_stack((r, np.ones(len(r))))
    rows, features = np.arange(len(r)), np.arange(X.shape[1])
    expected = bits(reference_newton_split(X, r))
    for block in BLOCKS:
        with mock.patch.object(clf, "_SPLIT_BLOCK", block):
            split = best_split(X, rows, features, stats, clf._newton_cost)
        negated = None if split is None else (-split[0], split[1], split[2])
        assert bits(negated) == expected


def test_constant_node_has_no_split():
    X = np.full((6, 3), 2.0)
    y = np.array([0, 1, 0, 1, 0, 1])
    w = np.full(6, 1 / 6)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert gini_split(X, y, w, np.arange(3)) is None
    assert gini_split(X, y, w, np.arange(3), rng) is None
    assert rng.bit_generator.state == state  # constant columns draw nothing


def test_ties_keep_the_first_feature():
    # columns 0 and 2 give the same partition; the earlier one wins
    X = np.array([[0.0, 5.0, 1.0], [0.0, 5.0, 1.0], [1.0, 5.0, 3.0], [1.0, 5.0, 3.0]])
    y = np.array([0, 0, 1, 1])
    w = np.full(4, 0.25)
    assert gini_split(X, y, w, np.arange(3)) == (0.0, 0, 0.5)
    assert gini_split(X, y, w, np.array([1, 2])) == (0.0, 2, 2.0)


def test_tree_state_round_trip():
    X, y = noisy_matrix(np.random.default_rng(4))
    model = clf.DecisionTree(max_depth=4).fit(X, y)
    state = model.to_state()
    assert all(type(v) is list for v in state["tree"].values())
    again = clf.DecisionTree().from_state(json.loads(json.dumps(state)), X.shape[1])
    assert isinstance(again.tree.feature, np.ndarray)
    assert json.dumps(again.to_state()) == json.dumps(state)
    assert np.array_equal(again.predict_proba(X), model.predict_proba(X))


# --- lockstep growth: a forest grows its trees together ----------------------


def one_tree_fits(forest, X, y):
    """The forest's trees as separate one-tree DecisionTree fits on X[boot],
    with the seeds and bootstraps the forest draws."""
    n = len(y)
    states = []
    for seq in np.random.SeedSequence(forest.seed).spawn(forest.n_trees):
        rng = np.random.default_rng(seq.spawn(1)[0])
        idx = rng.integers(0, n, size=n) if forest.bootstrap else np.arange(n)
        if np.unique(y[idx]).size < 2:
            idx = np.arange(n)
        tree = clf.DecisionTree(
            max_depth=forest.max_depth,
            max_features="sqrt",
            random_thresholds=forest.random_thresholds,
            seed_seq=seq,
        )
        states.append(tree.fit(X[idx], y[idx]).to_state())
    return states


@st.composite
def forests(draw):
    """Forest fits with ties, constant and duplicate columns, sometimes a
    lone minority row (degenerate bootstraps), one to seven trees and
    depth limits from stumps to deep trees."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 10))
    X = rng.integers(0, levels, size=(n, d)) / levels
    if draw(st.booleans()):
        X += rng.normal(scale=1e-3, size=(n, d))
    if d > 1 and draw(st.booleans()):
        X[:, rng.integers(0, d)] = 0.25  # constant column
    if d > 1 and draw(st.booleans()):
        X[:, 0] = X[:, d - 1]  # duplicate column
    y = rng.integers(0, 2, size=n)
    if draw(st.booleans()):
        y[:] = 0  # one minority row: most bootstraps miss it
    y[rng.choice(n, size=2, replace=False)] = (0, 1)
    kind = draw(st.sampled_from([clf.RandomForest, clf.ExtraTrees]))
    n_trees, depth = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    forest = kind(n_trees, depth, seed=draw(st.integers(0, 99)))
    return forest, X, y


@settings(max_examples=150, deadline=None)
@given(forests())
def test_lockstep_forest_matches_one_tree_fits(case):
    forest, X, y = case
    expected = json.dumps(one_tree_fits(forest, X, y))
    for block in BLOCKS:  # 1: every chunk holds one node
        with mock.patch.object(clf, "_SPLIT_BLOCK", block):
            forest.fit(X, y)
        assert json.dumps([t.to_state() for t in forest.trees]) == expected


def test_forest_searches_all_trees_in_one_call_per_step():
    X, y = noisy_matrix(np.random.default_rng(5), n=120, d=16)
    calls = []
    scorer = clf._best_splits

    def counted(X, stats, nodes, cost_of):
        calls.append(len(nodes))
        return scorer(X, stats, nodes, cost_of)

    with mock.patch.object(clf, "_best_splits", counted):
        forest = clf.RandomForest(6, 12, seed=3).fit(X, y)
    nodes = [len(t.tree.feature) for t in forest.trees]
    assert len(calls) <= max(nodes) < sum(nodes)
    assert sum(calls) >= sum(n // 2 for n in nodes)  # every split was scored


def test_forest_fit_copies_no_rows_of_X():
    # a per-tree X[boot] copy alone would take X.nbytes at the peak
    rng = np.random.default_rng(6)
    X = rng.normal(size=(1500, 2000))
    y = (X[:, 0] > 0).astype(np.int64)
    tracemalloc.start()
    try:
        clf.RandomForest(6, 2, seed=1).fit(X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 2
