import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peptaste.errors import ConfigError, DataError
from peptaste.sequences import Peptide
from peptaste import descriptors
from peptaste.toxicity.classifiers import (
    AdaBoostStumps,
    ClassifierSpec,
    DecisionTree,
    ExtraTrees,
    GradientBoosting,
    KNearest,
    LogisticRegressionGD,
    RandomForest,
    make_classifier,
    preset_spec,
)
from peptaste.toxicity.ensemble import (
    EnsembleModel,
    enumerate_weight_vectors,
    fit_members,
    forward_select,
    load_model,
    save_model,
    weight_grid_search,
)
from peptaste.toxicity.metrics import (
    compute_metrics,
    cross_val_probas,
    cross_validate,
    metrics_from_probas,
    stratified_fold_ids,
)


def separable_data(n=200, d=10, margin=1.0, seed=0):
    """Linearly separable two-class points: the first coordinate carries the
    class with the stated margin around zero, the rest is noise."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = rng.normal(size=(n, d))
    offset = margin / 2 + rng.uniform(0, 2, size=n)
    X[:, 0] = np.where(y == 1, offset, -offset)
    return X, y


class TestMetrics:
    def test_perfect(self):
        r = compute_metrics(10, 0, 10, 0)
        assert r.mcc == 1.0 and r.accuracy == 1.0 and r.f1 == 1.0

    def test_reference_confusion(self):
        r = compute_metrics(212, 17, 266, 71)
        assert r.accuracy == pytest.approx(0.8445, abs=1e-4)
        assert r.precision == pytest.approx(0.9258, abs=1e-4)
        assert r.specificity == pytest.approx(0.9399, abs=1e-4)
        assert r.mcc == pytest.approx(0.7019, abs=1e-4)

    def test_degenerate_all_positive(self):
        r = compute_metrics(10, 10, 0, 0)
        assert r.mcc == 0.0

    def test_mcc_symmetry_under_label_swap(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            tp, fp, tn, fn = rng.integers(0, 50, size=4)
            if tp + fp + tn + fn == 0:
                continue
            a = compute_metrics(int(tp), int(fp), int(tn), int(fn)).mcc
            b = compute_metrics(int(tn), int(fn), int(tp), int(fp)).mcc
            assert a == pytest.approx(b, abs=1e-12)

    def test_counts_validation(self):
        with pytest.raises(DataError):
            compute_metrics(-1, 0, 0, 1)


class TestFolds:
    def test_sizes_differ_by_at_most_one(self):
        y = np.array([0] * 13 + [1] * 17)
        folds = stratified_fold_ids(y, 5, seed=1)
        for cls in (0, 1):
            sizes = [int(((folds == f) & (y == cls)).sum()) for f in range(5)]
            assert max(sizes) - min(sizes) <= 1

    def test_exact_balance_case(self):
        y = np.array([0, 1] * 10)
        folds = stratified_fold_ids(y, 10, seed=0)
        for f in range(10):
            assert ((folds == f) & (y == 0)).sum() == 1
            assert ((folds == f) & (y == 1)).sum() == 1

    def test_too_few_per_class(self):
        with pytest.raises(DataError):
            stratified_fold_ids(np.array([0, 0, 1, 1]), 3)

    def test_constant_predictor_mcc_zero(self):
        X, y = separable_data(40, 4, seed=2)

        class Constant:
            def fit_folds(self, X, y, sets):
                return [self for _ in sets]

            def predict_proba(self, X):
                return np.ones(len(X))

        report = cross_validate(Constant, X, y, folds=4, seed=0)
        assert report.mcc == 0.0

    def test_pooled_equals_per_fold_sum(self):
        X, y = separable_data(60, 5, seed=3)
        folds = 5
        seed = 4
        spec = ClassifierSpec("dt", depth=4)
        probas = cross_val_probas(lambda: make_classifier(spec), X, y, folds, seed)
        pooled = metrics_from_probas(y, probas)
        fold_of = stratified_fold_ids(y, folds, seed)
        totals = np.zeros(4, dtype=int)
        for f in range(folds):
            mask = fold_of == f
            calls = (probas[mask] >= 0.5).astype(int)
            tp = int(((y[mask] == 1) & (calls == 1)).sum())
            fp = int(((y[mask] == 0) & (calls == 1)).sum())
            tn = int(((y[mask] == 0) & (calls == 0)).sum())
            fn = int(((y[mask] == 1) & (calls == 0)).sum())
            totals += np.array([tp, fp, tn, fn])
        assert (pooled.tp, pooled.fp, pooled.tn, pooled.fn) == tuple(totals)


class TestBaseClassifiers:
    def test_dt_memorizes_two_points(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = DecisionTree(max_depth=3).fit(X, y)
        assert model.predict_proba(X).round().tolist() == [0.0, 1.0]

    @pytest.mark.parametrize(
        "cls",
        [RandomForest, ExtraTrees, GradientBoosting, KNearest, LogisticRegressionGD,
         AdaBoostStumps, DecisionTree],
    )
    def test_fit_takes_no_sample_weights(self, cls):
        # weights only reach a tree through fit_folds (AdaBoost's rounds)
        X, y = separable_data(20, 2)
        with pytest.raises(TypeError):
            cls().fit(X, y, np.full(len(y), 1 / len(y)))

    def test_knn_self_label(self):
        X, y = separable_data(30, 3, seed=5)
        model = KNearest(k=1).fit(X, y)
        assert np.array_equal(model.predict_proba(X), y.astype(float))

    def test_lr_separates_1d(self):
        # oracle: a grid of scalar thresholds confirms separability
        rng = np.random.default_rng(6)
        X = np.concatenate([rng.uniform(-2, -1, 20), rng.uniform(1, 2, 20)])[:, None]
        y = np.array([0] * 20 + [1] * 20)
        thresholds = np.linspace(-3, 3, 601)
        best = max(
            ((X[:, 0] > t).astype(int) == y).mean() for t in thresholds
        )
        assert best == 1.0
        model = LogisticRegressionGD().fit(X, y)
        assert (((model.predict_proba(X) >= 0.5).astype(int)) == y).all()

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RandomForest(50, 8, seed=0),
            lambda: ExtraTrees(50, 8, seed=0),
            lambda: GradientBoosting(60, 3, 0.1),
            lambda: KNearest(5),
            lambda: LogisticRegressionGD(),
            lambda: AdaBoostStumps(40),
            lambda: DecisionTree(max_depth=8),
        ],
        ids=["rf", "ert", "gbt", "knn", "lr", "adb", "dt"],
    )
    def test_every_learner_separates(self, factory):
        X, y = separable_data(200, 10, margin=1.0, seed=7)
        report = cross_validate(factory, X, y, folds=5, seed=8)
        assert report.mcc >= 0.9

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            DecisionTree().fit(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_forest_deterministic(self):
        X, y = separable_data(80, 6, seed=9)
        a = RandomForest(20, 6, seed=3).fit(X, y).predict_proba(X)
        b = RandomForest(20, 6, seed=3).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ClassifierSpec("svm")
        with pytest.raises(ConfigError):
            ClassifierSpec("rf", trees=0)
        with pytest.raises(ConfigError):
            preset_spec("catboost")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", 0.0),
            ("learning_rate", -0.1),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("l2", -1e-4),
            ("l2", float("nan")),
            ("l2", float("inf")),
        ],
    )
    def test_spec_rejects_non_finite_or_out_of_range_settings(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ClassifierSpec("gbt", **{field: value})


def reference_logistic_fit(model, X, y):
    """LogisticRegressionGD.fit as one allocating loop: (coef, intercept,
    gradient steps taken)."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    lipschitz = (np.linalg.norm(X) ** 2 + n) / (4.0 * n) + model.l2
    step = 1.0 / lipschitz
    for it in range(model.max_iter):
        p = 1.0 / (1.0 + np.exp(-np.clip(X @ w + b, -500, 500)))
        err = p - y
        gw = X.T @ err / n + model.l2 * w
        gb = err.mean()
        if max(np.abs(gw).max(), abs(gb)) < model.tol:
            return w, float(b), it
        w -= step * gw
        b -= step * gb
    return w, float(b), model.max_iter


class TestLogisticRegressionLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 150),
        st.integers(1, 30),
        st.sampled_from([1e-3, 1.0, 40.0]),
        st.sampled_from([0.0, 1e-4, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    def test_in_place_loop_matches_reference_bits(self, n, d, scale, l2, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * scale
        if seed % 3 == 0:
            X = np.round(X)  # ties and exact zeros
        y = rng.integers(0, 2, size=n)
        y[rng.choice(n, size=2, replace=False)] = (0, 1)
        model = LogisticRegressionGD(l2=l2, max_iter=int(rng.integers(1, 400)))
        model.fit(X, y)
        w, b, steps = reference_logistic_fit(model, X, y)
        assert model.coef.tobytes() == w.tobytes()
        assert model.intercept.hex() == b.hex()
        assert model.n_iter == steps

    def test_converged_fit_stops_before_the_cap(self):
        X, y = separable_data(60, 3, seed=4)
        model = LogisticRegressionGD(l2=0.5).fit(X, y)
        w, b, steps = reference_logistic_fit(model, X, y)
        assert 0 < model.n_iter == steps < model.max_iter
        assert model.coef.tobytes() == w.tobytes()


class TestWeightVectors:
    def test_two_members(self):
        assert len(enumerate_weight_vectors(2)) == 11

    def test_five_members_stars_and_bars(self):
        vectors = enumerate_weight_vectors(5)
        assert len(vectors) == 1001
        for w in vectors:
            assert sum(w) == pytest.approx(1.0, abs=1e-9)
            assert all(x >= 0 for x in w)

    def test_lexicographic_order(self):
        vectors = enumerate_weight_vectors(3)
        assert len(vectors) == 66
        assert vectors == sorted(vectors)
        # each weight is u * 0.1, so 0.3 and 0.7 carry the bits of 3 * 0.1 and 7 * 0.1
        assert vectors[:4] == [
            (0.0, 0.0, 1.0),
            (0.0, 0.1, 0.9),
            (0.0, 0.2, 0.8),
            (0.0, 0.30000000000000004, 0.7000000000000001),
        ]
        assert vectors[-1] == (1.0, 0.0, 0.0)


class TestWeightSearch:
    def test_perfect_member_takes_all_weight(self):
        X, y = separable_data(80, 6, margin=1.2, seed=10)
        specs = {
            "lr": ClassifierSpec("lr"),
            "dt": ClassifierSpec("dt", depth=1),
        }
        weights, mcc, probas = weight_grid_search(specs, X, y, folds=4, seed=11)
        # verify the winner by independent re-scoring of the cached probas
        best = None
        for w in enumerate_weight_vectors(2):
            combined = probas @ np.array(w)
            m = metrics_from_probas(y, combined).mcc
            if best is None or m > best[1]:
                best = (w, m)
        assert weights == best[0]
        assert mcc == pytest.approx(best[1])

    def test_tie_prefers_lexicographic_smallest(self):
        y = np.array([0, 1] * 10)
        probas = np.column_stack([y.astype(float), y.astype(float)])

        class Echo:
            def __init__(self, col):
                self.col = col

            def fit(self, X, yy):
                return self

            def predict_proba(self, X):
                return X[:, self.col]

        # both members perfect: every weight vector scores MCC 1, so the
        # lexicographically smallest (0.0, 1.0) must win
        X = probas
        specs = {"a": ClassifierSpec("knn", k=1), "b": ClassifierSpec("knn", k=1)}
        weights, mcc, _ = weight_grid_search(specs, X, y, folds=2, seed=0)
        assert mcc == pytest.approx(1.0)
        assert weights == (0.0, 1.0)


class TestForwardSelect:
    def test_informative_descriptor_found_first(self):
        # synthetic features: id "good" carries the labels, others are noise
        rng = np.random.default_rng(12)
        n = 60
        y = np.array([0, 1] * (n // 2))
        blocks = {
            "noise1": rng.normal(size=(n, 3)),
            "good": y[:, None] + 0.01 * rng.normal(size=(n, 1)),
            "noise2": rng.normal(size=(n, 2)),
        }

        def builder(ids):
            return np.hstack([blocks[d] for d in ids])

        result = forward_select(
            ("noise1", "good", "noise2"),
            ClassifierSpec("dt", depth=2),
            builder,
            y,
            folds=4,
            seed=13,
        )
        singles = [r for r in result.trace if r.stage == "single"]
        best_single = max(singles, key=lambda r: r.mcc)
        assert best_single.ids == ("good",)
        assert "good" in result.selected
        assert result.mcc >= best_single.mcc

    def test_nan_epsilon_is_rejected(self):
        with pytest.raises(ConfigError, match="nan"):
            forward_select(
                ("a", "b"),
                ClassifierSpec("dt", depth=2),
                lambda ids: np.zeros((4, len(ids))),
                np.array([0, 1, 0, 1]),
                epsilon=float("nan"),
            )

    def test_infinite_epsilon_stops_at_pair_stage(self):
        rng = np.random.default_rng(14)
        n = 40
        y = np.array([0, 1] * (n // 2))
        blocks = {
            "a": y[:, None] + 0.3 * rng.normal(size=(n, 1)),
            "b": rng.normal(size=(n, 2)),
            "c": y[:, None] + 0.2 * rng.normal(size=(n, 1)),
        }
        result = forward_select(
            ("a", "b", "c"),
            ClassifierSpec("dt", depth=2),
            lambda ids: np.hstack([blocks[d] for d in ids]),
            y,
            folds=4,
            seed=15,
            epsilon=np.inf,
        )
        assert len(result.selected) <= 2


class TestEnsembleModel:
    @staticmethod
    def fitted_model(seed=0, member_names=("rf", "lr")):
        rng = np.random.default_rng(seed)
        peps = []
        labels = []
        for i in range(40):
            tox = i % 2
            alphabet = "KRCW" if tox else "DEST"
            peps.append(
                Peptide("".join(rng.choice(list(alphabet), size=rng.integers(4, 10))))
            )
            labels.append(tox)
        y = np.array(labels)
        ids = ("AAC", "GAAC")
        raw = descriptors.encode_matrix(ids, peps)
        scaler = descriptors.FeatureScaler.fit(raw)
        X = scaler.transform(raw)
        specs = {
            name: preset_spec(name, seed=seed, trees=10) for name in member_names
        }
        members = fit_members(specs, X, y)
        weights = tuple(
            1.0 / len(member_names) for _ in member_names
        )
        model = EnsembleModel(
            member_names=tuple(member_names),
            member_specs=specs,
            members=members,
            weights=weights,
            descriptor_ids=ids,
            scaler=scaler,
            cv_mcc=1.0,
        )
        return model, peps, y, X

    def test_degenerate_single_weight_equals_member(self):
        model, peps, y, X = self.fitted_model(member_names=("rf", "lr"))
        solo = EnsembleModel(
            member_names=model.member_names,
            member_specs=model.member_specs,
            members=model.members,
            weights=(1.0, 0.0),
            descriptor_ids=model.descriptor_ids,
            scaler=model.scaler,
            cv_mcc=1.0,
        )
        member_probas = model.members["rf"].predict_proba(X)
        assert np.allclose(solo.predict_proba_features(X), member_probas)

    def test_tie_calls_toxic(self):
        probas = np.array([0.8, 0.2])
        combined = float(probas @ np.array([0.5, 0.5]))
        assert combined == 0.5
        assert metrics_from_probas(np.array([1, 0]), np.array([combined, 0.4])).tp == 1

    def test_convex_combination_bounds(self):
        model, peps, y, X = self.fitted_model()
        combined = model.predict_proba_features(X)
        lo = np.minimum(
            model.members["rf"].predict_proba(X), model.members["lr"].predict_proba(X)
        )
        hi = np.maximum(
            model.members["rf"].predict_proba(X), model.members["lr"].predict_proba(X)
        )
        assert np.all(combined >= lo - 1e-12)
        assert np.all(combined <= hi + 1e-12)

    def test_weighted_sum_matches_recomputation(self):
        model, peps, y, X = self.fitted_model(member_names=("rf", "gbt-l", "knn"))
        model = EnsembleModel(
            member_names=model.member_names,
            member_specs=model.member_specs,
            members=model.members,
            weights=(0.5, 0.3, 0.2),
            descriptor_ids=model.descriptor_ids,
            scaler=model.scaler,
            cv_mcc=1.0,
        )
        expected = (
            0.5 * model.members["rf"].predict_proba(X)
            + 0.3 * model.members["gbt-l"].predict_proba(X)
            + 0.2 * model.members["knn"].predict_proba(X)
        )
        assert np.allclose(model.predict_proba_features(X), expected)

    def test_predict_reports_bad_rows_without_abort(self):
        model, peps, _, _ = self.fitted_model()
        rows = model.predict([peps[0], Peptide("A" * 30), peps[1]])
        assert rows[0]["error"] == "" and rows[2]["error"] == ""
        assert rows[1]["probability"] is None
        assert "25" in rows[1]["error"]

    def test_weights_must_sum_to_one(self):
        model, *_ = self.fitted_model()
        with pytest.raises(Exception, match="sum to 1"):
            EnsembleModel(
                member_names=model.member_names,
                member_specs=model.member_specs,
                members=model.members,
                weights=(0.5, 0.2),
                descriptor_ids=model.descriptor_ids,
                scaler=model.scaler,
                cv_mcc=1.0,
            )

    def test_serialization_round_trip(self, tmp_path):
        model, peps, y, X = self.fitted_model(member_names=("rf", "gbt-l", "knn", "lr", "adb"))
        model = EnsembleModel(
            member_names=model.member_names,
            member_specs=model.member_specs,
            members=model.members,
            weights=(0.3, 0.1, 0.2, 0.2, 0.2),
            descriptor_ids=model.descriptor_ids,
            scaler=model.scaler,
            cv_mcc=0.5,
        )
        path = tmp_path / "ensemble.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.member_names == model.member_names
        assert loaded.weights == model.weights
        assert loaded.descriptor_ids == model.descriptor_ids
        assert np.allclose(
            loaded.predict_proba_features(X), model.predict_proba_features(X)
        )
        rows_a = model.predict(peps[:5])
        rows_b = loaded.predict(peps[:5])
        assert rows_a == rows_b


# one learner of every algorithm, small enough to fit quickly
EVERY_KIND = {
    "rf": ClassifierSpec("rf", trees=12, seed=1),
    "ert": ClassifierSpec("ert", trees=9, seed=2),
    "gbt": ClassifierSpec("gbt", trees=10, depth=3, learning_rate=0.1),
    "knn": ClassifierSpec("knn", k=5),
    "lr": ClassifierSpec("lr"),
    "adb": ClassifierSpec("adb", trees=8),
    "dt": ClassifierSpec("dt", depth=6),
}


@pytest.fixture(scope="module")
def every_kind():
    """Learners fitted on noisy data whose rows repeat, so k-NN distances tie."""
    rng = np.random.default_rng(17)
    base = np.round(rng.normal(size=(90, 8)), 1)
    X = np.vstack([base, base[:30]])
    y = (X[:, 0] + rng.normal(scale=0.8, size=len(X)) > 0).astype(int)
    return X, {name: make_classifier(spec).fit(X, y) for name, spec in EVERY_KIND.items()}


def one_row_calls(model, Q) -> np.ndarray:
    return np.concatenate([model.predict_proba(Q[i : i + 1]) for i in range(len(Q))])


class TestRowwiseScoring:
    """A batch must give every row the bits of a one-row call."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30))
    def test_batch_equals_one_row_calls(self, every_kind, seed, n):
        X, models = every_kind
        rng = np.random.default_rng(seed)
        # fresh rows, training rows (zero k-NN distances) and coarse rows
        Q = np.vstack([
            rng.normal(size=(n, X.shape[1])),
            X[rng.integers(0, len(X), size=n)],
            np.round(rng.normal(size=(n, X.shape[1])), 1),
        ])
        for name, model in models.items():
            batch = model.predict_proba(Q)
            assert batch.tobytes() == one_row_calls(model, Q).tobytes(), name

    def test_thousand_rows_equal_one_row_calls(self, every_kind):
        X, models = every_kind
        Q = np.random.default_rng(3).normal(size=(1000, X.shape[1]))
        for name, model in models.items():
            batch = model.predict_proba(Q)
            assert batch.tobytes() == one_row_calls(model, Q).tobytes(), name

    def test_ensemble_batch_equals_one_peptide_calls(self):
        model, peps, _, _ = TestEnsembleModel.fitted_model(
            member_names=("rf", "ert", "gbt-l", "knn", "lr", "adb", "dt")
        )
        batch = peps + [Peptide("A" * 30), Peptide("KRCW")]
        assert model.predict(batch) == [model.predict([p])[0] for p in batch]

    def test_empty_batch(self):
        model, *_ = TestEnsembleModel.fitted_model()
        assert model.predict([]) == []

    def test_row_errors_keep_their_order_of_checks(self):
        model, *_ = TestEnsembleModel.fitted_model()
        tpc = EnsembleModel(
            member_names=model.member_names,
            member_specs=model.member_specs,
            members=model.members,
            weights=model.weights,
            descriptor_ids=("AAC", "TPC", "Binary"),
            scaler=model.scaler,
            cv_mcc=1.0,
        )
        # residues, then the model's maximum, then the descriptors' bounds
        assert tpc.row_error("AXD" * 9) == f"invalid residue 'X' in sequence {'AXD' * 9!r}"
        assert tpc.row_error("K") == "sequence 'K' has length 1, minimum is 2"
        assert tpc.row_error("A" * 26) == "sequence length 26 exceeds the model's maximum of 25"
        assert tpc.row_error("KR") == "TPC requires length >= 3, got 2"
        assert tpc.row_error("KRC") == ""
