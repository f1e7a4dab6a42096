"""Golden digests of cross-validated probabilities for every learner.

Recorded while each fold was still fitted on its own copy of the training
rows (three re-recorded since, each with its reason); they pin the
out-of-fold probabilities of every preset byte for byte, and the gradient
steps of each logistic-regression fold.  Three folds on 70 + 70 rows give
training sets of unequal size (92, 94, 94), ten folds give equal ones.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from peptaste import descriptors
from peptaste.toxicity import classifiers as clf
from peptaste.toxicity import metrics
from test_tree_core import noisy_tox_corpus

PRESETS = ("rf", "ert", "gbt-l", "gbt-x", "knn", "lr", "adb", "dt")
FOLDS = (3, 10)


@pytest.fixture(scope="module")
def corpus():
    tox, ben = noisy_tox_corpus(np.random.default_rng(21))
    raw = descriptors.encode_matrix(["AAC", "GAAC"], tox + ben)
    X = descriptors.FeatureScaler.fit(raw).transform(raw)
    y = np.array([1] * len(tox) + [0] * len(ben), dtype=np.int64)
    return X, y


def cv_digest(name, X, y, folds):
    spec = clf.preset_spec(name, seed=7, trees=6 if name != "adb" else None)
    probas = metrics.cross_val_probas(clf.make_classifier(spec), X, y, folds, seed=13)
    return hashlib.sha256(probas.tobytes()).hexdigest()


@pytest.mark.parametrize("folds", FOLDS)
def test_cross_val_probas_golden_digests(corpus, folds):
    X, y = corpus
    digests = {name: cv_digest(name, X, y, folds) for name in PRESETS}
    assert digests == GOLDEN_CV[folds]


@pytest.mark.parametrize("name", PRESETS)
def test_out_of_fold_probas_are_one_row_calls(corpus, name):
    # each fold model scores its test rows with the bits of one-row calls
    X, y = corpus
    spec = clf.preset_spec(name, seed=7, trees=6 if name != "adb" else None)
    probas = metrics.cross_val_probas(clf.make_classifier(spec), X, y, folds=3, seed=13)
    fold_of = metrics.stratified_fold_ids(y, 3, 13)
    models = clf.make_classifier(spec).fit_folds(
        X, y, [np.flatnonzero(fold_of != f) for f in range(3)]
    )
    for f, model in enumerate(models):
        test = np.flatnonzero(fold_of == f)
        one_row = np.concatenate([model.predict_proba(X[i : i + 1]) for i in test])
        assert probas[test].tobytes() == one_row.tobytes(), f


@pytest.mark.parametrize("folds", FOLDS)
def test_lr_fold_steps(corpus, folds):
    # every fold's model predicts its test rows once, in fold order
    X, y = corpus
    steps = []
    predict = clf.LogisticRegressionGD.predict_proba

    def recorded(self, Xq):
        steps.append(self.n_iter)
        return predict(self, Xq)

    with mock.patch.object(clf.LogisticRegressionGD, "predict_proba", recorded):
        cv_digest("lr", X, y, folds)
    assert steps == GOLDEN_LR_STEPS[folds]


GOLDEN_CV = {
    3: {
        "rf": "6257d26e793f9bb6baf7a222729c4940bf1b84cad9cf62b579cd7dbb33d1555e",
        "ert": "ef0f9668e0f174ce78685580b80259a022f93710b7ed8bbf45e7a19b1628922f",
        "gbt-l": "a25a92dc5b9920e745a6c7ef78a7747fec783ec653be2d09ea9cccaf3f1385ea",
        "gbt-x": "044be7574cba07f1fd320f717751de21b6b6c6b2736b753f555b805093f71c73",
        "knn": "0268e2a0ca92430127e783a7a857378b206258848c36bae723474f4b1d6f221d",
        # re-recorded: each row is one dot product, not a row of one
        # matrix-vector product
        "lr": "58444fbf13b843bad5fa9912aa4df4c55108cdc1624f13c026bf41ecdbb6d4ee",
        "adb": "7dfd08831ca2e46435b7c50f67dc0e3a6f73fd42a9c57ea3ab58e2d6d4d75721",
        "dt": "2a70307bdbbc275e4aa329e73db91e7339bdacdefcdd860b584d7b283418a4d3",
    },
    10: {
        "rf": "22dc0d65da28463661289603c7c548db90a32246e4141abab07164133004052c",
        # re-recorded: sorted cumulative sums break a near-tie differently.
        # Tree 5's root, in 7 of the 10 folds, weighed columns 5 and 15 at
        # 0.24799999999999997 and ...94 (column 5 kept, within 1e-15); it
        # now weighs them at 0.2480000000000018 and ...933, and column 15 wins
        "ert": "56356c93362578c153994a3bbcdf198d15ed3cf7348bb89ce65aedfab75225f4",
        "gbt-l": "295c6092cef2bc50ea7df11434c558b44065864567135890710b86d6d1e9ac04",
        "gbt-x": "18fba48f409d8ace567560f563ddcb96099034ec3102cbe2d0c4a8c9476e9848",
        "knn": "bd57cc475f5419ea6d81cb0293379ad1ffd845df71b3a6fc1bb5603946e7d872",
        # re-recorded: one dot product per row, as at 3 folds
        "lr": "6f1dd16657f11dc918a84cef22f5eed9d97e90d683df64ed082dae36fa9959f2",
        "adb": "b34a8d23f34ed303011abf0641dd41548a7cd70ae30c92670ab549bfe38ed750",
        "dt": "142fe6bc539e1eee16afc6085c7b45c0f3e9514c3b8fe0150c2140074f7967e2",
    },
}

GOLDEN_LR_STEPS = {
    3: [1005, 1046, 981],
    10: [524, 702, 669, 679, 671, 733, 737, 573, 688, 666],
}
