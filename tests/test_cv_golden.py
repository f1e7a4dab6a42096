"""Golden digests of cross-validated probabilities for every learner.

Recorded while each fold was still fitted on its own copy of the training
rows; they pin the out-of-fold probabilities of every preset byte for
byte, and the gradient steps of each logistic-regression fold.  Three
folds on 70 + 70 rows give training sets of unequal size (92, 94, 94),
ten folds give equal ones.
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
    probas = metrics.cross_val_probas(
        lambda: clf.make_classifier(spec), X, y, folds=folds, seed=13
    )
    return hashlib.sha256(probas.tobytes()).hexdigest()


@pytest.mark.parametrize("folds", FOLDS)
def test_cross_val_probas_golden_digests(corpus, folds):
    X, y = corpus
    digests = {name: cv_digest(name, X, y, folds) for name in PRESETS}
    assert digests == GOLDEN_CV[folds]


@pytest.mark.parametrize("folds", FOLDS)
def test_lr_fold_steps(corpus, folds):
    # every fold's model predicts its test rows once, in fold order
    X, y = corpus
    steps = []
    predict = clf.LogisticRegressionGD.predict_proba

    def recorded(self, Xq, **kwargs):
        steps.append(self.n_iter)
        return predict(self, Xq, **kwargs)

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
        "lr": "15663839d5c29606a110d845d386c02b7a87947fe37c99a240891f5d9df7eed3",
        "adb": "7dfd08831ca2e46435b7c50f67dc0e3a6f73fd42a9c57ea3ab58e2d6d4d75721",
        "dt": "2a70307bdbbc275e4aa329e73db91e7339bdacdefcdd860b584d7b283418a4d3",
    },
    10: {
        "rf": "22dc0d65da28463661289603c7c548db90a32246e4141abab07164133004052c",
        "ert": "5f7926aebf941258bf096bb48fbf716fdaf9b93d1cb0bacf6e56e88c301e08f3",
        "gbt-l": "295c6092cef2bc50ea7df11434c558b44065864567135890710b86d6d1e9ac04",
        "gbt-x": "18fba48f409d8ace567560f563ddcb96099034ec3102cbe2d0c4a8c9476e9848",
        "knn": "bd57cc475f5419ea6d81cb0293379ad1ffd845df71b3a6fc1bb5603946e7d872",
        "lr": "2590116b0ef55b6a344d7151b58d7609a70e778f966ce74b441b6c85852c6c05",
        "adb": "b34a8d23f34ed303011abf0641dd41548a7cd70ae30c92670ab549bfe38ed750",
        "dt": "142fe6bc539e1eee16afc6085c7b45c0f3e9514c3b8fe0150c2140074f7967e2",
    },
}

GOLDEN_LR_STEPS = {
    3: [1005, 1046, 981],
    10: [524, 702, 669, 679, 671, 733, 737, 573, 688, 666],
}
