"""The traced benchmark wraps public functions and methods by name; renaming
or deleting one of them must fail here, not only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

from peptaste import corpus, descriptors, similarity, vae
from peptaste.toxicity import classifiers

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def hooked():
    return (
        descriptors.encode_matrix,
        vars(descriptors.FeatureScaler)["fit"],
        similarity.nw_score_block,
        similarity.similarity_matrix,
        similarity.build_components,
        similarity.pick_representatives,
        corpus.dedup_greedy,
        vae.train_la,
        vae.SequenceVae.train_step,
        vae.SequenceVae.generate,
        classifiers.RandomForest.fit,
    )


def test_install_wraps_and_restore_puts_back(monkeypatch):
    spans = load_spans(monkeypatch)
    originals = hooked()
    restore = spans.install(spans.Tracer())
    try:
        wrapped = hooked()
    finally:
        restore()
    assert all(during is not before for during, before in zip(wrapped, originals))
    assert hooked() == originals
