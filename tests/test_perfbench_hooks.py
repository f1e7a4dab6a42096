"""The traced benchmark wraps public functions and methods by name; renaming
or deleting one of them must fail here, not only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

from peptaste import corpus, descriptors, pipeline, similarity, vae
from peptaste.sequences import Peptide
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


def test_dedup_hook_binds_its_arguments_by_name(monkeypatch):
    # the wrapper reads `corpus` and `identity_threshold` by name
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    before = tracer.align_threshold
    peptides = [Peptide(s) for s in ("ACDEF", "ACDEF", "WWKRH")]
    restore = spans.install(tracer)
    try:
        kept = corpus.dedup_greedy(peptides, 0.8)
        corpus.dedup_greedy(corpus=kept, identity_threshold=0.9)
    finally:
        restore()
    assert kept == [Peptide("ACDEF"), Peptide("WWKRH")]
    assert tracer.counts["dedup_in"] == 5
    assert tracer.counts["dedup_kept"] == 4
    assert tracer.align_threshold == before


def test_toxtrain_hooks_bind_their_arguments_by_name(monkeypatch, tox_corpus_files):
    # the weight-search wrapper reads `folds` by name, and the selection and
    # weight-vector wrappers count what forward_select and the search return
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    options = pipeline.ToxTrainOptions(
        folds=3, selector_trees=4, member_trees=4, universe=("AAC", "GAAC")
    )
    restore = spans.install(tracer)
    try:
        result = tracer.run_job(lambda: pipeline.run_toxtrain(*tox_corpus_files, None, options))
    finally:
        restore()
    assert tracer.counts["toxicity.ensemble.select_sets"] == len(result.selection.trace)
    assert tracer.counts["toxicity.ensemble.weight_vectors"] == 1001
    assert tracer.counts["member_fits"] > 0
