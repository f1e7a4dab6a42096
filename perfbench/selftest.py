"""Self-tests of the benchmark itself (not of peptaste).

    python3 perfbench/selftest.py

Run from the root of a checkout.  They check that the input generators
are deterministic per seed, that span self times are computed right and
partition a job's time, and that the layer wrappers count what they
claim and come off cleanly.
"""

from __future__ import annotations

import filecmp
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import gen  # noqa: E402
import spans  # noqa: E402


def _span(name, start, end, parent, job=0):
    return spans.Span(name, name, start, end, parent, job)


class GeneratorTests(unittest.TestCase):
    def _build(self, root, workload, seed):
        return os.path.dirname(gen.build(root, workload, seed))

    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for workload in ("toxtrain", "design", "screen"):
                da, db = self._build(a, workload, 7), self._build(b, workload, 7)
                names = sorted(os.listdir(da))
                self.assertEqual(names, sorted(os.listdir(db)))
                match, mismatch, errors = filecmp.cmpfiles(da, db, names, shallow=False)
                self.assertEqual((mismatch, errors), ([], []), workload)

    def test_other_seed_other_inputs(self):
        with tempfile.TemporaryDirectory() as root:
            one = gen.load(gen.build(root, "screen", 1))
            two = gen.load(gen.build(root, "screen", 2))
            self.assertFalse(filecmp.cmp(one["library"], two["library"], shallow=False))

    def test_cached_build_is_reused(self):
        with tempfile.TemporaryDirectory() as root:
            first = gen.build(root, "design", 3)
            mtime = os.path.getmtime(first)
            self.assertEqual(gen.build(root, "design", 3), first)
            self.assertEqual(os.path.getmtime(first), mtime)

    def test_library_bad_rows_are_unscoreable(self):
        import numpy as np

        rows, bad = gen.screen_library(np.random.default_rng(5))
        self.assertEqual(len(bad), gen.LIBRARY_BAD)
        for i, row in enumerate(rows):
            unscoreable = len(row) > gen.TOX_MAX_LEN or any(
                ch not in gen.AMINO_ACIDS for ch in row
            )
            self.assertEqual(unscoreable, i in bad, row)


class SelfTimeTests(unittest.TestCase):
    def test_nested_children(self):
        s = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("b", 5.0, 6.0, 0),
            _span("a.child", 2.0, 3.0, 1),
        ]
        self.assertEqual(spans.self_times(s), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        s = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 5.0, 0),
            _span("b", 3.0, 7.0, 0),
            _span("c", 9.0, 12.0, 0),  # clipped to the parent's end
        ]
        self.assertEqual(spans.self_times(s)[0], 10.0 - 6.0 - 1.0)

    def test_layers_partition_the_job(self):
        t = spans.Tracer()
        t.jobs = 2
        t.spans = [
            _span(spans.JOB, 0.0, 10.0, -1, 0),
            _span("toxicity.ensemble.select", 1.0, 7.0, 0, 0),
            _span("toxicity.metrics.cv", 2.0, 6.0, 1, 0),
            _span("toxicity.classifiers.rf.fit", 2.5, 5.0, 2, 0),
            _span("pipeline.read", 8.0, 9.0, 0, 0),
            _span(spans.JOB, 20.0, 24.0, -1, 1),
            _span("similarity.matrix", 20.0, 23.0, 5, 1),
            _span("similarity.align", 20.5, 22.5, 6, 1),
        ]
        m = spans.layer_metrics(t)
        self.assertAlmostEqual(m["toxicity.classifiers.rf.fit_s"], 2.5 / 2)
        self.assertAlmostEqual(m["toxicity.metrics.cv_s"], 1.5 / 2)
        self.assertAlmostEqual(m["toxicity.ensemble.select_s"], 2.0 / 2)
        self.assertAlmostEqual(m["similarity.align_s"], 2.0 / 2)
        self.assertAlmostEqual(m["pipeline.self_s"], (3.0 + 1.0) / 2)
        layer_total = sum(v for k, v in m.items() if k.endswith("_s"))
        self.assertAlmostEqual(layer_total, (10.0 + 4.0) / 2)


class WrapperTests(unittest.TestCase):
    def test_install_counts_and_restores(self):
        from peptaste import similarity
        from peptaste.toxicity import classifiers

        before = (similarity.nw_score_block, classifiers.RandomForest.__dict__.get("fit"))
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            seqs = ["ACDEFG", "ACDEFH", "KLMNPQ", "KLMNPR", "WYWYWY"]
            tracer.run_job(lambda: similarity.build_components(seqs, threshold=0.7))
        finally:
            restore()
        self.assertEqual(
            (similarity.nw_score_block, classifiers.RandomForest.__dict__.get("fit")), before
        )
        m = spans.layer_metrics(tracer)
        self.assertEqual(m["similarity.align_pairs"], 10)
        self.assertEqual(m["similarity.align_cells"], 10 * 36)
        # ACDEFG~ACDEFH and KLMNPQ~KLMNPR score 10/12 >= 0.7
        self.assertAlmostEqual(m["similarity.edge_ratio"], 2 / 10)
        total = sum(v for k, v in m.items() if k.endswith("_s"))
        root = tracer.spans[0]
        self.assertAlmostEqual(total, root.end - root.start, places=9)

    def test_forest_trees_belong_to_the_forest(self):
        import numpy as np

        from peptaste.toxicity import classifiers

        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] + 0.5 * rng.normal(size=40) > 0).astype(int)
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            tracer.run_job(lambda: classifiers.RandomForest(n_trees=3).fit(X, y).predict_proba(X))
        finally:
            restore()
        m = spans.layer_metrics(tracer)
        self.assertEqual(m["toxicity.classifiers.rf.fit_calls"], 1)
        self.assertEqual(m["toxicity.classifiers.rf.predict_calls"], 1)
        self.assertEqual(m["toxicity.classifiers.dt.fit_calls"], 0)


if __name__ == "__main__":
    unittest.main()
