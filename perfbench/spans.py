"""Layer spans for the traced benchmark run.

The wrappers live here, in the benchmark, not in the program: install()
replaces public functions and methods on their modules and classes, so
the program's own calls (pipeline -> ensemble -> classifiers, ...) go
through them, and the returned function puts every original back.

Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the part of it covered by its direct
children; summed by span name, self times partition the traced job time,
so the layer metrics plus pipeline.self_s add up to the job.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

JOB = "pipeline.job"  # root span of one job; its self time is pipeline.self_s

CLASSIFIERS = {
    "rf": "RandomForest",
    "ert": "ExtraTrees",
    "gbt": "GradientBoosting",
    "knn": "KNearest",
    "lr": "LogisticRegressionGD",
    "adb": "AdaBoostStumps",
    "dt": "DecisionTree",
}

# similarity threshold that decides an alignment edge outside a dedup
# sweep: the cluster threshold, 0.70, which the benchmark uses everywhere
CLUSTER_THRESHOLD = 0.70


@dataclass
class Span:
    name: str  # the layer metric stem; self time goes to <name>_s
    op: str  # the wrapped function
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a job root
    job: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()  # span names open on the stack
        self.counts: Counter = Counter()
        self.job = -1
        self.jobs = 0
        self.align_threshold = CLUSTER_THRESHOLD
        self.last_weights: tuple = ()
        self.vae_params = 0

    def begin(self, name: str, op: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, op, time.perf_counter(), 0.0, parent, self.job))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        self.active[name] += 1
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self.stack.pop()
        self.active[span.name] -= 1

    def run_job(self, fn):
        """Run one job under a root span; return its result."""
        self.jobs += 1
        self.job += 1
        idx = self.begin(JOB, JOB)
        try:
            return fn()
        finally:
            self.end(idx)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [[s.name, s.op, s.start, s.end, s.parent, s.job] for s in self.spans], fh
            )


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def _arguments(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class _Patches:
    def __init__(self):
        self._undo = []

    def set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, had, old in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _spanned(tracer: Tracer, fn, name: str, op: str, after=None, skip_if=None):
    """fn wrapped in a span; after(args, kwargs, result) records counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip_if is not None and skip_if():
            return fn(*args, **kwargs)
        idx = tracer.begin(name, op)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer):
    """Install every layer wrapper; return a function that removes them."""
    import numpy as np

    from peptaste import corpus, descriptors, latent, nn, physchem, pipeline, similarity, vae
    from peptaste.toxicity import classifiers, ensemble, metrics

    p = _Patches()
    c = tracer.counts

    def module_fn(module, attr, name, after=None):
        fn = getattr(module, attr)
        op = f"{module.__name__.removeprefix('peptaste.')}.{attr}"
        p.set(module, attr, _spanned(tracer, fn, name, op, after))

    def method(cls, attr, name, after=None, skip_if=None):
        fn = getattr(cls, attr)
        p.set(cls, attr, _spanned(tracer, fn, name, f"{cls.__name__}.{attr}", after, skip_if))

    # --- toxicity.classifiers: one span per outermost fit or predict -----
    def in_classifier() -> bool:
        # a forest's trees and AdaBoost's stumps are DecisionTree fits
        # inside the outer learner's span; they belong to that learner
        return any(tracer.active[n] for n in classifier_spans)

    classifier_spans = []
    for alg, cls_name in CLASSIFIERS.items():
        cls = getattr(classifiers, cls_name)
        for what, attr in (("fit", "fit"), ("predict", "predict_proba")):
            name = f"toxicity.classifiers.{alg}.{what}"
            classifier_spans.append(name)

            def after(args, kwargs, result, key=f"{name}_calls", what=what):
                c[key] += 1
                if what == "fit" and tracer.active["toxicity.metrics.cv"]:
                    c["toxicity.metrics.cv_fits"] += 1

            method(cls, attr, name, after, skip_if=in_classifier)

    # --- toxicity.metrics and toxicity.ensemble --------------------------
    module_fn(metrics, "cross_val_probas", "toxicity.metrics.cv")

    def after_select(args, kwargs, result):
        c["toxicity.ensemble.select_sets"] += len(result.trace)

    module_fn(ensemble, "forward_select", "toxicity.ensemble.select", after_select)

    def after_vectors(args, kwargs, result):
        c["toxicity.ensemble.weight_vectors"] += len(result)

    p.set(ensemble, "enumerate_weight_vectors",
          _counted(ensemble.enumerate_weight_vectors, after_vectors))

    grid_search = ensemble.weight_grid_search

    def after_grid(args, kwargs, result):
        a = _arguments(grid_search, args, kwargs)
        weights = result[0]
        tracer.last_weights = tuple(weights)
        c["member_fits"] += a["folds"] * len(weights)
        c["useful_member_fits"] += a["folds"] * sum(1 for w in weights if w > 0)

    module_fn(ensemble, "weight_grid_search", "toxicity.ensemble.weight_search", after_grid)

    def after_fit_members(args, kwargs, result):
        c["member_fits"] += len(result)
        c["useful_member_fits"] += sum(1 for w in tracer.last_weights if w > 0)

    module_fn(ensemble, "fit_members", "toxicity.ensemble.fit_members", after_fit_members)

    def after_predict(args, kwargs, result):
        c["toxicity.ensemble.predict_calls"] += 1
        c["toxicity.ensemble.predict_rows"] += len(result)

    method(ensemble.EnsembleModel, "predict", "toxicity.ensemble.predict", after_predict)

    # --- descriptors -------------------------------------------------------
    def after_encode(args, kwargs, result):
        c["descriptors.encode_calls"] += 1
        c["descriptors.encode_rows"] += result.shape[0]

    module_fn(descriptors, "encode_matrix", "descriptors.encode", after_encode)
    scaler = descriptors.FeatureScaler
    p.set(scaler, "fit", classmethod(
        _spanned(tracer, vars(scaler)["fit"].__func__, "descriptors.scale", "FeatureScaler.fit")))
    method(scaler, "transform", "descriptors.scale")

    # --- similarity and corpus ---------------------------------------------
    params = similarity.DEFAULT_PARAMS

    def after_align(args, kwargs, result):
        query, refs = str(args[0]), [str(r) for r in args[1]]
        lens = np.array([len(r) for r in refs], dtype=float)
        c["similarity.align_calls"] += 1
        c["similarity.align_pairs"] += len(refs)
        c["similarity.align_cells"] += len(query) * float(lens.sum())
        denom = params.match * np.maximum(len(query), lens)
        sims = np.maximum(np.asarray(result) / denom, 0.0)
        c["similarity.align_edges"] += int((sims >= tracer.align_threshold).sum())

    module_fn(similarity, "nw_score_block", "similarity.align", after_align)
    module_fn(similarity, "similarity_matrix", "similarity.matrix")
    module_fn(similarity, "build_components", "similarity.components")
    module_fn(similarity, "pick_representatives", "similarity.reps")

    dedup = corpus.dedup_greedy

    @functools.wraps(dedup)
    def dedup_wrapper(*args, **kwargs):
        a = _arguments(dedup, args, kwargs)
        saved = tracer.align_threshold
        tracer.align_threshold = a["identity_threshold"]
        idx = tracer.begin("corpus.dedup", "corpus.dedup_greedy")
        try:
            result = dedup(*args, **kwargs)
        finally:
            tracer.end(idx)
            tracer.align_threshold = saved
        c["dedup_in"] += len(a["corpus"])
        c["dedup_kept"] += len(result)
        return result

    p.set(corpus, "dedup_greedy", dedup_wrapper)

    # --- nn and vae ----------------------------------------------------------
    def after_adam(args, kwargs, result):
        c["nn.adam_calls"] += 1

    method(nn.Adam, "step", "nn.adam", after_adam)

    def after_train(args, kwargs, result):
        c["vae.epochs"] += len(result.history)
        c["vae.trigger_epoch"] += result.trigger_epoch or 0
        tracer.vae_params = args[0].parameter_count()

    module_fn(vae, "train_la", "vae.train", after_train)

    step = vae.SequenceVae.train_step

    @functools.wraps(step)
    def step_wrapper(*args, **kwargs):
        # self time goes to vae.train; the inclusive time gives step_ms
        idx = tracer.begin("vae.train", "SequenceVae.train_step")
        try:
            return step(*args, **kwargs)
        finally:
            tracer.end(idx)
            span = tracer.spans[idx]
            c["vae.steps"] += 1
            c["vae.step_time"] += span.end - span.start

    p.set(vae.SequenceVae, "train_step", step_wrapper)

    def after_generate(args, kwargs, result):
        c["vae.generated"] += len(result)

    method(vae.SequenceVae, "generate", "vae.generate", after_generate)
    method(vae.SequenceVae, "encode_matrix", "vae.encode")

    argmax = vae.decode_argmax

    @functools.wraps(argmax)
    def argmax_wrapper(*args, **kwargs):
        # generate() decodes every attempt, valid or not, with decode_argmax
        if tracer.active["vae.generate"]:
            c["vae.gen_attempts"] += 1
        return argmax(*args, **kwargs)

    p.set(vae, "decode_argmax", argmax_wrapper)

    # --- latent ----------------------------------------------------------------
    module_fn(latent, "pca2", "latent.pca")
    module_fn(latent, "select_standard", "latent.select")

    def after_avoidance(args, kwargs, result):
        ranked, scores = result
        c["latent.screened"] += len(scores)
        c["latent.accepted"] += len(ranked)

    module_fn(latent, "select_avoidance", "latent.select", after_avoidance)

    def after_rank(args, kwargs, result):
        c["latent.ranktest_calls"] += 1

    module_fn(latent, "mann_whitney_exact_less", "latent.ranktest", after_rank)

    # --- physchem and pipeline I/O --------------------------------------------
    def after_profile(args, kwargs, result):
        c["physchem.profiles"] += 1

    module_fn(physchem, "profile", "physchem.profile", after_profile)
    module_fn(pipeline, "read_sequences", "pipeline.read")
    module_fn(pipeline, "read_taste_corpus", "pipeline.read")
    module_fn(ensemble, "load_model", "pipeline.read")

    return p.restore


def _counted(fn, after):
    """fn with a counter and no span, for a call too cheap to time."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, kwargs, result)
        return result

    return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-job layer metrics: self times by span name, counts and ratios."""
    jobs = max(tracer.jobs, 1)
    c = tracer.counts
    by_name: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        by_name[span.name] += own
    out: dict[str, float] = {}
    for alg in CLASSIFIERS:
        for what in ("fit", "predict"):
            name = f"toxicity.classifiers.{alg}.{what}"
            out[f"{name}_s"] = by_name[name] / jobs
            out[f"{name}_calls"] = c[f"{name}_calls"] / jobs
    for name in (
        "toxicity.metrics.cv", "toxicity.ensemble.select",
        "toxicity.ensemble.weight_search", "toxicity.ensemble.fit_members",
        "toxicity.ensemble.predict", "descriptors.encode", "descriptors.scale",
        "similarity.align", "similarity.matrix", "similarity.components",
        "similarity.reps", "corpus.dedup", "vae.train", "vae.generate",
        "vae.encode", "nn.adam", "latent.pca", "latent.select",
        "latent.ranktest", "physchem.profile", "pipeline.read",
    ):
        out[f"{name}_s"] = by_name[name] / jobs
    for key in (
        "toxicity.metrics.cv_fits", "toxicity.ensemble.select_sets",
        "toxicity.ensemble.weight_vectors", "toxicity.ensemble.predict_calls",
        "toxicity.ensemble.predict_rows", "descriptors.encode_calls",
        "descriptors.encode_rows", "similarity.align_calls",
        "similarity.align_pairs", "similarity.align_cells", "vae.epochs",
        "vae.trigger_epoch", "vae.steps", "vae.gen_attempts", "nn.adam_calls",
        "latent.ranktest_calls", "physchem.profiles",
    ):
        out[key] = c[key] / jobs
    out["pipeline.self_s"] = by_name[JOB] / jobs
    out["toxicity.ensemble.useful_fit_ratio"] = _ratio(c["useful_member_fits"], c["member_fits"])
    out["similarity.edge_ratio"] = _ratio(c["similarity.align_edges"], c["similarity.align_pairs"])
    out["corpus.dedup_kept_ratio"] = _ratio(c["dedup_kept"], c["dedup_in"])
    out["vae.step_ms"] = 1000.0 * _ratio(c["vae.step_time"], c["vae.steps"])
    out["vae.params"] = float(tracer.vae_params)
    out["vae.gen_accept_ratio"] = _ratio(c["vae.generated"], c["vae.gen_attempts"])
    out["latent.accept_ratio"] = _ratio(c["latent.accepted"], c["latent.screened"])
    return out
