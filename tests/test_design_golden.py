"""Golden design outputs: sha256 digests of all six files `run_design` writes.

The digests were recorded before the design workflow was restructured to
write each artifact at its stage and to read its parameters from the run
dataclass.  They pin, byte for byte, three toy runs of the `toy_taste_corpus`
against the `small_tox_model` model (seed 11, latent 8, hidden 24, batch 4,
no L1, 24 candidates, 150 epochs plus 10 of extension): standard mode in
the PCA plane with prior sampling; standard mode in the full latent space
with jitter sampling; and avoidance mode with the significance gate stubbed
to accept every candidate.  Each run gave the same digests with one and
with two BLAS threads on a 2-core x86-64 machine (OpenBLAS).  The same
runs also show that a run trains one model, and that avoidance mode trains
it exactly as standard mode does.
"""

import hashlib

import pytest

from peptaste import latent, pipeline, vae
from peptaste.sequences import PatternMode, parse_pattern

OUTPUTS = (
    "candidates.tsv",
    "filter_scores.tsv",
    "clusters.tsv",
    "loss_history.tsv",
    "latent_coords.tsv",
    "run_manifest.json",
)

GOLDEN = {
    "standard_pca2_prior": {
        "candidates.tsv": "fc39dabf650f961c57a42e0be3d3b9fd526a652e8f5c22958b58abea6c9d40d8",
        "filter_scores.tsv": "3377feda5f1f65a2afb660ffe64c3ac104d26b2de48624556fc686b172f98e96",
        "clusters.tsv": "fec199ba3b9df1a1bbaaaf2238a7c5277fd1dc0ba089ecd8bfd78881f80aa668",
        "loss_history.tsv": "2d5d3af8904177ac37f33cf62039829257084f108b92c211893bbb67e3c5b43f",
        "latent_coords.tsv": "d733f205372309bab94d291a7ef1e4d528c49c2cf6749b4b982b1c8dfc212f51",
        "run_manifest.json": "b5b7e58c22e00892a29c7db7125d6184cedd0a9bc05a302d2c5469cc6aa9e364",
    },
    "standard_latent_jitter": {
        "candidates.tsv": "75b9c2449022d6ba9ead40ea5b6487234d6501c87282bc281dae83e59d2f8a92",
        "filter_scores.tsv": "b3c49ce4a0e7d217374d553c9853eca6b328bc7c60efe7cdb1605d10932178ae",
        "clusters.tsv": "d704ecaf3058d71ae777d7962989d0d90adc97fb5ffd1e9b599847ae1bfee699",
        "loss_history.tsv": "2d5d3af8904177ac37f33cf62039829257084f108b92c211893bbb67e3c5b43f",
        "latent_coords.tsv": "2dc5f965f8b90e8ddba3e46b47e1ff215575b777b854b3d83f533226cf3698ca",
        "run_manifest.json": "0f0774fc8b3dc6c72ed73ff8dff244696c1509f7c2f6037a7c8b0aeb6a29366c",
    },
    "avoidance_stubbed_gate": {
        "candidates.tsv": "b242610ed876beaef5df20ad20f568cb3b4095d50f5179bdb2bf2a93e8c60b16",
        "filter_scores.tsv": "b6052166381ed991c03889164cbd83aa3e0aac123dc8678c0f0afa5ce825a360",
        "clusters.tsv": "97040cc8bfaf830d2d78f927e8c7dc5526e635d922b6d56aa8d1b521b6651a35",
        "loss_history.tsv": "2d5d3af8904177ac37f33cf62039829257084f108b92c211893bbb67e3c5b43f",
        "latent_coords.tsv": "f3718bb27a5f58857a3ed45b827e23c6255f8700497b73ed5582d4afc2076f6f",
        "run_manifest.json": "6f3bc5d9bbfec29057f702c83689191569a8d37029218d729d59732053b0038c",
    },
}


def golden_run(corpus_path, tox_model, out_dir, **overrides) -> pipeline.DesignRun:
    base = dict(
        pattern=parse_pattern(">x1xxx"),
        mode=PatternMode.MULTIPLE,
        corpus_path=corpus_path,
        out_dir=str(out_dir),
        tox_model_path=tox_model,
        seed=11,
        epochs=150,
        extension_epochs=10,
        latent_dim=8,
        hidden_units=24,
        batch_size=4,
        l1_lambda=0.0,
        candidates=24,
    )
    base.update(overrides)
    return pipeline.DesignRun(**base)


def accept_all(real):
    """select_avoidance with every candidate accepted, ranked by delta."""

    def gate(cands, pos, neg, k=5, alpha=0.05):
        _, scores = real(cands, pos, neg, k=k, alpha=alpha)
        forced = [
            latent.BilateralScore(s.index, s.d_plus, s.d_minus, s.delta, s.p_value, True)
            for s in scores
        ]
        order = sorted(range(len(forced)), key=lambda i: (forced[i].delta, i))
        return order, forced

    return gate


CONFIGS = {
    "standard_pca2_prior": dict(distance_space="pca2", generation_mode="prior"),
    "standard_latent_jitter": dict(distance_space="latent", generation_mode="jitter"),
    "avoidance_stubbed_gate": dict(pattern=parse_pattern(">x1x00")),
}


@pytest.fixture(scope="module")
def train_calls():
    """The golden runs' vae.train_la calls: (run name, model seed)."""
    return []


@pytest.fixture(scope="module")
def design_dirs(tmp_path_factory, toy_corpus_path, small_tox_model, train_calls):
    dirs = {}
    real_train = vae.train_la
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline.latent, "select_avoidance", accept_all(latent.select_avoidance))
        for name, overrides in CONFIGS.items():

            def counted(model, data, name=name):
                train_calls.append((name, model.config.seed))
                return real_train(model, data)

            mp.setattr(pipeline.vae, "train_la", counted)
            out = tmp_path_factory.mktemp(name)
            pipeline.run_design(
                golden_run(toy_corpus_path, small_tox_model[0], out, **overrides)
            )
            dirs[name] = out
    return dirs


def digests(out_dir) -> dict:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUTS
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_design_outputs_match_golden(design_dirs, name):
    assert digests(design_dirs[name]) == GOLDEN[name]


def test_each_run_trains_one_model(design_dirs, train_calls):
    seed = pipeline.derive_seed(11, "vae-positive")
    assert train_calls == [(name, seed) for name in CONFIGS]


def test_avoidance_trains_the_positive_model_as_standard_mode(design_dirs):
    # x1xxx and x1x00 select the same positives, and the model's seed
    # depends only on the master seed, so both modes train the same model
    def history(name):
        return (design_dirs[name] / "loss_history.tsv").read_bytes()

    assert history("avoidance_stubbed_gate") == history("standard_pca2_prior")
