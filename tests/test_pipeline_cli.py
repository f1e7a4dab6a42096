import argparse
import dataclasses
import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peptaste import corpus as corpus_mod
from peptaste import descriptors, latent, pipeline, vae
from peptaste.cli import build_parser, design_run, main, toxtrain_options
from peptaste.descriptors import encode_matrix
from peptaste.errors import ConfigError, DataError, NumericError, ParseError, TrainingDiverged
from peptaste.physchem import profile
from peptaste.pipeline import (
    CANDIDATE_COLUMNS,
    DesignRun,
    ToxTrainOptions,
    derive_seed,
    read_sequences,
    read_taste_corpus,
    run_design,
    run_toxpredict,
    run_toxtrain,
)
from peptaste.sequences import AMINO_ACIDS, PatternMode, Peptide, parse_pattern
from peptaste.toxicity.metrics import metrics_from_probas
from test_tree_core import noisy_tox_corpus


MISSING = object()


def _edited(text, **fields):
    """The JSON document text with fields set, or deleted where MISSING."""
    doc = json.loads(text)
    for key, value in fields.items():
        if value is MISSING:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc)


def _ids(text) -> list:
    return json.loads(text)["descriptor_ids"]


def _member_edited(text, name, edit):
    """The JSON document text after edit(state) of member name's state."""
    doc = json.loads(text)
    edit(doc["members"][name])
    return json.dumps(doc)


def _knn_listed_twice(text):
    """The JSON document text with knn listed again, at weight 0."""
    doc = json.loads(text)
    doc["member_names"].append("knn")
    doc["weights"].append(0.0)
    return json.dumps(doc)


def _first_split_set(tree, field, value):
    """Set field of the tree state's first split node to value."""
    tree[field][next(i for i, f in enumerate(tree["feature"]) if f >= 0)] = value


def _scaler_edited(text, field, value):
    """The JSON document text with the first entry of the scaler's field set."""
    doc = json.loads(text)
    doc["scaler"][field][0] = value
    return json.dumps(doc)


def _adaboost_alpha(text, alpha):
    """The JSON document text with member knn replaced by AdaBoost over one
    of rf's trees, of weight alpha."""
    doc = json.loads(text)
    doc["member_specs"]["knn"]["algorithm"] = "adb"
    doc["members"]["knn"] = {"stumps": [doc["members"]["rf"]["trees"][0]], "alphas": [alpha]}
    return json.dumps(doc)


NAN, INF = float("nan"), float("inf")


# encoding settings the descriptors module does not use
OTHER_DESCRIPTOR_CONFIG = {
    "k_max": 3, "lam": 3, "pad_len": 20, "weight": 0.05, "window": 5
}


def toy_design_run(corpus_path, tox_model, out_dir, **overrides):
    # toy-scale runs need a few thousand optimizer steps before the decoder
    # emits non-pad openings, hence the small batches and epoch count; the
    # L1 default is dropped so the tiny network keeps usable capacity
    base = dict(
        pattern=parse_pattern(">x1xxx"),
        mode=PatternMode.MULTIPLE,
        corpus_path=corpus_path,
        out_dir=str(out_dir),
        tox_model_path=tox_model,
        seed=11,
        epochs=200,
        latent_dim=8,
        hidden_units=24,
        batch_size=4,
        l1_lambda=0.0,
        candidates=24,
        max_len=14,
        extension_epochs=10,
    )
    base.update(overrides)
    return DesignRun(**base)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, "vae-positive") == derive_seed(7, "vae-positive")

    def test_stage_and_master_sensitivity(self):
        assert derive_seed(7, "vae-positive") != derive_seed(7, "vae-negative")
        assert derive_seed(7, "split") != derive_seed(8, "split")


class TestReaders:
    def test_read_sequences_plain(self, tmp_path):
        p = tmp_path / "seqs.txt"
        p.write_text("# comment\nACDE\nKLMN\n")
        assert read_sequences(p) == ["ACDE", "KLMN"]

    def test_read_sequences_fasta(self, tmp_path):
        p = tmp_path / "seqs.fasta"
        p.write_text(">a\nAC\nDE\n>b\nKLMN\n")
        assert read_sequences(p) == ["ACDE", "KLMN"]

    def test_read_sequences_tsv_first_column(self, tmp_path):
        p = tmp_path / "seqs.tsv"
        p.write_text("ACDE\textra\nKLMN\tstuff\n")
        assert read_sequences(p) == ["ACDE", "KLMN"]

    def test_read_taste_corpus_sniffs_fasta(self, tmp_path):
        p = tmp_path / "corpus.fasta"
        p.write_text(">x1xxx\nACDE\n")
        corpus = read_taste_corpus(p)
        assert corpus[0][1].code == "x1xxx"

    @pytest.mark.parametrize(
        "text, line", [(">a\n>b\nKLMN\n>c\nACDE\n", 1), (">a\nACDE\n\n>b\n", 4)]
    )
    def test_read_sequences_rejects_empty_fasta_record(self, tmp_path, capsys, text, line):
        # a header with no sequence is an error naming the file and line,
        # not a dropped row
        p = tmp_path / "seqs.fasta"
        p.write_text(text)
        where = re.escape(f"{p}: line {line}: header")
        with pytest.raises(ParseError, match=f"{where} '>[ab]' has no sequence"):
            read_sequences(p)
        assert main(["physchem", "--input", str(p)]) == 3
        assert f"{p}: line {line}" in capsys.readouterr().err

    def test_read_taste_corpus_names_file_of_empty_record(self, tmp_path):
        p = tmp_path / "corpus.fasta"
        p.write_text(">x1xxx\n>xx1xx\nACDE\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 1: header '>x1xxx'")):
            read_taste_corpus(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("\n")
        with pytest.raises(DataError):
            read_sequences(p)


def parse_tsv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


@pytest.fixture(scope="module")
def design_out(tmp_path_factory, toy_corpus_path, small_tox_model):
    out = tmp_path_factory.mktemp("design")
    run = toy_design_run(toy_corpus_path, small_tox_model[0], out)
    report = run_design(run)
    return run, report, out


@pytest.fixture(scope="module")
def rejected_run(tmp_path_factory, toy_corpus_path, small_tox_model, design_out):
    """An avoidance run whose filter rejects every candidate, written over
    the outputs of a successful run; (output directory, raised error)."""
    out = tmp_path_factory.mktemp("rejected")
    for path in design_out[2].iterdir():
        shutil.copy(path, out)
    run = toy_design_run(
        toy_corpus_path,
        small_tox_model[0],
        out,
        pattern=parse_pattern(">x1x00"),
        epochs=150,
        l1_lambda=0.0,
    )
    with pytest.raises(DataError) as err:
        run_design(run)
    return out, err.value


class TestDesignPipeline:
    def test_outputs_exist(self, design_out):
        _, _, out = design_out
        for name in (
            "candidates.tsv",
            "filter_scores.tsv",
            "clusters.tsv",
            "loss_history.tsv",
            "latent_coords.tsv",
            "run_manifest.json",
        ):
            assert (out / name).exists()

    def test_outputs_hold_plain_numbers(self, design_out):
        # numpy scalars are written as numbers, not as np.float64(...)
        _, _, out = design_out
        for path in sorted(out.glob("*.tsv")):
            assert "np." not in path.read_text(), path.name

    def test_counts_monotone(self, design_out):
        _, report, _ = design_out
        c = report.counts
        assert c["generated"] >= c["filtered"] >= c["representatives"] >= 1

    def test_standard_keep_fraction_arithmetic(self, design_out):
        run, report, _ = design_out
        assert report.counts["filtered"] == int(np.ceil(0.25 * report.counts["generated"]))

    def test_candidate_rows_complete(self, design_out):
        _, report, out = design_out
        rows = parse_tsv(out / "candidates.tsv")
        assert len(rows) == report.counts["representatives"]
        for row in rows:
            assert row["sequence"]
            assert row["d_plus"] != ""
            assert row["cluster_id"] != ""
            assert row["tox_probability"] != ""
            assert row["tox_call"] in ("toxic", "nontoxic")
            assert row["molecular_weight"] != ""
            assert row["is_representative"] == "True"

    def test_candidates_round_trip(self, design_out):
        # re-parsing the file reproduces the in-memory report exactly
        _, report, out = design_out
        rows = parse_tsv(out / "candidates.tsv")
        assert list(rows[0].keys()) == list(CANDIDATE_COLUMNS)
        for parsed, mem in zip(rows, report.candidates):
            for col in CANDIDATE_COLUMNS:
                value = mem[col]
                cell = parsed[col]
                if value is None:
                    assert cell == ""
                elif isinstance(value, float):
                    assert float(cell) == value
                else:
                    assert cell == str(value)

    def test_loss_history_rows(self, design_out):
        run, report, out = design_out
        rows = parse_tsv(out / "loss_history.tsv")
        assert len(rows) == len(report.outcome.history)
        for row in rows:
            tol = float(row["loss_tol"])
            parts = (
                float(row["loss_rec"]) + float(row["loss_kl"]) + float(row["l1_penalty"])
            )
            assert tol == pytest.approx(parts, rel=1e-9)

    def test_manifest_content(self, design_out):
        run, _, out = design_out
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["design"]["pattern"] == ">x1xxx"
        assert manifest["design"]["seed"] == 11
        assert set(manifest["outputs"]) == {
            "candidates.tsv",
            "filter_scores.tsv",
            "clusters.tsv",
            "loss_history.tsv",
            "latent_coords.tsv",
        }
        for name, digest in manifest["outputs"].items():
            assert len(digest) == 64
        assert manifest["stage_seeds"] == {"vae-positive": derive_seed(11, "vae-positive")}
        assert not {"conv_filters", "conv_kernel", "dedup_threshold"} & set(manifest["design"])

    def test_empty_positive_set_errors(self, toy_corpus_path, small_tox_model, tmp_path):
        run = toy_design_run(
            toy_corpus_path,
            small_tox_model[0],
            tmp_path / "nope",
            pattern=parse_pattern(">11111"),
            mode=PatternMode.SINGLE,
        )
        with pytest.raises(DataError, match="11111"):
            run_design(run)

    def test_k_above_a_prepared_set_fails_before_training(
        self, toy_corpus_path, small_tox_model, tmp_path
    ):
        out = tmp_path / "bigk"
        run = toy_design_run(
            toy_corpus_path, small_tox_model[0], out, k=10_000, epochs=2
        )
        message = r"stage prepare: positive set has \d+ peptides .* needs >= k=10000"
        with pytest.raises(DataError, match=message):
            run_design(run)
        assert list(out.iterdir()) == []

    def test_too_few_points_to_project_fails_before_training(
        self, small_tox_model, tmp_path
    ):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("GGAAC\tx1xxx\nKLLKK\tx1xxx\nEEDDE\t1xxxx\nWWFFY\txx1xx\n")
        out = tmp_path / "few"
        run = toy_design_run(str(corpus), small_tox_model[0], out, k=1, epochs=2)
        message = r"stage prepare: the projection needs >= 3 prepared peptides, got 2 \("
        with pytest.raises(DataError, match=message):
            run_design(run)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"generation_mode": "bogus"}, "unknown generation mode 'bogus'"),
            ({"hidden_units": 0}, "^hidden_units must be >= 1, got 0"),
        ],
    )
    def test_bad_settings_fail_when_the_run_is_built(self, tmp_path, fields, message):
        missing = str(tmp_path / "missing")
        with pytest.raises(ConfigError, match=message):
            toy_design_run(missing, missing, tmp_path / "run", **fields)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.floats(0, 1, exclude_min=True))
    @example(3, 0.05)
    @example(5, 0.003)
    @example(4, 1 / 70)
    def test_avoidance_rejects_exactly_the_settings_that_accept_nothing(self, k, alpha):
        separated = latent.mann_whitney_exact_less(np.arange(k), np.arange(k, 2 * k))
        fields = dict(k=k, alpha=alpha, pattern=parse_pattern(">x1x00"))
        if separated >= alpha:
            with pytest.raises(ConfigError, match=f"at k={k}, alpha="):
                toy_design_run("c.tsv", "m.json", "out", **fields)
        else:
            assert toy_design_run("c.tsv", "m.json", "out", **fields).k == k
        fields["pattern"] = parse_pattern(">x1xxx")
        assert toy_design_run("c.tsv", "m.json", "out", **fields).alpha == alpha

    def test_avoidance_run_samples_once_from_the_positive_model(
        self, toy_corpus_path, small_tox_model, tmp_path, monkeypatch
    ):
        class Stop(Exception):
            pass

        calls = []

        def record(self, n, **kwargs):
            calls.append((self.config.seed, n))
            return [Peptide("ACDEF")] * n

        def stop(points):
            raise Stop

        # the model has trained and sampled by the time the projection is fitted
        monkeypatch.setattr(vae.SequenceVae, "generate", record)
        monkeypatch.setattr(pipeline.latent, "pca2", stop)
        run = toy_design_run(
            toy_corpus_path,
            small_tox_model[0],
            tmp_path / "once",
            pattern=parse_pattern(">x1x00"),
            epochs=2,
        )
        with pytest.raises(Stop):
            run_design(run)
        assert calls == [(derive_seed(run.seed, "vae-positive"), run.candidates)]

    def test_failed_generation_keeps_loss_history(
        self, toy_corpus_path, small_tox_model, tmp_path, monkeypatch, capsys
    ):
        def reject(self, n, **kwargs):
            raise NumericError("generation rejected too many samples")

        monkeypatch.setattr(vae.SequenceVae, "generate", reject)
        out = tmp_path / "genfail"
        argv = ["design", "--pattern", "x1xxx", "--corpus", toy_corpus_path]
        argv += ["--tox-model", small_tox_model[0], "--out", str(out), "--seed", "1"]
        argv += ["--epochs", "4", "--latent-dim", "8", "--hidden-units", "8"]
        assert main(argv + ["--candidates", "4"]) == 4
        assert "generation rejected" in capsys.readouterr().err
        history = parse_tsv(out / "loss_history.tsv")
        assert {row["model"] for row in history} == {"positive"}
        epochs = [int(row["epoch"]) for row in history]
        assert len(epochs) >= 3 and epochs == list(range(1, len(epochs) + 1))
        assert not (out / "run_manifest.json").exists()
        assert not (out / "latent_coords.tsv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_training_keeps_loss_history(
        self, toy_corpus_path, small_tox_model, tmp_path
    ):
        # one batch per epoch: epoch 1 records cleanly, then the exploded
        # weights overflow
        out = tmp_path / "diverged"
        run = toy_design_run(
            toy_corpus_path, small_tox_model[0], out, learning_rate=1e30, batch_size=1000
        )
        with pytest.raises(TrainingDiverged) as err:
            run_design(run)
        history = parse_tsv(out / "loss_history.tsv")
        assert len(history) == len(err.value.history) >= 1
        assert not (out / "run_manifest.json").exists()

    def test_full_latent_distance_space_and_jitter(
        self, toy_corpus_path, small_tox_model, tmp_path
    ):
        run = toy_design_run(
            toy_corpus_path,
            small_tox_model[0],
            tmp_path / "latent_space",
            distance_space="latent",
            generation_mode="jitter",
            tau=0.5,
        )
        report = run_design(run)
        assert report.counts["representatives"] >= 1
        assert report.counts["filtered"] == int(
            np.ceil(0.25 * report.counts["generated"])
        )
        # the plotting projection is still emitted in full-latent mode
        coords = parse_tsv(tmp_path / "latent_space" / "latent_coords.tsv")
        assert {row["role"] for row in coords} >= {"positive", "candidate"}

    def test_avoidance_mode_rejects_all_on_toy_corpus(self, rejected_run):
        # converged toy models collapse their latent space, so the bilateral
        # significance gate cannot fire; the documented outcome is the
        # explicit rejection error rather than a silent empty report
        _, error = rejected_run
        assert re.search("stage latent-filter.*rejected every candidate", str(error))

    def test_rejection_error_counts_each_reason(self, rejected_run):
        # every candidate fails on distance or, failing only the rank test,
        # on significance; the error counts both from the scores it wrote
        out, error = rejected_run
        scores = parse_tsv(out / "filter_scores.tsv")
        alpha = DesignRun.alpha
        far = sum(float(r["d_plus"]) >= float(r["d_minus"]) for r in scores)
        weak = sum(
            float(r["d_plus"]) < float(r["d_minus"]) and float(r["p_value"]) >= alpha
            for r in scores
        )
        assert far + weak == len(scores) == 24
        assert (
            f"rejected every candidate ({far} on distance, d_plus >= d_minus, and "
            f"{weak} on significance only, p_value >= alpha {alpha}); relax"
        ) in str(error)

    def test_rejected_run_keeps_stage_artifacts(self, rejected_run):
        # the stages before the filter leave their artifacts; the manifest
        # of the earlier successful run in the same directory is gone, so
        # the directory reads as an incomplete run
        out, _ = rejected_run
        assert not (out / "run_manifest.json").exists()
        history = parse_tsv(out / "loss_history.tsv")
        assert {row["model"] for row in history} == {"positive"}
        coords = parse_tsv(out / "latent_coords.tsv")
        assert {row["role"] for row in coords} == {"positive", "negative", "candidate"}
        scores = parse_tsv(out / "filter_scores.tsv")
        assert len(scores) == 24
        assert {row["accepted"] for row in scores} == {"False"}

    def test_avoidance_plumbing_with_stubbed_gate(
        self, toy_corpus_path, small_tox_model, tmp_path, monkeypatch
    ):
        # exercise the bilateral screen end to end by accepting every
        # candidate at the gate (the gate itself is covered at unit level)
        from peptaste import latent

        real = latent.select_avoidance

        def accept_all(cands, pos, neg, k=5, alpha=0.05):
            ranked, scores = real(cands, pos, neg, k=k, alpha=alpha)
            forced = [
                latent.BilateralScore(s.index, s.d_plus, s.d_minus, s.delta, s.p_value, True)
                for s in scores
            ]
            order = sorted(range(len(forced)), key=lambda i: (forced[i].delta, i))
            return order, forced

        monkeypatch.setattr(pipeline.latent, "select_avoidance", accept_all)
        out = tmp_path / "avoid_full"
        run = toy_design_run(
            toy_corpus_path,
            small_tox_model[0],
            out,
            pattern=parse_pattern(">x1x00"),
            epochs=150,
        )
        run_design(run)
        history = parse_tsv(out / "loss_history.tsv")
        assert {row["model"] for row in history} == {"positive"}
        rows = parse_tsv(out / "candidates.tsv")
        for row in rows:
            assert row["d_minus"] != "" and row["delta"] != "" and row["p_value"] != ""
        coords = parse_tsv(out / "latent_coords.tsv")
        assert {r["role"] for r in coords} == {"positive", "negative", "candidate"}


class TestToxTrainPipeline:
    def test_counts_and_quality(self, small_tox_model):
        _, result = small_tox_model
        counts = result.counts
        assert counts["train_per_class"] == int(np.floor(0.9 * min(
            counts["pos_after_prep"], counts["neg_after_prep"]
        )))
        assert counts["train_per_class"] + counts["test_per_class"] == min(
            counts["pos_after_prep"], counts["neg_after_prep"]
        )
        assert result.heldout.mcc >= 0.9
        assert sum(result.weights) == pytest.approx(1.0)

    def test_toxpredict_reproduces_training_predictions(
        self, small_tox_model, tox_corpus_files, tmp_path
    ):
        model_path, result = small_tox_model
        pos_path, _ = tox_corpus_files
        rows = run_toxpredict(model_path, pos_path)
        seqs = read_sequences(pos_path)
        assert [r["sequence"] for r in rows] == seqs
        again = run_toxpredict(model_path, pos_path)
        assert rows == again

    def test_toxpredict_reports_invalid_rows(self, small_tox_model, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("ACDE\nAXDE\nKL\n")
        rows = run_toxpredict(small_tox_model[0], path)
        assert rows[0]["error"] == ""
        assert rows[1]["probability"] is None and "X" in rows[1]["error"]
        assert rows[2]["error"] == ""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"member_names": ("rf",)}, "member count must be between 2 and 5, got 1"),
            # member_specs() would collapse the repeats into one member; explicit
            # ids keep these cases' names from when a weight-step case preceded them
            pytest.param(
                {"member_names": ("rf", "rf")},
                "duplicate member 'rf'",
                id="fields2-duplicate member 'rf'",
            ),
            pytest.param(
                {"member_names": ("rf", "rf", "knn")},
                "duplicate member 'rf'",
                id="fields3-duplicate member 'rf'",
            ),
        ],
    )
    def test_options_reject_a_bad_weight_grid(self, fields, message):
        # the weight search would find it only after forward selection
        with pytest.raises(ConfigError, match=message):
            ToxTrainOptions(**fields)

    def test_toxtrain_keeps_a_repeated_sequence_once(
        self, tox_corpus_files, tmp_path, monkeypatch
    ):
        class Read(Exception):
            pass

        def stop(peptides, max_len):
            raise Read([p.sequence for p in peptides])

        monkeypatch.setattr(corpus_mod, "length_filter", stop)
        tox, neg = tox_corpus_files
        pos = tmp_path / "toxic.txt"
        pos.write_text(open(tox).read() * 2)
        with pytest.raises(Read) as read:
            run_toxtrain(str(pos), neg, None, ToxTrainOptions())
        seqs = read_sequences(tox)
        assert len(read_sequences(pos)) == 2 * len(seqs)
        assert read.value.args[0] == list(dict.fromkeys(seqs))

    @pytest.mark.parametrize(
        "universe, message",
        [
            (("AAC", "GAAC", "AAC"), "duplicate descriptor 'AAC'"),
            (("AAC", "FOO"), "unknown descriptor 'FOO'"),
        ],
    )
    def test_options_reject_a_bad_universe(self, universe, message):
        with pytest.raises(ConfigError, match=message):
            ToxTrainOptions(universe=universe)

    def test_toxtrain_encodes_and_scales_each_block_once(
        self, tox_corpus_files, tmp_path, monkeypatch
    ):
        encode, fit = descriptors.encode_matrix, vars(descriptors.FeatureScaler)["fit"]
        encoded, fitted = [], []

        def counted_encode(ids, peptides):
            encoded.append((tuple(ids), len(peptides)))
            return encode(ids, peptides)

        def counted_fit(cls, rows):
            fitted.append(rows.shape)
            return fit.__func__(cls, rows)

        monkeypatch.setattr(descriptors, "encode_matrix", counted_encode)
        monkeypatch.setattr(descriptors.FeatureScaler, "fit", classmethod(counted_fit))
        pos, neg = tox_corpus_files
        universe = ("AAC", "GAAC", "CTDC")
        options = ToxTrainOptions(
            folds=3, selector="knn", universe=universe, member_trees=5
        )
        result = run_toxtrain(pos, neg, None, options)
        n_train = 2 * result.counts["train_per_class"]
        n_test = result.counts["test_per_class"]
        # forward selection cross-validates 3 singles and 3 pairs, but each
        # block is encoded and fitted once; the held-out report encodes each
        # class through EnsembleModel.predict
        assert len(result.selection.trace) > len(universe)
        assert encoded == [((did,), n_train) for did in universe] + [
            (result.selection.selected, n_test)
        ] * 2
        assert fitted == [(n_train, 20), (n_train, 5), (n_train, 39)]

    def test_toxtrain_deterministic_for_fixed_seed(self, tox_corpus_files, tmp_path):
        pos, neg = tox_corpus_files
        options = ToxTrainOptions(
            seed=13,
            folds=4,
            selector="knn",
            universe=("AAC", "GAAC"),
            member_trees=10,
        )
        a = run_toxtrain(pos, neg, str(tmp_path / "a.json"), options)
        b = run_toxtrain(pos, neg, str(tmp_path / "b.json"), options)
        assert a.selection.selected == b.selection.selected
        assert a.weights == b.weights
        assert a.heldout == b.heldout
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_heldout_report_scores_as_toxpredict(self, tmp_path, monkeypatch):
        # the report's held-out metrics are those of model.predict, which
        # toxpredict and toxbench use, on the held-out peptides
        tox, ben = noisy_tox_corpus(np.random.default_rng(11))
        pos, neg = tmp_path / "toxic.txt", tmp_path / "benign.txt"
        pos.write_text("\n".join(tox) + "\n")
        neg.write_text("\n".join(ben) + "\n")
        splits, split = [], corpus_mod.balance_and_split

        def recorded(*args):
            splits.append(split(*args))
            return splits[-1]

        monkeypatch.setattr(corpus_mod, "balance_and_split", recorded)
        options = ToxTrainOptions(
            seed=5, folds=3, selector="lr", member_trees=4, universe=("AAC", "GAAC")
        )
        result = run_toxtrain(str(pos), str(neg), None, options)
        (held,) = splits
        rows = result.model.predict(held.test_pos + held.test_neg)
        y = [1] * len(held.test_pos) + [0] * len(held.test_neg)
        probas = [r["probability"] for r in rows]
        assert metrics_from_probas(y, probas) == result.heldout

    def test_toxbench_on_training_files(self, small_tox_model, tox_corpus_files):
        pos, neg = tox_corpus_files
        report, excluded = pipeline.run_toxbench(small_tox_model[0], pos, neg)
        assert excluded == 0
        assert report.tp + report.fn > 0 and report.tn + report.fp > 0
        assert report.mcc >= 0.9


def subparser(name):
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def option_strings(name):
    return [s for action in subparser(name)._actions for s in action.option_strings]


DESIGN_REQUIRED = [
    "design", "--pattern", "x1x00", "--corpus", "c.tsv", "--tox-model", "m.json",
    "--out", "out",
]
TOXTRAIN_REQUIRED = ["toxtrain", "--pos", "p.txt", "--neg", "n.txt", "--model-out", "m.json"]


class TestCliParity:
    """design and toxtrain flags parse onto their dataclass fields, and a
    flag left out leaves the field's own default."""

    def test_design_options_unchanged(self):
        assert option_strings("design") == [
            "-h", "--help", "--pattern", "--mode", "--corpus", "--tox-model", "--out",
            "--seed", "--epochs", "--latent-dim", "--extension-epochs",
            "--hidden-units", "--batch-size", "--dropout", "--l1-lambda",
            "--learning-rate", "--candidates", "--keep-fraction", "--k", "--alpha",
            "--cluster-threshold", "--max-len", "--generation-mode", "--tau",
            "--distance-space",
        ]

    def test_toxtrain_options_unchanged(self):
        assert option_strings("toxtrain") == [
            "-h", "--help", "--pos", "--neg", "--model-out", "--report-out",
            "--trace-out", "--seed", "--folds", "--epsilon", "--max-len", "--selector",
            "--selector-trees", "--member-trees", "--descriptors",
        ]

    def test_design_required_flags_give_defaults(self):
        run = design_run(build_parser().parse_args(DESIGN_REQUIRED))
        assert run == DesignRun(
            pattern=parse_pattern(">x1x00"),
            corpus_path="c.tsv",
            tox_model_path="m.json",
            out_dir="out",
        )

    def test_design_every_flag(self):
        argv = DESIGN_REQUIRED + [
            "--mode", "single", "--seed", "3", "--epochs", "7", "--latent-dim", "9",
            "--extension-epochs", "2", "--hidden-units", "5", "--batch-size", "6",
            "--dropout", "0.25", "--l1-lambda", "0.5", "--learning-rate", "0.02",
            "--candidates", "12", "--keep-fraction", "0.5", "--k", "4",
            "--alpha", "0.1", "--cluster-threshold", "0.8", "--max-len", "11",
            "--generation-mode", "jitter", "--tau", "0.75",
            "--distance-space", "latent",
        ]
        expected = DesignRun(
            pattern=parse_pattern(">x1x00"),
            corpus_path="c.tsv",
            tox_model_path="m.json",
            out_dir="out",
            mode=PatternMode.SINGLE,
            seed=3,
            epochs=7,
            latent_dim=9,
            extension_epochs=2,
            hidden_units=5,
            batch_size=6,
            dropout_rate=0.25,
            l1_lambda=0.5,
            learning_rate=0.02,
            candidates=12,
            keep_fraction=0.5,
            k=4,
            alpha=0.1,
            cluster_threshold=0.8,
            max_len=11,
            generation_mode="jitter",
            tau=0.75,
            distance_space="latent",
        )
        run = design_run(build_parser().parse_args(argv))
        assert run == expected
        # each flag moved its own field off the default
        defaults = design_run(build_parser().parse_args(DESIGN_REQUIRED))
        moved = {
            f.name
            for f in dataclasses.fields(DesignRun)
            if getattr(run, f.name) != getattr(defaults, f.name)
        }
        assert len(moved) == (len(argv) - len(DESIGN_REQUIRED)) // 2 == 19

    def test_toxtrain_required_flags_give_defaults(self):
        args = build_parser().parse_args(TOXTRAIN_REQUIRED)
        assert toxtrain_options(args) == ToxTrainOptions()
        assert (args.pos, args.neg, args.model_out) == ("p.txt", "n.txt", "m.json")
        assert args.report_out is None and args.trace_out is None

    def test_toxtrain_every_flag(self):
        argv = TOXTRAIN_REQUIRED + [
            "--report-out", "r.txt", "--trace-out", "t.tsv", "--seed", "3",
            "--folds", "4", "--epsilon", "0.01", "--max-len", "20", "--selector", "knn",
            "--selector-trees", "6", "--member-trees", "8",
            "--descriptors", "AAC, GAAC,,DPC",
        ]
        args = build_parser().parse_args(argv)
        assert toxtrain_options(args) == ToxTrainOptions(
            seed=3,
            folds=4,
            epsilon=0.01,
            max_len=20,
            selector="knn",
            selector_trees=6,
            member_trees=8,
            universe=("AAC", "GAAC", "DPC"),
        )
        assert (args.report_out, args.trace_out) == ("r.txt", "t.tsv")


class TestCli:
    def test_align_output(self, capsys):
        assert main(["align", "AAAA", "AAAC"]) == 0
        out = capsys.readouterr().out
        assert "score: 5.0" in out
        assert "normalized similarity: 0.625" in out

    @pytest.mark.parametrize(
        "pair, residue",
        [(("AC", "AÉ"), "É"), (("AÉ", "AC"), "É"), (("acde", "ACDE"), "a"),
         (("ACDE", "acde"), "a")],
    )
    def test_align_rejects_non_canonical_residues(self, capsys, pair, residue):
        assert main(["align", *pair]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid residue {residue!r}" in captured.err

    @pytest.mark.parametrize(
        "flag, field",
        [("--gap-open=nan", "gap_open"), ("--gap-extend=nan", "gap_extend"),
         ("--match=inf", "match"), ("--mismatch=-inf", "mismatch")],
    )
    def test_align_rejects_non_finite_parameters(self, capsys, flag, field):
        assert main(["align", "ACDEFG", "ACDQFG", flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field} must be finite" in captured.err

    def test_physchem_tsv(self, tmp_path, capsys):
        src = tmp_path / "seqs.txt"
        src.write_text("VVVV\n")
        assert main(["physchem", "--input", str(src)]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split("\t"), row.split("\t")))
        assert float(cols["aliphatic_index"]) == pytest.approx(290.0)

    def test_encode_header_names_every_column(self, tmp_path, capsys):
        src = tmp_path / "seqs.txt"
        src.write_text("ACDE\n")
        assert main(["encode", "--input", str(src), "--descriptors", "AAC,GAAC"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out[0].split("\t")) == 1 + 25
        assert out[0].split("\t")[1] == "AAC_A"

    def test_encode_cells_are_plain_floats(self, tmp_path, capsys):
        src = tmp_path / "seqs.txt"
        src.write_text("ACDE\nKR\n")
        assert main(["encode", "--input", str(src), "--descriptors", "AAC,CTDD"]) == 0
        out = capsys.readouterr().out
        assert "np." not in out
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        expected = encode_matrix(["AAC", "CTDD"], ["ACDE", "KR"])
        assert [[float(v) for v in row[1:]] for row in rows] == expected.tolist()

    def test_physchem_profiles_single_residues(self, tmp_path, capsys):
        # physchem enforces the alphabet only, not Peptide's two-residue minimum
        src = tmp_path / "seqs.txt"
        src.write_text("K\nGG\nW\n")
        assert main(["physchem", "--input", str(src)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["K", "GG", "W"]
        for row in rows:
            assert [float(v) for v in row[1:]] == list(dataclasses.astuple(profile(row[0])))

    @pytest.mark.parametrize(
        "command", [["physchem"], ["encode", "--descriptors", "AAC,CTDD"], ["cluster"]]
    )
    def test_bad_last_line_writes_nothing(self, tmp_path, capsys, command):
        rng = np.random.default_rng(4)
        seqs = ["".join(rng.choice(list(AMINO_ACIDS), size=8)) for _ in range(39)]
        src = tmp_path / "seqs.txt"
        src.write_text("\n".join(seqs + ["ACDXK"]) + "\n")
        out = tmp_path / "out.tsv"
        argv = [command[0], "--input", str(src), *command[1:]]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {src}: invalid residue 'X' in sequence 'ACDXK'\n"
        assert not out.exists()
        assert main(argv) == 3
        assert capsys.readouterr().out == ""

    def test_encode_error_names_file_and_too_short_sequence(self, tmp_path, capsys):
        src = tmp_path / "seqs.txt"
        src.write_text("ACDE\nAC\nKR\n")
        out = tmp_path / "out.tsv"
        argv = ["encode", "--input", str(src), "--descriptors", "AAC,TPC"]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {src}: sequence 'AC': TPC requires length >= 3, got 2\n"
        assert not out.exists()

    def test_toxtrain_rejects_peptide_too_short_for_universe(
        self, tox_corpus_files, tmp_path, capsys
    ):
        tox, neg = tox_corpus_files
        pos = tmp_path / "toxic.txt"
        pos.write_text(open(tox).read() + "KR\n")
        args = ["toxtrain", "--pos", str(pos), "--neg", neg, "--folds", "2",
                "--selector", "knn", "--model-out", str(tmp_path / "m.json"),
                "--descriptors", "AAC,TPC"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert str(pos) in err and "'KR'" in err and "TPC" in err
        assert not (tmp_path / "m.json").exists()

    def test_toxtrain_rejects_peptide_too_long_for_universe(self, tmp_path, capsys):
        # max_len 30 would keep length-28 rows, which no model can score
        rng = np.random.default_rng(9)
        files = {}
        for name, alphabet in (("toxic.txt", "KRCWHLFI"), ("benign.txt", "DESTGANQ")):
            seqs = ["".join(rng.choice(list(alphabet), size=int(rng.integers(20, 25))))
                    for _ in range(40)]
            if name == "toxic.txt":
                seqs[7] = "K" * 28
            files[name] = tmp_path / name
            files[name].write_text("\n".join(seqs) + "\n")
        args = ["toxtrain", "--pos", str(files["toxic.txt"]), "--neg",
                str(files["benign.txt"]), "--folds", "2", "--selector", "knn",
                "--model-out", str(tmp_path / "m.json"), "--descriptors", "AAC,Binary",
                "--max-len", "30"]
        assert main(args) == 2
        assert "max_len must be <= 25" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()
        # at the default max_len the row is dropped by the length filter instead
        args[args.index("--max-len") + 1] = "25"
        assert main(args) == 0

    def test_toxtrain_max_len_above_the_model_frame_is_a_config_error(
        self, tmp_path, capsys
    ):
        # rejected before either file is read (they do not exist)
        out = tmp_path / "m.json"
        argv = ["toxtrain", "--pos", str(tmp_path / "no-pos.txt"), "--neg",
                str(tmp_path / "no-neg.txt"), "--model-out", str(out), "--max-len", "26"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: max_len must be <= 25, the longest peptide a toxicity model "
            "scores, got 26\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--pos", "--neg"])
    def test_toxtrain_bad_residue_names_its_file(
        self, tox_corpus_files, tmp_path, capsys, flag
    ):
        files = dict(zip(("--pos", "--neg"), tox_corpus_files))
        bad = tmp_path / "bad.txt"
        bad.write_text(open(files[flag]).read() + "ACXDE\n")
        files[flag] = str(bad)
        out = tmp_path / "m.json"
        argv = ["toxtrain", "--pos", files["--pos"], "--neg", files["--neg"],
                "--model-out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"error: {bad}: invalid residue 'X' in sequence 'ACXDE'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["census", "design"])
    def test_taste_corpus_bad_residue_names_its_file(
        self, small_tox_model, tmp_path, capsys, command
    ):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("ACDE\t1xxxx\nACXDE\tx1xxx\n")
        argv = [command, "--corpus", str(corpus)]
        if command == "design":
            argv += ["--pattern", "x1xxx", "--tox-model", small_tox_model[0],
                     "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{corpus}: line 2: invalid residue 'X' in sequence 'ACXDE'\n" in err

    def test_toxbench_counts_excluded_rows(self, small_tox_model, tox_corpus_files,
                                           tmp_path, capsys):
        pos, neg = tox_corpus_files
        bad_pos, bad_neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
        bad_pos.write_text(open(pos).read() + "KRXW\n")  # non-canonical residue
        bad_neg.write_text(open(neg).read() + "D" * 30 + "\n")  # over pad_len
        out = tmp_path / "bench.tsv"
        assert main(["toxbench", "--model", small_tox_model[0], "--pos", str(bad_pos),
                     "--neg", str(bad_neg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[-2].startswith("MCC\t")
        assert lines[-1] == "excluded\t2"
        clean = tmp_path / "clean.tsv"
        assert main(["toxbench", "--model", small_tox_model[0], "--pos", pos,
                     "--neg", neg, "--out", str(clean)]) == 0
        # the bad rows change nothing but the excluded count
        assert clean.read_text().splitlines()[:-1] == lines[:-1]
        assert clean.read_text().splitlines()[-1] == "excluded\t0"

    def test_toxbench_with_no_scorable_row_names_both_files(
        self, small_tox_model, tmp_path, capsys
    ):
        pos, neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
        pos.write_text("KRXW\nKRBK\n")
        neg.write_text("DEZS\n")
        out = tmp_path / "bench.tsv"
        assert main(["toxbench", "--model", small_tox_model[0], "--pos", str(pos),
                     "--neg", str(neg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (
            f"error: the model can score no row of {pos} or {neg}: all 3 excluded\n"
        )
        assert not out.exists()

    def test_cluster_output(self, tmp_path, capsys):
        src = tmp_path / "seqs.txt"
        src.write_text("ACDE\nACDE\nWWWW\n")
        assert main(["cluster", "--input", str(src)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "cluster_id\tmember\tis_representative"
        assert len(lines) == 4

    def test_census_stdout(self, toy_corpus_path, capsys):
        assert main(["census", "--corpus", toy_corpus_path]) == 0
        assert "multiplicity" in capsys.readouterr().out

    def test_toxbench_cli(self, small_tox_model, tox_corpus_files, tmp_path, capsys):
        pos, neg = tox_corpus_files
        code = main(
            ["toxbench", "--model", small_tox_model[0], "--pos", pos, "--neg", neg]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("metric\tvalue")
        assert "MCC\t" in out

    def test_toxpredict_cli(self, small_tox_model, tmp_path, capsys):
        src = tmp_path / "seqs.txt"
        src.write_text("KRCW\nDEST\n")
        out_path = tmp_path / "calls.tsv"
        code = main(
            [
                "toxpredict",
                "--model",
                small_tox_model[0],
                "--input",
                str(src),
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        rows = parse_tsv(out_path)
        assert rows[0]["call"] == "toxic"
        assert rows[1]["call"] == "nontoxic"

    def test_config_error_exit_code(self, toy_corpus_path, capsys):
        code = main(
            [
                "design",
                "--pattern",
                "xxxxx",
                "--corpus",
                toy_corpus_path,
                "--tox-model",
                "none.json",
                "--out",
                "unused",
            ]
        )
        assert code == 2
        assert "requests nothing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--learning-rate", "-0.001"),
            ("--learning-rate", "0"),
            ("--learning-rate", "nan"),
            ("--l1-lambda", "nan"),
            ("--l1-lambda", "-1"),
        ],
    )
    def test_invalid_optimizer_setting_exits_before_training(
        self, toy_corpus_path, small_tox_model, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "bad"
        argv = ["design", "--pattern", "x1xxx", "--corpus", toy_corpus_path]
        argv += ["--tox-model", small_tox_model[0], "--out", str(out)]
        assert main(argv + [flag, value]) == 2
        assert flag.removeprefix("--").replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "0"], "k must be >= 1, got 0"),
            (["--keep-fraction", "2"], "keep_fraction must be in (0, 1], got 2.0"),
            (["--keep-fraction", "0"], "keep_fraction must be in (0, 1], got 0.0"),
            (["--alpha", "0"], "alpha must be in (0, 1], got 0.0"),
            (["--alpha", "nan"], "alpha must be in (0, 1], got nan"),
            # explicit ids keep these cases' names from before the message named the setting
            pytest.param(
                ["--cluster-threshold", "0"],
                "cluster_threshold must be in (0, 1], got 0.0",
                id="flags5-threshold must be in (0, 1], got 0.0",
            ),
            pytest.param(
                ["--cluster-threshold", "1.5"],
                "cluster_threshold must be in (0, 1], got 1.5",
                id="flags6-threshold must be in (0, 1], got 1.5",
            ),
            (["--tau", "nan", "--generation-mode", "jitter"], "tau must be finite, got nan"),
            (["--tau", "inf"], "tau must be finite, got inf"),
            (["--candidates", "0"], "candidates must be >= 1, got 0"),
        ],
    )
    def test_design_rejects_bad_settings_before_reading(
        self, tmp_path, capsys, flags, message
    ):
        # the input files do not exist: reading them would exit 3
        missing = str(tmp_path / "missing.tsv")
        out = tmp_path / "run"
        argv = ["design", "--pattern", "x1xxx", "--corpus", missing]
        argv += ["--tox-model", missing, "--out", str(out)]
        assert main(argv + flags) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert main(argv) == 3
        assert not out.exists()

    def test_bad_setting_keeps_the_earlier_manifest(
        self, toy_corpus_path, small_tox_model, tmp_path, capsys
    ):
        # the inputs exist, so only the setting check stands between the
        # command and the manifest of an earlier run in --out
        out = tmp_path / "run"
        out.mkdir()
        (out / "run_manifest.json").write_text("{}\n")
        argv = ["design", "--pattern", "x1xxx", "--corpus", toy_corpus_path]
        argv += ["--tox-model", small_tox_model[0], "--out", str(out)]
        assert main(argv + ["--hidden-units", "0"]) == 2
        assert "error: hidden_units must be >= 1, got 0" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["run_manifest.json"]
        assert (out / "run_manifest.json").read_text() == "{}\n"

    def test_avoidance_k_that_can_accept_nothing_exits_before_reading(
        self, tmp_path, capsys
    ):
        # with 3 distances per side the smallest p-value is 1/C(6, 3) = 0.05,
        # not below the default alpha; the input files do not exist
        missing = str(tmp_path / "missing.tsv")
        out = tmp_path / "run"
        argv = ["design", "--corpus", missing, "--tox-model", missing, "--out", str(out)]
        argv += ["--k", "3"]
        assert main(argv + ["--pattern", "x1x00"]) == 2
        err = capsys.readouterr().err
        assert "error: avoidance mode can accept no candidate at k=3, alpha=0.05" in err
        assert "the smallest k that can is 4" in err
        assert not out.exists()
        # standard mode screens without the rank test: the run is built, and
        # stops only at the missing model file
        standard = argv + ["--pattern", "x1xxx"]
        assert design_run(build_parser().parse_args(standard)).k == 3
        assert main(standard) == 3
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-0.5"])
    def test_toxtrain_rejects_bad_epsilon(self, tox_corpus_files, tmp_path, capsys, value):
        pos, neg = tox_corpus_files
        out = tmp_path / "model.json"
        argv = ["toxtrain", "--pos", pos, "--neg", neg, "--model-out", str(out)]
        argv += ["--descriptors", "AAC,GAAC", "--folds", "3", "--epsilon", value]
        assert main(argv) == 2
        assert f"epsilon must be >= 0 and not NaN, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--member-trees", "0"], "trees must be >= 1"),
            (["--selector-trees", "0"], "trees must be >= 1"),
            (["--selector", "foo"], "unknown classifier preset 'foo'"),
            (["--folds", "1"], "folds must be >= 2, got 1"),
            (["--epsilon", "nan"], "epsilon must be >= 0 and not NaN, got nan"),
            (["--max-len", "1"], "max_len must be >= 2, got 1"),
        ],
    )
    def test_toxtrain_rejects_bad_options_before_reading(
        self, tmp_path, capsys, flags, message
    ):
        # the input files do not exist: reading them would exit 3
        missing = str(tmp_path / "missing.txt")
        out = tmp_path / "model.json"
        argv = ["toxtrain", "--pos", missing, "--neg", missing, "--model-out", str(out)]
        assert main(argv + flags) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert main(argv) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["toxtrain", "encode"])
    @pytest.mark.parametrize(
        "value, message",
        [
            ("FOO", "unknown descriptor 'FOO'"),
            ("AAC,FOO", "unknown descriptor 'FOO'"),
            (",", "--descriptors names no descriptor"),
            ("", "--descriptors names no descriptor"),
            ("AAC,AAC", "duplicate descriptor 'AAC'"),
        ],
    )
    def test_bad_descriptor_list_is_a_config_error(
        self, tox_corpus_files, tmp_path, capsys, command, value, message
    ):
        pos, neg = tox_corpus_files
        out = tmp_path / "out"
        if command == "toxtrain":
            argv = ["toxtrain", "--pos", pos, "--neg", neg, "--model-out", str(out)]
        else:
            argv = ["encode", "--input", pos, "--out", str(out)]
        assert main(argv + ["--descriptors", value]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_model_naming_unknown_descriptor_is_a_data_error(
        self, small_tox_model, tmp_path, capsys
    ):
        doc = json.loads(open(small_tox_model[0]).read())
        doc["descriptor_ids"][0] = "FOO"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        src = tmp_path / "seqs.txt"
        src.write_text("KRCW\n")
        assert main(["toxpredict", "--model", str(model), "--input", str(src)]) == 3
        assert "unknown descriptor 'FOO'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("no_ids", "descriptor_ids is empty"),
            ("other_ids", "scaler has"),
            ("short_scale", "scaler has"),
        ],
    )
    def test_model_whose_scaler_does_not_fit_its_descriptors_names_the_file(
        self, small_tox_model, tmp_path, capsys, edit, message
    ):
        doc = json.loads(open(small_tox_model[0]).read())
        if edit == "no_ids":
            doc["descriptor_ids"] = []
        elif edit == "other_ids":
            # a valid descriptor list of another width than the scaler's
            doc["descriptor_ids"] = ["AAC"] if len(doc["scaler"]["mean"]) != 20 else ["DPC"]
        else:
            doc["scaler"]["scale"] = doc["scaler"]["scale"][:-1]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        src = tmp_path / "seqs.txt"
        src.write_text("KRCW\n")
        assert main(["toxpredict", "--model", str(model), "--input", str(src)]) == 3
        err = capsys.readouterr().err
        assert str(model) in err and message in err

    def test_data_error_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        assert main(["physchem", "--input", missing]) == 3

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("physchem", "--input"),
            ("cluster", "--input"),
            ("encode", "--input"),
            ("toxpredict", "--input"),
            ("toxpredict", "--model"),
            ("toxbench", "--pos"),
            ("toxtrain", "--pos"),
            ("design", "--corpus"),
            ("census", "--corpus"),
        ],
    )
    def test_input_that_is_not_utf8_is_a_data_error(
        self, small_tox_model, tox_corpus_files, tmp_path, capsys, command, flag
    ):
        pos, neg = tox_corpus_files
        args = {
            "physchem": ["--input", pos],
            "cluster": ["--input", pos],
            "encode": ["--input", pos, "--descriptors", "AAC"],
            "toxpredict": ["--model", small_tox_model[0], "--input", pos],
            "toxbench": ["--model", small_tox_model[0], "--pos", pos, "--neg", neg],
            "toxtrain": ["--pos", pos, "--neg", neg, "--model-out",
                         str(tmp_path / "m.json"), "--descriptors", "AAC"],
            "design": ["--pattern", "x1xxx", "--corpus", pos, "--tox-model",
                       small_tox_model[0], "--out", str(tmp_path / "run")],
            "census": ["--corpus", pos],
        }[command]
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(b"\xff\xfe" + "KRCW\n".encode("utf-16-le"))
        args[args.index(flag) + 1] = str(bad)
        assert main([command, *args]) == 3
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["toxpredict", "toxbench", "design"])
    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda text: text[: len(text) // 2], "not a valid model file"),
            (lambda text: _edited(text, member_specs=MISSING), "lacks 'member_specs'"),
            (lambda text: _edited(text, scaler=MISSING), "lacks 'scaler'"),
            (lambda text: _edited(text, member_specs=[]), "not a valid model file"),
            (lambda text: _edited(text, cv_mcc="high"), "not a valid model file"),
            (lambda text: _edited(text, weights="0.5"), "not a valid model file"),
            (lambda text: _edited(text, members={}), "lacks 'rf'"),
            (lambda text: _edited(text, descriptor_config=MISSING),
             "lacks 'descriptor_config'"),
            (lambda text: _edited(text, descriptor_config=OTHER_DESCRIPTOR_CONFIG),
             "descriptor_config must be {'pad_len': 25, 'window': 5, 'k_max': 3, "
             "'lam': 1, 'weight': 0.05}, got {'k_max': 3, 'lam': 3, 'pad_len': 20"),
            (lambda text: _edited(text, descriptor_ids=["NOPE"]),
             "not a valid model file: unknown descriptor 'NOPE'"),
            (lambda text: _edited(text, descriptor_ids=_ids(text) * 2),
             "not a valid model file: duplicate descriptor "),
            (lambda text: _edited(text, weights=[float("nan"), 1.0, 0.2, 0.5, 0.2]),
             "weights must be non-negative, got (nan, "),
            (lambda text: _member_edited(text, "knn", lambda s: s.update(k=0)),
             "labels and k=0"),
            (lambda text: _member_edited(text, "knn", lambda s: s.update(k=2.7)),
             "an integer 1 <= k <= labels, got "),
            (lambda text: _member_edited(text, "knn", lambda s: s.update(k=True)),
             "labels and k=True"),
            (lambda text: _member_edited(text, "knn", lambda s: s.update(k="5")),
             "labels and k='5'"),
            (_knn_listed_twice, "not a valid model file: member_names lists a member twice"),
            (lambda text: _member_edited(text, "knn", lambda s: s.update(y=s["y"][:3])),
             " 3 labels and k=5"),
            (lambda text: _member_edited(text, "lr", lambda s: s.update(coef=[0] * 3)),
             "logistic regression has 3 coefficients for "),
            (lambda text: _member_edited(
                text, "rf",
                lambda s: _first_split_set(s["trees"][0]["tree"], "feature", 999),
            ), "nodes needs features below "),
            (lambda text: _member_edited(text, "rf", lambda s: s.update(trees=[])),
             "a forest needs at least one tree"),
            (lambda text: _member_edited(
                text, "gbt-l", lambda s: _first_split_set(s["stages"][0], "left", 10**6)
            ), "nodes needs features below "),
            (lambda text: _scaler_edited(text, "mean", NAN), "scaler means must be finite"),
            (lambda text: _scaler_edited(text, "mean", -INF), "scaler means must be finite"),
            (lambda text: _scaler_edited(text, "scale", 0.0),
             "scaler scales must be finite and > 0"),
            (lambda text: _scaler_edited(text, "scale", -1.0),
             "scaler scales must be finite and > 0"),
            (lambda text: _scaler_edited(text, "scale", INF),
             "scaler scales must be finite and > 0"),
            (lambda text: _scaler_edited(text, "scale", NAN),
             "scaler scales must be finite and > 0"),
            (lambda text: _member_edited(text, "lr", lambda s: s["coef"].__setitem__(0, NAN)),
             "logistic regression weights must be finite"),
            (lambda text: _member_edited(text, "lr", lambda s: s.update(intercept=INF)),
             "logistic regression weights must be finite"),
            (lambda text: _member_edited(text, "gbt-x", lambda s: s.update(f0=NAN)),
             "gradient boosting's f0 must be finite"),
            (lambda text: _member_edited(
                text, "rf",
                lambda s: _first_split_set(s["trees"][0]["tree"], "threshold", NAN),
            ), "a tree's thresholds and values must be finite"),
            (lambda text: _member_edited(
                text, "gbt-l", lambda s: s["stages"][0]["value"].__setitem__(-1, -INF)
            ), "a tree's thresholds and values must be finite"),
            (lambda text: _member_edited(text, "knn", lambda s: s["X"][0].__setitem__(0, NAN)),
             "k-NN training rows must be finite"),
            (lambda text: _adaboost_alpha(text, NAN), "AdaBoost alphas must be finite"),
        ],
        ids=["truncated", "no-member-specs", "no-scaler", "specs-a-list",
             "mcc-a-string", "weights-a-string", "no-member-state",
             "no-descriptor-config", "other-descriptor-config", "unknown-descriptor",
             "repeated-descriptor", "nan-weight", "knn-k-0", "knn-k-2.7", "knn-k-true",
             "knn-k-string", "knn-listed-twice", "knn-3-labels",
             "lr-3-coefficients", "rf-feature-999", "rf-no-trees", "gbt-child-1e6",
             "scaler-mean-nan", "scaler-mean-inf", "scaler-scale-0", "scaler-scale-negative",
             "scaler-scale-inf", "scaler-scale-nan", "lr-coef-nan", "lr-intercept-inf",
             "gbt-f0-nan", "rf-threshold-nan", "gbt-value-inf", "knn-x-nan",
             "adb-alpha-nan"],
    )
    def test_malformed_model_file_is_a_data_error(
        self, small_tox_model, tox_corpus_files, toy_corpus_path, tmp_path, capsys,
        command, damage, message,
    ):
        model = tmp_path / "model.json"
        model.write_text(damage(open(small_tox_model[0]).read()))
        pos, neg = tox_corpus_files
        out = tmp_path / "run"
        prefix = "error: "
        if command == "toxpredict":
            argv = [command, "--model", str(model), "--input", pos]
        elif command == "toxbench":
            argv = [command, "--model", str(model), "--pos", pos, "--neg", neg]
        else:
            # design reads the model before the corpus: nothing is trained
            # and no artifact is written
            argv = [command, "--tox-model", str(model), "--pattern", "x1xxx"]
            argv += ["--corpus", toy_corpus_path, "--out", str(out)]
            argv += ["--epochs", "2", "--latent-dim", "2", "--hidden-units", "4"]
            prefix = "error: stage toxicity: "
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{prefix}{model}: ") and message in err
        assert not out.exists()

    def test_numeric_error_exit_code(self, toy_corpus_path, small_tox_model, tmp_path, capsys):
        # a half-trained model sits in the regime where every decode opens
        # with a pad, so the generation budget is exhausted: exit 4
        code = main(
            [
                "design",
                "--pattern",
                "x1xxx",
                "--corpus",
                toy_corpus_path,
                "--tox-model",
                small_tox_model[0],
                "--out",
                str(tmp_path / "numfail"),
                "--epochs",
                "200",
                "--latent-dim",
                "8",
                "--hidden-units",
                "16",
                "--candidates",
                "8",
                "--seed",
                "1",
            ]
        )
        assert code == 4

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
