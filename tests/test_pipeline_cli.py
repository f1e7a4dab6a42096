import argparse
import dataclasses
import json
import re
import shutil

import numpy as np
import pytest

from peptaste import pipeline, vae
from peptaste.cli import build_parser, design_run, main, toxtrain_options
from peptaste.descriptors import encode_matrix
from peptaste.errors import DataError, NumericError, ParseError, TrainingDiverged
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
from peptaste.sequences import PatternMode, parse_pattern


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
        assert corpus.records[0].label.code == "x1xxx"

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
        assert len(rows) == len(report.outcome_positive.history)
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

    def test_rejected_run_keeps_stage_artifacts(self, rejected_run):
        # the stages before the filter leave their artifacts; the manifest
        # of the earlier successful run in the same directory is gone, so
        # the directory reads as an incomplete run
        out, _ = rejected_run
        assert not (out / "run_manifest.json").exists()
        history = parse_tsv(out / "loss_history.tsv")
        assert {row["model"] for row in history} == {"positive", "negative"}
        coords = parse_tsv(out / "latent_coords.tsv")
        assert {row["role"] for row in coords} == {"positive", "negative", "candidate"}
        scores = parse_tsv(out / "filter_scores.tsv")
        assert len(scores) == 24
        assert {row["accepted"] for row in scores} == {"False"}

    def test_avoidance_plumbing_with_stubbed_gate(
        self, toy_corpus_path, small_tox_model, tmp_path, monkeypatch
    ):
        # exercise the dual-model path end to end by accepting every
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
        report = run_design(run)
        assert report.outcome_negative is not None
        history = parse_tsv(out / "loss_history.tsv")
        assert {row["model"] for row in history} == {"positive", "negative"}
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
            "--distance-space", "--workers",
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
            "--distance-space", "latent", "--workers", "2",
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
            workers=2,
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
        assert len(moved) == (len(argv) - len(DESIGN_REQUIRED)) // 2 == 20

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
        # max_len 30 keeps length-28 rows, which Binary (pad_len 25) cannot encode
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
        assert main(args) == 3
        err = capsys.readouterr().err
        assert str(files["toxic.txt"]) in err and "'" + "K" * 28 + "'" in err
        assert "Binary requires length <= 25" in err
        assert not (tmp_path / "m.json").exists()
        # at the default max_len the row is dropped by the length filter instead
        args[args.index("--max-len") + 1] = "25"
        assert main(args) == 0

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

    def test_data_error_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        assert main(["physchem", "--input", missing]) == 3

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
