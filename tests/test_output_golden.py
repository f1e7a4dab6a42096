"""Golden CLI outputs: sha256 digests of the tables and reports that the
screening and training commands write.

They pin, byte for byte: the `physchem` and `encode` (AAC,CTDD) tables of a
fixed library, the `census` table of the packaged toy corpus, the `toxbench`
table of the `small_tox_model` model on noisy labeled files with two rows it
cannot score, and the `--report-out`, `--trace-out` and model files of a
small fixed `toxtrain` run on the same files.  Each table written with
`--out` must match what the same command prints to stdout without it.
"""

import hashlib

import numpy as np
import pytest

from conftest import synthetic_tox_corpus
from peptaste.cli import main
from peptaste.sequences import AMINO_ACIDS

GOLDEN = {
    "physchem": "c0801db1a5b201c11b82498b36c5a3242b6162da29e45a4a5a7aef83a01f8161",
    "encode": "9334d7514ade013a682c527d531dfdddad38ed004342d9bb3fe459c84235c508",
    "census": "832597816b201fb57dd3561f877aed413d4953a3efddc14a68a47820d4fa82d7",
    "toxbench": "c9c092c6533f2590b125ce2137f009d042907fe8cb2d79ef9000b6a97ab47639",
    "toxtrain_report": "7138cee4bb589101ff587c5a3ae230de54b9e539375dfd4006d41fb767161584",
    "toxtrain_trace": "e1d4cd0f7b12a3cfe91f81fb7a33abf5a361df9d1bf2677ddecd3a7998cfb1a1",
    "toxtrain_model": "98e7e11c637754b052bd94a1bdcb05fd7857a9e7fc10ec8ee048ff34fae7d4ef",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixed_library() -> list[str]:
    rng = np.random.default_rng(17)
    return [
        "".join(rng.choice(list(AMINO_ACIDS), size=int(rng.integers(2, 26))))
        for _ in range(40)
    ]


@pytest.fixture
def library(tmp_path):
    src = tmp_path / "library.txt"
    src.write_text("\n".join(fixed_library()) + "\n")
    return str(src)


def _file_and_stdout(argv, out, capsys) -> bytes:
    """The bytes argv writes with --out, checked equal to its stdout without."""
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv[:-2]) == 0
    data = out.read_bytes()
    assert capsys.readouterr().out.encode() == data
    return data


def test_physchem(library, tmp_path, capsys):
    out = tmp_path / "physchem.tsv"
    data = _file_and_stdout(
        ["physchem", "--input", library, "--out", str(out)], out, capsys
    )
    assert _sha(data) == GOLDEN["physchem"], _sha(data)


def test_encode(library, tmp_path, capsys):
    out = tmp_path / "encode.tsv"
    argv = ["encode", "--input", library, "--descriptors", "AAC,CTDD"]
    data = _file_and_stdout(argv + ["--out", str(out)], out, capsys)
    assert _sha(data) == GOLDEN["encode"], _sha(data)


def test_census(toy_corpus_path, tmp_path, capsys):
    out = tmp_path / "census.tsv"
    data = _file_and_stdout(
        ["census", "--corpus", toy_corpus_path, "--out", str(out)], out, capsys
    )
    assert _sha(data) == GOLDEN["census"], _sha(data)


@pytest.fixture
def noisy_files(tmp_path):
    """Toxic and benign files with a fifth of each class swapped, so no
    metric or MCC is a round number."""
    tox, ben = synthetic_tox_corpus(np.random.default_rng(5), n_tox=50, n_ben=60)
    pos, neg = tmp_path / "toxic.txt", tmp_path / "benign.txt"
    pos.write_text("\n".join(tox[10:] + ben[:10]) + "\n")
    neg.write_text("\n".join(ben[10:] + tox[:10]) + "\n")
    return str(pos), str(neg)


def test_toxbench(small_tox_model, noisy_files, tmp_path, capsys):
    pos, neg = noisy_files
    bad_pos, bad_neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
    bad_pos.write_text(open(pos).read() + "KRXW\n")
    bad_neg.write_text(open(neg).read() + "D" * 30 + "\n")
    out = tmp_path / "bench.tsv"
    argv = ["toxbench", "--model", small_tox_model[0], "--pos", str(bad_pos),
            "--neg", str(bad_neg), "--out", str(out)]
    data = _file_and_stdout(argv, out, capsys)
    assert _sha(data) == GOLDEN["toxbench"], _sha(data)


def test_toxtrain_report_and_trace(noisy_files, tmp_path, capsys):
    pos, neg = noisy_files
    files = {name: tmp_path / name for name in ("report.txt", "trace.tsv", "m.json")}
    argv = ["toxtrain", "--pos", pos, "--neg", neg, "--seed", "3", "--folds", "3",
            "--selector", "knn", "--member-trees", "5",
            "--descriptors", "AAC,GAAC,CTDC",
            "--model-out", str(files["m.json"]),
            "--report-out", str(files["report.txt"]),
            "--trace-out", str(files["trace.tsv"])]
    assert main(argv) == 0
    report = files["report.txt"].read_bytes()
    assert capsys.readouterr().out.encode() == report
    digests = {
        "toxtrain_report": _sha(report),
        "toxtrain_trace": _sha(files["trace.tsv"].read_bytes()),
        "toxtrain_model": _sha(files["m.json"].read_bytes()),
    }
    assert digests == {key: GOLDEN[key] for key in digests}, digests
