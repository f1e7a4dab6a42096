"""Design outputs do not depend on the BLAS thread count: run_design keeps
BLAS on one thread from the model read to the manifest, puts the count
back when it returns or fails, and nothing starts a thread on import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from peptaste import nn, pipeline, vae
from peptaste.cli import main
from peptaste.errors import NumericError

SRC = str(Path(__file__).resolve().parents[1] / "src")
DESIGN_FILES = (*pipeline.DESIGN_OUTPUTS, pipeline.MANIFEST)

needs_blas_setter = pytest.mark.skipif(
    not nn._blas_thread_functions(),
    reason="no OpenBLAS thread-count setter found in this process, so nothing pins BLAS",
)


def python(code_or_args, **env):
    """Run a fresh interpreter on the package sources; its stdout."""
    args = ["-c", code_or_args] if isinstance(code_or_args, str) else code_or_args
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@needs_blas_setter
def test_latent_2000_design_is_the_same_bytes_at_one_and_two_threads(
    toy_corpus_path, small_tox_model, tmp_path
):
    # at latent 2000 the matrix products are large enough for OpenBLAS to
    # split them, and a split sums in another order
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        argv = ["-m", "peptaste.cli", "design", "--pattern", "x1xxx"]
        argv += ["--corpus", toy_corpus_path, "--tox-model", small_tox_model[0]]
        argv += ["--out", str(out), "--seed", "1", "--epochs", "3"]
        argv += ["--extension-epochs", "0", "--latent-dim", "2000"]
        python(argv, OPENBLAS_NUM_THREADS=threads)
        assert sorted(p.name for p in out.iterdir()) == sorted(DESIGN_FILES)
        outputs[threads] = {name: (out / name).read_bytes() for name in DESIGN_FILES}
    for name in DESIGN_FILES:
        assert outputs["1"][name] == outputs["2"][name], name


@needs_blas_setter
class TestPin:
    def design(self, corpus, model, out, monkeypatch):
        """A small CLI design run; its exit code and the BLAS thread count
        seen by each training call."""
        seen = []
        train = vae.train_la

        def counted(*args, **kwargs):
            seen.append(get())
            return train(*args, **kwargs)

        get, _ = nn._blas_thread_functions()
        monkeypatch.setattr(vae, "train_la", counted)
        argv = ["design", "--pattern", "x1xxx", "--corpus", corpus, "--tox-model", model]
        argv += ["--out", str(out), "--seed", "1", "--epochs", "3"]
        argv += ["--latent-dim", "8", "--hidden-units", "8", "--candidates", "4"]
        return main(argv), seen

    @pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "generation-fails"])
    def test_count_is_one_inside_and_restored_after(
        self, toy_corpus_path, small_tox_model, tmp_path, monkeypatch, fails
    ):
        if fails:
            def reject(self, n, **kwargs):
                raise NumericError("generation rejected too many samples")

            monkeypatch.setattr(vae.SequenceVae, "generate", reject)
        get, put = nn._blas_thread_functions()
        original = get()
        try:
            put(2)
            before = get()
            code, seen = self.design(
                toy_corpus_path, small_tox_model[0], tmp_path / "run", monkeypatch
            )
            assert get() == before
        finally:
            put(original)
        assert code == (4 if fails else 0)
        assert seen == [1]


def test_import_and_screens_start_no_thread(tmp_path):
    peptides = tmp_path / "peptides.txt"
    peptides.write_text("ACDEFGHIK\nKLMNPQRST\n")
    code = f"""
import contextlib, io, sys, threading
import peptaste.cli
print("concurrent.futures" in sys.modules, "multiprocessing" in sys.modules)
print(threading.active_count())
with contextlib.redirect_stdout(io.StringIO()):
    code = peptaste.cli.main(["physchem", "--input", {str(peptides)!r}])
print(code, threading.active_count())
"""
    assert python(code).split() == ["False", "False", "1", "0", "1"]
