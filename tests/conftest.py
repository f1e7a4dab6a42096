import contextlib
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from peptaste import descriptors, pipeline
from peptaste.errors import ValidationError
from peptaste.sequences import AMINO_ACIDS, decode_argmax
from peptaste.similarity import AlignParams


def random_peptide(rng, lo=2, hi=14) -> str:
    length = int(rng.integers(lo, hi + 1))
    return "".join(rng.choice(list(AMINO_ACIDS), size=length))


@st.composite
def align_params(draw):
    """Valid alignment parameters: match > 0 > mismatch, |extend| <= |open|."""
    gap_open = draw(st.floats(-3.0, 0.0))
    return AlignParams(
        match=draw(st.floats(0.5, 3.0)),
        mismatch=draw(st.floats(-3.0, -0.1)),
        gap_open=gap_open,
        gap_extend=draw(st.floats(gap_open, 0.0)),
    )


def named_params(model) -> dict[str, np.ndarray]:
    """A SequenceVae's parameter arrays by name: views into its buffer."""
    return model.buffer.views(model.buffer.values)


def reconstructions(model, peptides) -> list[str | None]:
    """Argmax decoding of each peptide's latent mean under a SequenceVae;
    None when the decoded sequence is shorter than the peptide minimum."""
    out = []
    for row in model.decode(model.encode(peptides)):
        try:
            out.append(str(decode_argmax(row)))
        except ValidationError:
            out.append(None)
    return out


class DescriptorSettings(NamedTuple):
    pad_len: int
    window: int
    k_max: int
    lam: int
    weight: float


DEFAULT_SETTINGS = DescriptorSettings(
    descriptors.PAD_LEN, descriptors.WINDOW, descriptors.K_MAX, descriptors.LAM,
    descriptors.WEIGHT,
)
# moves every setting an encoder's shape depends on, so that the golden and
# oracle tests also pin arithmetic that happens to hold at the defaults only
SMALL_SETTINGS = DEFAULT_SETTINGS._replace(pad_len=20, window=4, k_max=2, lam=3)


@contextlib.contextmanager
def descriptor_settings(settings: DescriptorSettings):
    """The descriptors module's encoding constants set to settings, then
    restored."""
    values = {name.upper(): value for name, value in settings._asdict().items()}
    saved = {name: getattr(descriptors, name) for name in values}
    try:
        for name, value in values.items():
            setattr(descriptors, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(descriptors, name, value)


def synthetic_tox_corpus(rng, n_tox=60, n_ben=80, lo=5, hi=20):
    """Linearly separable toxicity corpora: composition-biased alphabets."""

    def sample(alphabet, n):
        seqs = set()
        while len(seqs) < n:
            length = int(rng.integers(lo, hi + 1))
            seqs.add("".join(rng.choice(list(alphabet), size=length)))
        return sorted(seqs)

    return sample("KRCWHLFI", n_tox), sample("DESTGANQ", n_ben)


@pytest.fixture(scope="session")
def toy_corpus_path():
    from importlib import resources

    return str(resources.files("peptaste.data").joinpath("toy_taste_corpus.tsv"))


@pytest.fixture(scope="session")
def tox_corpus_files(tmp_path_factory):
    rng = np.random.default_rng(42)
    tox, ben = synthetic_tox_corpus(rng)
    base = tmp_path_factory.mktemp("toxdata")
    pos = base / "toxic.txt"
    neg = base / "benign.txt"
    pos.write_text("\n".join(tox) + "\n")
    neg.write_text("\n".join(ben) + "\n")
    return str(pos), str(neg)


@pytest.fixture(scope="session")
def small_tox_model(tmp_path_factory, tox_corpus_files):
    """A quick ensemble fitted on the synthetic corpus, reused across tests."""
    pos, neg = tox_corpus_files
    out = tmp_path_factory.mktemp("toxmodel") / "model.json"
    options = pipeline.ToxTrainOptions(
        seed=7,
        folds=5,
        selector="knn",
        universe=("AAC", "GAAC", "DPC", "CTDC"),
        member_trees=30,
    )
    result = pipeline.run_toxtrain(pos, neg, str(out), options)
    return str(out), result


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    n_checked: int

    def ok(self, tolerance: float) -> bool:
        return self.max_rel_error < tolerance


def grad_check(loss_fn, named_params, h: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn() must recompute the loss and return (loss, grads) where grads
    maps each name in named_params to the analytic gradient array.  The
    analytic gradients are copied before any parameter is perturbed, since
    loss_fn may return arrays it overwrites on its next call.  The relative
    error denominator is floored at 1e-3 so near-zero gradients are compared
    absolutely.
    """
    _, grads = loss_fn()
    analytic_grads = {name: np.array(grads[name], dtype=float) for name in named_params}
    worst = 0.0
    worst_name = ""
    n = 0
    for name, arr in named_params.items():
        analytic = analytic_grads[name]
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = loss_fn()
            flat[i] = orig - h
            down, _ = loss_fn()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            a = analytic.ravel()[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-3)
            n += 1
            if rel > worst:
                worst = rel
                worst_name = f"{name}[{i}]"
    return GradCheckReport(worst, worst_name, n)
