"""Golden screen outputs: sha256 digests of what the three screens emit.

The digests were recorded before the screens became batch computations
(the rank test, the similarity graph and toxicity scoring).  They pin, byte
for byte: the `toxpredict` TSV of the `small_tox_model` model on a library with
over-length, non-canonical and too-short rows; the probabilities of a
hand-weighted ensemble holding every learner; the `cluster` TSV at 0.70 on
point-mutant families plus random peptides; the dedup sweep's kept set at
0.90; and the latent screens' results on fixed clouds with tied distances.
"""

import hashlib

import numpy as np
import pytest

from peptaste import corpus as corpus_mod
from peptaste import descriptors, latent, textio
from peptaste.cli import main
from peptaste.sequences import AMINO_ACIDS, Peptide
from peptaste.toxicity import classifiers as clf
from peptaste.toxicity import ensemble as ens

GOLDEN = {
    "toxpredict_tsv": "546c76651eedf144d8b56919c6c73d613ad822976ad63a8898bbf86112856878",
    "all_learners_rows": "f0b76b06b698e7076b4112a88c8b1e1e9efa00111c44c6a60b5eec3260b64402",
    "cluster_tsv": "199cbe8e88b5deedcdb9cf6d517d6c5858b6a1fe1b51d442c72fecd37d3cdbb9",
    "dedup_kept": "462785cbdde0c43bda443078dcd46198488517f803d7a0588fdd1c8506f7e7a6",
    "latent_avoidance_plane": "3bb7d57e9e22866097f6345fd03e43bee0bb04e2cc62c085ec6036775b3622bf",
    "latent_avoidance_k3": "468659d72bd15a7ab799fa208e65c8d6679a10245c59ceca0bb0fa6753186750",
    "latent_avoidance_latent": "4f60548af5cadcb2aa07e001824fad7d83b95fb81859492e36a671049f17ea20",
    "latent_standard": "c3b6264b5c5dcbdaee0dd42b1fb3516f756ec2cae25db51ea783643d26d5b7b9",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _random_peptide(rng, lo, hi) -> str:
    return "".join(rng.choice(list(AMINO_ACIDS), size=int(rng.integers(lo, hi + 1))))


def screen_library() -> list[str]:
    """Valid peptides mixed with rows the model cannot score."""
    rng = np.random.default_rng(11)
    rows = [_random_peptide(rng, 2, 25) for _ in range(200)]
    rows += [_random_peptide(rng, 26, 32) for _ in range(10)]  # over pad_len
    for bad in "XBZU*a":  # non-canonical residues
        pep = _random_peptide(rng, 4, 30)
        pos = int(rng.integers(0, len(pep)))
        rows.append(pep[:pos] + bad + pep[pos:])
    rows += list("ACKW")  # shorter than any peptide
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def mutant_families(n_families=15, mutants=4, n_random=60, seed=3) -> list[str]:
    """Point-mutant families (one to three substitutions off a parent,
    sometimes a one-residue deletion) plus unrelated random peptides."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_families):
        parent = _random_peptide(rng, 8, 22)
        out.append(parent)
        for _ in range(mutants):
            seq = list(parent)
            for pos in rng.choice(len(seq), size=int(rng.integers(1, 4)), replace=False):
                seq[pos] = str(rng.choice(list(AMINO_ACIDS)))
            if rng.random() < 0.3:
                del seq[int(rng.integers(0, len(seq)))]
            out.append("".join(seq))
    out += [_random_peptide(rng, 4, 22) for _ in range(n_random)]
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def fixed_clouds(dim=2, seed=5):
    """Clouds on a coarse grid, so many candidate distances tie."""
    rng = np.random.default_rng(seed)
    pos = np.round(rng.normal(0.0, 1.0, size=(40, dim)) * 2) / 2
    neg = np.round(rng.normal(1.5, 1.0, size=(40, dim)) * 2) / 2
    cands = np.round(rng.normal(0.5, 1.2, size=(60, dim)) * 2) / 2
    return cands, pos, neg


def test_toxpredict_tsv(small_tox_model, tmp_path):
    src = tmp_path / "library.txt"
    src.write_text("\n".join(screen_library()) + "\n")
    out = tmp_path / "calls.tsv"
    code = main(["toxpredict", "--model", small_tox_model[0], "--input", str(src),
                 "--out", str(out)])
    assert code == 0
    assert _sha(out.read_text()) == GOLDEN["toxpredict_tsv"]


def all_learners_model():
    """One member of every algorithm, with fixed weights, on noisy labels."""
    rng = np.random.default_rng(21)
    train = [_random_peptide(rng, 5, 20) for _ in range(120)]
    y = np.array([int("K" in s or "W" in s) ^ int(rng.random() < 0.2) for s in train])
    ids = ("AAC", "CTDC")
    raw = descriptors.encode_matrix(ids, [Peptide(s) for s in train])
    scaler = descriptors.FeatureScaler.fit(raw)
    X = scaler.transform(raw)
    specs = {
        "rf": clf.ClassifierSpec("rf", trees=12, seed=1),
        "ert": clf.ClassifierSpec("ert", trees=9, seed=2),
        "gbt": clf.ClassifierSpec("gbt", trees=15, depth=3, learning_rate=0.1),
        "knn": clf.ClassifierSpec("knn", k=5),
        "lr": clf.ClassifierSpec("lr"),
        "adb": clf.ClassifierSpec("adb", trees=10),
        "dt": clf.ClassifierSpec("dt", depth=6),
    }
    return ens.EnsembleModel(
        member_specs=specs,
        members=ens.fit_members(specs, X, y),
        weights=(0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.1),
        descriptor_ids=ids,
        scaler=scaler,
        cv_mcc=0.0,
    )


def test_all_learners_rows(capsys):
    model = all_learners_model()
    rows = model.predict([Peptide(s) for s in screen_library() if _is_valid(s)])
    textio.write_table(
        None, ens.PREDICT_COLUMNS, [[r[c] for c in ens.PREDICT_COLUMNS] for r in rows]
    )
    assert _sha(capsys.readouterr().out) == GOLDEN["all_learners_rows"]


def _is_valid(seq: str) -> bool:
    try:
        Peptide(seq)
    except Exception:
        return False
    return True


def test_cluster_tsv(tmp_path):
    src = tmp_path / "library.txt"
    src.write_text("\n".join(mutant_families()) + "\n")
    out = tmp_path / "clusters.tsv"
    assert main(["cluster", "--input", str(src), "--out", str(out)]) == 0
    assert _sha(out.read_text()) == GOLDEN["cluster_tsv"]


def test_dedup_kept_set():
    peptides = [Peptide(s) for s in mutant_families(n_families=20, seed=8)]
    kept = corpus_mod.dedup_greedy(list(dict.fromkeys(peptides)), 0.90)
    seqs = [p.sequence for p in kept]
    assert _sha("\n".join(seqs)) == GOLDEN["dedup_kept"]


@pytest.mark.parametrize(
    "key, dim, k, alpha",
    [("latent_avoidance_plane", 2, 5, 0.05), ("latent_avoidance_k3", 2, 3, 0.1),
     ("latent_avoidance_latent", 6, 5, 0.05)],
)
def test_select_avoidance(key, dim, k, alpha):
    cands, pos, neg = fixed_clouds(dim)
    ranked, scores = latent.select_avoidance(cands, pos, neg, k=k, alpha=alpha)
    assert _sha(repr((ranked, scores))) == GOLDEN[key]


def test_select_standard():
    cands, pos, _ = fixed_clouds()
    kept, dists = latent.select_standard(cands, pos, keep_fraction=0.25, k=5)
    assert _sha(repr((kept, dists.tolist()))) == GOLDEN["latent_standard"]
