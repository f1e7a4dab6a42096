"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes the workload seed and writes plain input files, the
only thing the program receives.  Inputs are cached on disk by workload
and seed; generation is never timed.  Run as a script it builds one
workload's inputs and prints the path of their manifest:

    python3 perfbench/gen.py --root .perfbench/cache --workload screen --seed 3

The toxicity corpora are deliberately noisy: both classes draw residues
from overlapping composition profiles and a share of each class takes the
other class's profile, so trees grow deep instead of stopping at one
split (the linearly separable corpora of the unit tests make every tree a
stump).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import shutil
import sys

import numpy as np

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
BAD_RESIDUES = "BJOUXZ"

# Composition profiles: enriched residues get ENRICH times the base weight.
# Each class enriches one residue of every residue group, so the classes
# differ in residue composition (AAC) but not in group composition (GAAC).
# Forward selection then keeps AAC, alone or with GAAC, on every seed; a
# selectable wide block (DPC was tried) makes job time depend on the seed
# fourfold, through the width the weight search fits on.
TOXIC_ENRICHED = "KDLFS"
BENIGN_ENRICHED = "REIWT"
ENRICH = 4.0
# share of each class drawn from the other class's profile
CROSS_SHARE = 0.2

TOX_MAX_LEN = 25  # ToxTrainOptions.max_len and the model's pad_len

TOXTRAIN_DATASETS = 12  # jobs of one run cycle through these corpora
TOXTRAIN_PER_CLASS = 80
HELDOUT_PER_CLASS = 800

# The screen model is an input of the design and screen workloads.  It is
# trained once per checkout from a fixed seed, so toxpredict cost does not
# depend on which members a seed's weight search happens to keep.
MODEL_SEED = 0
MODEL_PER_CLASS = 150
MODEL_ARGS = (
    "--selector", "rf", "--selector-trees", "8", "--member-trees", "8",
    "--descriptors", "AAC,GAAC",
)

# screen library composition
LIBRARY_FAMILIES = 100
LIBRARY_FAMILY_SIZE = 6
LIBRARY_RANDOM = 400
LIBRARY_BAD = 60  # half over-length, half with a non-canonical residue
PHYSCHEM_PEPTIDES = 3000  # physchem is fast; a larger input steadies its time
CLUSTER_FAMILIES = 30
CLUSTER_RANDOM = 120
LATENT_CANDIDATES = 160
LATENT_REFERENCE = 120

# design corpora: sweet-only records are the positives of pattern x1xxx
DESIGN_DATASETS = 4
DESIGN_POSITIVES = 240
DESIGN_OTHERS = 160
DESIGN_MAX_LEN = 14

_WORKLOAD_KEYS = {"toxtrain": 1, "design": 2, "screen": 3, "model": 4}


def _profile(enriched: str) -> np.ndarray:
    w = np.array([ENRICH if aa in enriched else 1.0 for aa in AMINO_ACIDS])
    return w / w.sum()


TOXIC_PROFILE = _profile(TOXIC_ENRICHED)
BENIGN_PROFILE = _profile(BENIGN_ENRICHED)
NEUTRAL_PROFILE = np.full(len(AMINO_ACIDS), 1.0 / len(AMINO_ACIDS))


def _peptide(rng, profile, lo: int, hi: int) -> str:
    length = int(rng.integers(lo, hi + 1))
    return "".join(rng.choice(list(AMINO_ACIDS), size=length, p=profile))


def labelled_corpus(rng, toxic: bool, n: int, lo: int = 6, hi: int = 24) -> list[str]:
    """n distinct peptides of one class; exactly a CROSS_SHARE of them, at
    random positions, take the other class's composition, which bounds the
    achievable accuracy.  The share is fixed rather than drawn per peptide
    so that it does not vary between corpora."""
    cross = set(rng.choice(n, size=round(CROSS_SHARE * n), replace=False).tolist())
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        profile = TOXIC_PROFILE if toxic != (len(out) in cross) else BENIGN_PROFILE
        s = _peptide(rng, profile, lo, hi)
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def _mutant(rng, seq: str, substitutions: int) -> str:
    chars = list(seq)
    for pos in rng.choice(len(chars), size=substitutions, replace=False):
        chars[pos] = AMINO_ACIDS[int(rng.integers(len(AMINO_ACIDS)))]
    return "".join(chars)


def _families(rng, n_families: int, size: int) -> list[str]:
    """Families of point mutants: one parent and size-1 one- or
    two-substitution variants, so members align above 0.70."""
    out = []
    for _ in range(n_families):
        parent = _peptide(rng, NEUTRAL_PROFILE, 10, 22)
        out.append(parent)
        for _ in range(size - 1):
            out.append(_mutant(rng, parent, int(rng.integers(1, 3))))
    return out


def _random_peptides(rng, n: int) -> list[str]:
    return [_peptide(rng, NEUTRAL_PROFILE, 3, TOX_MAX_LEN) for _ in range(n)]


def screen_library(rng) -> tuple[list[str], list[int]]:
    """Library rows, and the sorted indices of the rows the model cannot
    score: over its maximum length, or holding a non-canonical residue."""
    good = _families(rng, LIBRARY_FAMILIES, LIBRARY_FAMILY_SIZE)
    good += _random_peptides(rng, LIBRARY_RANDOM)
    bad = []
    for i in range(LIBRARY_BAD):
        if i % 2:
            bad.append(_peptide(rng, NEUTRAL_PROFILE, TOX_MAX_LEN + 1, TOX_MAX_LEN + 8))
        else:
            s = list(_peptide(rng, NEUTRAL_PROFILE, 5, 20))
            s[int(rng.integers(len(s)))] = BAD_RESIDUES[int(rng.integers(len(BAD_RESIDUES)))]
            bad.append("".join(s))
    rows = good + bad
    order = rng.permutation(len(rows))
    return [rows[i] for i in order], sorted(
        int(pos) for pos, i in enumerate(order) if i >= len(good)
    )


def point_clouds(rng) -> dict[str, np.ndarray]:
    """Two overlapping 2-D reference clouds and candidates spread over both."""
    return {
        "positives": rng.normal([0.0, 0.0], 1.0, size=(LATENT_REFERENCE, 2)),
        "negatives": rng.normal([2.5, 0.5], 1.0, size=(LATENT_REFERENCE, 2)),
        "candidates": rng.normal([1.25, 0.25], 1.8, size=(LATENT_CANDIDATES, 2)),
    }


def _taste_code(rng, sweet_only: bool) -> str:
    """A five-slot taste code; sweet-only codes match pattern x1xxx in
    multiple mode, the others confirm some other taste."""
    slots = ["x"] * 5
    if sweet_only:
        slots[1] = "1"
        for i in (0, 2, 3, 4):
            if rng.random() < 0.3:
                slots[i] = "0"
        return "".join(slots)
    for i in range(5):
        if rng.random() < 0.7:
            slots[i] = str(int(rng.random() < 0.5))
    slots[int(rng.choice([0, 2, 3, 4]))] = "1"
    return "".join(slots)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _heldout(d: str, rng) -> dict:
    _write_lines(os.path.join(d, "heldout_pos.txt"), labelled_corpus(rng, True, HELDOUT_PER_CLASS))
    _write_lines(os.path.join(d, "heldout_neg.txt"), labelled_corpus(rng, False, HELDOUT_PER_CLASS))
    return {"heldout_pos": "heldout_pos.txt", "heldout_neg": "heldout_neg.txt"}


def _build_toxtrain(d: str, rng) -> tuple[dict, dict]:
    datasets = []
    for j in range(TOXTRAIN_DATASETS):
        pair = {"pos": f"toxic{j}.txt", "neg": f"benign{j}.txt"}
        _write_lines(os.path.join(d, pair["pos"]), labelled_corpus(rng, True, TOXTRAIN_PER_CLASS))
        _write_lines(os.path.join(d, pair["neg"]), labelled_corpus(rng, False, TOXTRAIN_PER_CLASS))
        datasets.append(pair)
    return {"datasets": datasets, **_heldout(d, rng)}, {}


def _build_design(d: str, rng) -> tuple[dict, dict]:
    sweet = _profile("AGSTVPKE")
    other = _profile("FWLIYHRD")
    corpora = []
    for j in range(DESIGN_DATASETS):
        records = []
        seen: set[str] = set()
        for n, is_pos in ((DESIGN_POSITIVES, True), (DESIGN_OTHERS, False)):
            made = 0
            while made < n:
                s = _peptide(rng, sweet if is_pos else other, 4, DESIGN_MAX_LEN)
                if s not in seen:
                    seen.add(s)
                    records.append(f"{s}\t{_taste_code(rng, is_pos)}")
                    made += 1
        name = f"corpus{j}.tsv"
        _write_lines(
            os.path.join(d, name),
            ["# sequence<TAB>sour,sweet,bitter,salty,umami"]
            + [records[i] for i in rng.permutation(len(records))],
        )
        corpora.append(name)
    return {"corpora": corpora, **_heldout(d, rng)}, {}


def _build_screen(d: str, rng) -> tuple[dict, dict]:
    rows, bad_rows = screen_library(rng)
    _write_lines(os.path.join(d, "library.txt"), rows)
    bad = set(bad_rows)
    _write_lines(
        os.path.join(d, "library_valid.txt"),
        [r for i, r in enumerate(rows) if i not in bad],
    )
    cluster = _families(rng, CLUSTER_FAMILIES, LIBRARY_FAMILY_SIZE)
    cluster += _random_peptides(rng, CLUSTER_RANDOM)
    _write_lines(
        os.path.join(d, "cluster_input.txt"),
        [cluster[i] for i in rng.permutation(len(cluster))],
    )
    np.savez(os.path.join(d, "points.npz"), **point_clouds(rng))
    _write_lines(os.path.join(d, "physchem_input.txt"), _random_peptides(rng, PHYSCHEM_PEPTIDES))
    files = {
        "library": "library.txt",
        "library_valid": "library_valid.txt",
        "cluster_input": "cluster_input.txt",
        "physchem_input": "physchem_input.txt",
        "points": "points.npz",
        **_heldout(d, rng),
    }
    return files, {"bad_rows": bad_rows}


def _build_model(d: str, rng) -> tuple[dict, dict]:
    """The screen model, trained by the program under test from corpora of
    a fixed seed; its members' weights are recorded with it."""
    from peptaste import cli

    files = {"pos": "toxic.txt", "neg": "benign.txt", "model": "model.json"}
    _write_lines(os.path.join(d, files["pos"]), labelled_corpus(rng, True, MODEL_PER_CLASS))
    _write_lines(os.path.join(d, files["neg"]), labelled_corpus(rng, False, MODEL_PER_CLASS))
    model = os.path.join(d, files["model"])
    argv = ["toxtrain", "--pos", os.path.join(d, files["pos"]),
            "--neg", os.path.join(d, files["neg"]), "--model-out", model,
            "--seed", str(MODEL_SEED), *MODEL_ARGS]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"training the screen model failed with exit code {code}")
    with open(model, encoding="utf-8") as fh:
        doc = json.load(fh)
    return files, {"weights": dict(zip(doc["member_names"], doc["weights"]))}


_BUILDERS = {
    "toxtrain": _build_toxtrain,
    "design": _build_design,
    "screen": _build_screen,
    "model": _build_model,
}


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


def _cache_key(workload: str, seed: int) -> str:
    """Entries are keyed by this generator's source as well, and the model
    by the program's source too, so an edit never reuses a stale entry."""
    sources = [os.path.abspath(__file__)]
    if workload == "model":
        sources += sorted(glob.glob(os.path.join("src", "**", "*.py"), recursive=True))
    return f"{workload}-{seed}-{_digest(sources)}"


def build(root: str, workload: str, seed: int) -> str:
    """Build (or reuse) one workload's inputs; return the manifest path.

    Inputs are built in a private directory and renamed into place, so an
    interrupted or concurrent build never leaves a half-written entry."""
    final = os.path.join(root, _cache_key(workload, seed))
    manifest = os.path.join(final, "inputs.json")
    if os.path.exists(manifest):
        return manifest
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    rng = np.random.default_rng([seed, _WORKLOAD_KEYS[workload]])
    files, data = _BUILDERS[workload](tmp, rng)
    with open(os.path.join(tmp, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump({"files": files, "data": data}, fh, sort_keys=True, indent=1)
    try:
        os.rename(tmp, final)
    except OSError:  # built concurrently by another run: keep that one
        shutil.rmtree(tmp, ignore_errors=True)
    return manifest


def load(manifest: str) -> dict:
    """The manifest's data plus its file names resolved to paths."""
    base = os.path.dirname(manifest)
    with open(manifest, encoding="utf-8") as fh:
        doc = json.load(fh)

    def resolve(v):
        if isinstance(v, str):
            return os.path.join(base, v)
        if isinstance(v, list):
            return [resolve(x) for x in v]
        return {k: resolve(x) for k, x in v.items()}

    return {**doc["data"], **resolve(doc["files"])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Build one workload's seeded inputs.")
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=sorted(_BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    os.makedirs(args.root, exist_ok=True)
    print(build(args.root, args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.abspath("src"))
    sys.exit(main())
