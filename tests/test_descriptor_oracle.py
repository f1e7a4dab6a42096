"""The batch encoders against the per-peptide encoders they replaced.

ref_encode below is the registry's old one-peptide-at-a-time code, kept as
the reference: encode_matrix must equal it byte for byte on batches that
mix lengths, and must raise for the same peptide and descriptor.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peptaste import descriptors as d
from peptaste.descriptors import DESCRIPTOR_IDS, encode_matrix
from peptaste.errors import ValidationError
from peptaste.sequences import AMINO_ACIDS, Peptide, residue_codes
from conftest import DEFAULT_SETTINGS, SMALL_SETTINGS, descriptor_settings

CONFIGS = (DEFAULT_SETTINGS, SMALL_SETTINGS)


def ref_kmer_counts(classes, k, base):
    m = len(classes) - k + 1
    idx = classes[:m]
    for j in range(1, k):
        idx = idx * base + classes[j : j + m]
    return np.bincount(idx, minlength=base**k)


def ref_composition(alphabet, k):
    def encode(codes, cfg):
        a = alphabet()
        return ref_kmer_counts(a.classes[codes], k, len(a.labels)) / (len(codes) - k + 1)

    return encode


def ref_gapped(alphabet):
    def encode(codes, cfg):
        a = alphabet()
        classes, base = a.classes[codes], len(a.labels)
        blocks = []
        for g in range(cfg.k_max + 1):
            m = max(len(codes) - g - 1, 0)
            pairs = classes[:m] * base + classes[g + 1 : g + 1 + m]
            blocks.append(np.bincount(pairs, minlength=base * base) / max(m, 1))
        return np.concatenate(blocks)

    return encode


def ref_windowed(alphabet):
    def encode(codes, cfg):
        a = alphabet()
        classes, base = a.classes[codes], len(a.labels)
        counts = [
            np.bincount(classes[w : w + cfg.window], minlength=base)
            for w in range(cfg.pad_len - cfg.window + 1)
        ]
        return np.concatenate(counts) / cfg.window

    return encode


def ref_positional(table):
    def encode(codes, cfg):
        values = table()[0]
        out = np.zeros((cfg.pad_len, values.shape[1]))
        out[: len(codes)] = values[codes]
        return out.ravel()

    return encode


def ref_ctd_members(codes):
    classes = d._ctd()[0][:, codes]
    return classes[:, None, :] == np.arange(3)[:, None]


def ref_ctdc(codes, cfg):
    return (ref_ctd_members(codes).sum(axis=2) / len(codes)).ravel()


def ref_ctdt(codes, cfg):
    classes = d._ctd()[0][:, codes]
    x, y = classes[:, :-1], classes[:, 1:]
    trans = [
        ((x == a) & (y == b) | (x == b) & (y == a)).sum(axis=1)
        for a, b in ((0, 1), (0, 2), (1, 2))
    ]
    return (np.stack(trans, axis=1) / (len(codes) - 1)).ravel()


def ref_ctdd(codes, cfg):
    members = ref_ctd_members(codes)
    total = members.sum(axis=2)[..., None]
    rank = np.maximum(1, np.floor(np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * total))
    seen = members.cumsum(axis=2)[..., None, :]
    position = (seen < rank[..., None]).sum(axis=3) + 1
    return np.where(total > 0, position / len(codes) * 100.0, 0.0).ravel()


def ref_ctriad(codes, cfg):
    a = d._triad_groups()
    counts = ref_kmer_counts(a.classes[codes], 3, len(a.labels))
    return (counts - counts.min()) / counts.max()


def ref_dde(codes, cfg):
    dc = ref_kmer_counts(codes, 2, len(AMINO_ACIDS)) / (len(codes) - 1)
    tm = d._dde_expected()
    tv = tm * (1 - tm) / (len(codes) - 1)
    return (dc - tm) / np.sqrt(tv)


def ref_pseudo(codes, factors, cfg):
    denom = 1.0 + cfg.weight * sum(factors)
    counts = np.bincount(codes, minlength=len(AMINO_ACIDS))
    return np.concatenate([counts / denom, cfg.weight * np.array(factors) / denom])


def ref_paac(codes, cfg):
    props = d._paac_properties()
    thetas = []
    for n in range(1, cfg.lam + 1):
        diffs = props[:, codes[:-n]] - props[:, codes[n:]]
        thetas.append(float((diffs ** 2).mean(axis=0).mean()))
    return ref_pseudo(codes, thetas, cfg)


def ref_apaac(codes, cfg):
    props = d._paac_properties()[:2]
    taus = []
    for n in range(1, cfg.lam + 1):
        for p in range(props.shape[0]):
            taus.append(float((props[p, codes[:-n]] * props[p, codes[n:]]).mean()))
    return ref_pseudo(codes, taus, cfg)


REF_ENCODERS = {
    "AAC": ref_composition(d._residues, 1),
    "DPC": ref_composition(d._residues, 2),
    "TPC": ref_composition(d._residues, 3),
    "GAAC": ref_composition(d._groups, 1),
    "GDPC": ref_composition(d._groups, 2),
    "GTPC": ref_composition(d._groups, 3),
    "CTDC": ref_ctdc,
    "CTDT": ref_ctdt,
    "CTDD": ref_ctdd,
    "CTriad": ref_ctriad,
    "EAAC": ref_windowed(d._residues),
    "EGAAC": ref_windowed(d._groups),
    "CKSAAP": ref_gapped(d._residues),
    "CKSAAGP": ref_gapped(d._groups),
    "Binary": ref_positional(d._one_hot),
    "BLOSUM62": ref_positional(d._blosum62),
    "DDE": ref_dde,
    "PAAC": ref_paac,
    "APAAC": ref_apaac,
    "Zscale": ref_positional(d._zscale),
}


def ref_bounds(did, cfg):
    lo = {"TPC": 3, "GTPC": 3, "CTriad": 3, "PAAC": cfg.lam + 1,
          "APAAC": cfg.lam + 1}.get(did, 2)
    positional = ("EAAC", "EGAAC", "Binary", "BLOSUM62", "Zscale")
    return lo, cfg.pad_len if did in positional else np.inf


def ref_encode(did, seq, cfg):
    codes = residue_codes([seq])[0].astype(np.intp)
    return REF_ENCODERS[did](codes, cfg)


def test_oracle_covers_the_registry():
    assert tuple(REF_ENCODERS) == DESCRIPTOR_IDS


def batches(lo=2, hi=30):
    seq = st.text(alphabet=AMINO_ACIDS, min_size=lo, max_size=hi)
    return st.lists(seq, min_size=1, max_size=25)


@pytest.mark.parametrize("cfg", CONFIGS, ids=("default", "small"))
@pytest.mark.parametrize("did", DESCRIPTOR_IDS)
@settings(max_examples=25, deadline=None)
@given(seqs=batches())
def test_batch_equals_per_peptide_oracle(did, cfg, seqs):
    lo, hi = ref_bounds(did, cfg)
    seqs = [s for s in seqs if lo <= len(s) <= hi] or ["A" * lo]
    with descriptor_settings(cfg):
        got = encode_matrix([did], [Peptide(s) for s in seqs])
    want = np.stack([ref_encode(did, s, cfg) for s in seqs])
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg", CONFIGS, ids=("default", "small"))
@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.sampled_from(DESCRIPTOR_IDS), min_size=1, max_size=4, unique=True),
    seqs=batches(),
)
def test_concatenation_and_first_out_of_bounds_peptide(cfg, ids, seqs):
    bad = [
        (s, did)
        for s in seqs
        for did in ids
        if not ref_bounds(did, cfg)[0] <= len(s) <= ref_bounds(did, cfg)[1]
    ]
    if bad:
        # the first peptide in input order, and the first descriptor in ids
        # that excludes it
        seq, did = bad[0]
        with descriptor_settings(cfg), pytest.raises(ValidationError) as exc:
            encode_matrix(ids, seqs)
        assert re.match(f"sequence '{seq}': {did} requires length ", str(exc.value))
        return
    with descriptor_settings(cfg):
        got = encode_matrix(ids, seqs)
    want = np.stack(
        [np.concatenate([ref_encode(did, s, cfg) for did in ids]) for s in seqs]
    )
    assert got.tobytes() == want.tobytes()


def test_each_encoder_runs_once_per_distinct_length(monkeypatch):
    calls = []
    for did, entry in d._REGISTRY.items():

        def counted(codes, did=did, encode=entry.encode):
            calls.append((did, codes.shape))
            return encode(codes)

        monkeypatch.setitem(d._REGISTRY, did, entry._replace(encode=counted))
    seqs = ["ACDE", "KRHKR", "WWWW", "ACD", "GGGGG", "ACDE", "KLM"]
    encode_matrix(DESCRIPTOR_IDS, seqs)
    # lengths 4, 5, 3 in order of first appearance; one block each
    assert calls == [
        (did, shape)
        for shape in ((3, 4), (2, 5), (2, 3))
        for did in DESCRIPTOR_IDS
    ]
