"""The packed alignment pass against the per-query DP it replaced.

ref_score_block below is nw_score_block's old one-query loop,
ref_build_components the old graph pass that bounded and aligned one query
row at a time, and ref_dedup_greedy the old redundancy sweep that bounded
and aligned each peptide against the kept set; all three are kept as the
reference, with a bound of their own.  nw_score_pairs must equal the
one-query DP byte for byte, whatever the lengths, the parameters and the
chunk boundaries; build_components must return the old scores (same keys,
same order, same bits), and dedup_greedy the old kept list.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peptaste.similarity as sim_mod
from peptaste.corpus import dedup_greedy
from peptaste.errors import ValidationError
from peptaste.sequences import AMINO_ACIDS, Peptide, residue_codes
from peptaste.similarity import (
    BOUND_SLACK,
    DEFAULT_PARAMS,
    NEG_INF,
    Scorer,
    build_components,
    nw_score_block,
    nw_score_pairs,
    pick_representatives,
    self_score,
    similarity_matrix,
)
from conftest import align_params


def ref_score_block(query, refs, params=DEFAULT_PARAMS):
    """One query against many references, one DP row per query residue."""
    query_codes = residue_codes([query])[0].tolist()
    codes = residue_codes(refs)
    n, kmax = codes.shape
    lens = np.array([len(s) for s in refs])
    op, ext = params.gap_open, params.gap_extend

    m_prev = np.full((n, kmax + 1), NEG_INF)
    x_prev = np.full((n, kmax + 1), NEG_INF)
    y_prev = np.full((n, kmax + 1), NEG_INF)
    m_prev[:, 0] = 0.0
    js = np.arange(1, kmax + 1)
    y_prev[:, 1:] = op + (js - 1) * ext

    for i, qc in enumerate(query_codes, start=1):
        sub = np.where(codes == qc, params.match, params.mismatch)
        m_row = np.full((n, kmax + 1), NEG_INF)
        x_row = np.full((n, kmax + 1), NEG_INF)
        diag = np.maximum(np.maximum(m_prev, x_prev), y_prev)
        m_row[:, 1:] = diag[:, :-1] + sub
        x_row[:, 0] = op + (i - 1) * ext
        x_row[:, 1:] = np.maximum(
            np.maximum(m_prev[:, 1:] + op, y_prev[:, 1:] + op),
            x_prev[:, 1:] + ext,
        )
        base = np.maximum(m_row, x_row) + op - ext * np.arange(kmax + 1)
        run = np.maximum.accumulate(base, axis=1)
        y_row = np.full((n, kmax + 1), NEG_INF)
        y_row[:, 1:] = run[:, :-1] + ext * (js - 1)
        m_prev, x_prev, y_prev = m_row, x_row, y_row

    final = np.maximum(np.maximum(m_prev, x_prev), y_prev)
    return final[np.arange(n), lens]


def ref_may_reach(a, b, threshold, params=DEFAULT_PARAMS):
    """The score bound of one pair, from its residue counts: one match per
    shared residue, and one gap as long as the length difference."""
    ca, cb = collections.Counter(a), collections.Counter(b)
    shared = sum(min(n, cb[r]) for r, n in ca.items())
    gap = abs(len(a) - len(b))
    bound = params.match * shared + (
        params.gap_open + (gap - 1) * params.gap_extend if gap > 0 else 0.0
    )
    return bound >= (threshold - BOUND_SLACK) * (params.match * max(len(a), len(b)))


def ref_build_components(seqs, params=DEFAULT_PARAMS, threshold=0.70):
    """The graph pass one query row at a time: bound row i's later refs,
    align the survivors against seqs[i], union in (i, j) order."""
    scorer = Scorer(seqs, params)
    n = len(seqs)
    root = list(range(n))

    def find(u):
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    scores = {}
    for i in range(n):
        near = np.array(
            [j for j in range(i + 1, n) if ref_may_reach(seqs[i], seqs[j], threshold, params)],
            dtype=np.intp,
        )
        raw = ref_score_block(seqs[i], [seqs[j] for j in near], params) if len(near) else []
        sims = np.maximum(raw / np.maximum(scorer.selfs[i], scorer.selfs[near]), 0.0)
        for j, s in zip(near.tolist(), sims.tolist()):
            scores[i, j] = s
            if s >= threshold:
                ri, rj = find(i), find(j)
                root[max(ri, rj)] = min(ri, rj)
    clusters = {}
    for u in range(n):
        clusters.setdefault(find(u), []).append(u)
    return list(clusters.values()), scores


def ref_dedup_greedy(corpus, threshold, params=DEFAULT_PARAMS):
    """The sweep one peptide at a time: bound it against the kept set, align
    the survivors with it as the query, keep it if none reaches the
    threshold."""
    seqs = [p.sequence for p in corpus]
    order = sorted(range(len(seqs)), key=lambda i: (-len(seqs[i]), seqs[i], i))
    kept = []
    for i in order:
        near = [j for j in kept if ref_may_reach(seqs[i], seqs[j], threshold, params)]
        if near:
            raw = nw_score_block(seqs[i], [seqs[j] for j in near], params)
            denom = np.maximum(self_score(seqs[i], params),
                               np.array([self_score(seqs[j], params) for j in near]))
            if np.any(np.maximum(raw / denom, 0.0) >= threshold):
                continue
        kept.append(i)
    return [corpus[i] for i in sorted(kept)]


def one_query_calls(queries, refs, params):
    return np.concatenate([ref_score_block(q, [r], params) for q, r in zip(queries, refs)])


peptides = st.text(AMINO_ACIDS, min_size=1, max_size=25)
pair_lists = st.lists(st.tuples(peptides, peptides), min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(pair_lists, align_params())
def test_pairs_equal_one_query_dp(pairs, params):
    queries, refs = zip(*pairs)
    got = nw_score_pairs(queries, refs, params)
    assert got.tobytes() == one_query_calls(queries, refs, params).tobytes()


@settings(max_examples=100, deadline=None)
@given(pair_lists, align_params(), st.integers(1, 80))
def test_chunk_boundaries_do_not_move_a_bit(pairs, params, budget):
    # a budget below one pair's row still runs one pair per chunk
    queries, refs = zip(*pairs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_mod, "_PAIR_CELLS", budget)
        got = nw_score_pairs(queries, refs, params)
    assert got.tobytes() == one_query_calls(queries, refs, params).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(AMINO_ACIDS), peptides), min_size=1, max_size=20),
       align_params())
def test_single_residues_on_either_side(pairs, params):
    queries, refs = zip(*pairs)
    assert nw_score_pairs(queries, refs, params).tobytes() == one_query_calls(
        queries, refs, params).tobytes()
    assert nw_score_pairs(refs, queries, params).tobytes() == one_query_calls(
        refs, queries, params).tobytes()


@settings(max_examples=60, deadline=None)
@given(peptides, st.lists(peptides, min_size=1, max_size=30), align_params())
def test_one_query_block_equals_its_old_loop(query, refs, params):
    assert nw_score_block(query, refs, params).tobytes() == ref_score_block(
        query, refs, params).tobytes()


def test_pairs_reject_unequal_lists_and_empty_sequences():
    assert nw_score_pairs([], []).shape == (0,)
    with pytest.raises(ValueError, match="2 queries for 1 references"):
        nw_score_pairs(["AC", "D"], ["K"])
    with pytest.raises(ValidationError, match="empty sequence"):
        nw_score_pairs(["AC"], [""])


small_seqs = st.lists(st.text("ACDK", min_size=2, max_size=10), min_size=0, max_size=24)


@settings(max_examples=150, deadline=None)
@given(small_seqs, st.floats(0.3, 1.0), align_params(), st.integers(1, 64), st.integers(1, 64))
def test_graph_scores_equal_the_per_row_pass(seqs, threshold, params, bound_pairs, cells):
    # small budgets split both the bound's row blocks and the DP's chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_mod, "_BOUND_PAIRS", bound_pairs)
        mp.setattr(sim_mod, "_PAIR_CELLS", cells)
        clusters, scores = build_components(seqs, params, threshold)
    ref_clusters, ref_scores = ref_build_components(seqs, params, threshold)
    assert clusters == ref_clusters
    assert list(scores) == list(ref_scores)
    assert np.array(list(scores.values())).tobytes() == np.array(
        list(ref_scores.values())).tobytes()


def test_graph_scores_equal_the_per_row_pass_on_mutant_families():
    # families of point mutants, as the clustering screen sees them
    rng = np.random.default_rng(11)
    seqs = []
    for _ in range(12):
        parent = rng.choice(list(AMINO_ACIDS), size=int(rng.integers(8, 26)))
        for _ in range(6):
            child = parent.copy()
            child[rng.integers(0, len(child), size=2)] = rng.choice(list(AMINO_ACIDS), size=2)
            seqs.append("".join(child))
    seqs = [seqs[i] for i in rng.permutation(len(seqs))]
    clusters, scores = build_components(seqs, threshold=0.7)
    ref_clusters, ref_scores = ref_build_components(seqs, threshold=0.7)
    assert clusters == ref_clusters and len(clusters) < len(seqs)
    assert list(scores) == list(ref_scores)
    assert np.array(list(scores.values())).tobytes() == np.array(
        list(ref_scores.values())).tobytes()


@st.composite
def mutant_families(draw):
    """Parents over a small alphabet, each with a few mutants of up to two
    substitutions, in drawn order."""
    seqs = []
    for parent in draw(st.lists(st.text("ACDKW", min_size=3, max_size=14), min_size=1, max_size=4)):
        for _ in range(draw(st.integers(1, 6))):
            child = list(parent)
            for _ in range(draw(st.integers(0, 2))):
                child[draw(st.integers(0, len(child) - 1))] = draw(st.sampled_from("ACDKW"))
            seqs.append("".join(child))
    return seqs


@st.composite
def substitution_walks(draw):
    """Equal-length peptides, each one substitution from the one before: at
    the walk's threshold, neighbours in the walk reach each other and
    peptides two substitutions apart do not."""
    seq = list(draw(st.text("ACDK", min_size=6, max_size=14)))
    walk = ["".join(seq)]
    for _ in range(draw(st.integers(1, 12))):
        seq[draw(st.integers(0, len(seq) - 1))] = draw(st.sampled_from("ACDK"))
        walk.append("".join(seq))
    return walk


def walk_threshold(walk):
    # one mismatch in n residues scores 1 - 3/(2n), two score 1 - 3/n
    return 1 - 2 / len(walk[0])


def dedup_with_small_blocks(seqs, threshold, bound_pairs, cells):
    corpus = [Peptide(s) for s in seqs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_mod, "_BOUND_PAIRS", bound_pairs)
        mp.setattr(sim_mod, "_PAIR_CELLS", cells)
        kept = dedup_greedy(corpus, threshold)
    return kept, ref_dedup_greedy(corpus, threshold)


blocks = st.integers(1, 7)


@settings(max_examples=150, deadline=None)
@given(small_seqs, st.floats(0.3, 1.0), blocks, blocks)
def test_dedup_keeps_what_the_per_peptide_sweep_keeps(seqs, threshold, bound_pairs, cells):
    # small budgets split the bound's row blocks, the sweep's chunks and
    # the DP's chunks
    kept, ref = dedup_with_small_blocks(seqs, threshold, bound_pairs, cells)
    assert kept == ref


@settings(max_examples=100, deadline=None)
@given(mutant_families(), st.floats(0.5, 1.0), blocks, blocks)
def test_dedup_keeps_what_the_per_peptide_sweep_keeps_on_mutant_families(
    seqs, threshold, bound_pairs, cells
):
    kept, ref = dedup_with_small_blocks(seqs, threshold, bound_pairs, cells)
    assert kept == ref


@settings(max_examples=100, deadline=None)
@given(substitution_walks(), blocks, blocks)
def test_a_dropped_peptide_drops_no_later_one(walk, bound_pairs, cells):
    kept, ref = dedup_with_small_blocks(walk, walk_threshold(walk), bound_pairs, cells)
    assert kept == ref


def test_a_dropped_peptide_drops_no_later_one_on_a_chain():
    # sweep order is a, b, c: b is one substitution from both a and c, so
    # it is dropped for a and cannot drop c, two substitutions from a
    a, b, c = "A" * 20, "A" * 19 + "C", "A" * 18 + "CC"
    for bound_pairs in (1, 2, 3, 4096):
        kept, ref = dedup_with_small_blocks([c, b, a], walk_threshold([a]), bound_pairs, 64)
        assert [p.sequence for p in kept] == [p.sequence for p in ref] == [c, a]


def test_no_library_pass_aligns_one_query_at_a_time(monkeypatch):
    def one_query(*args, **kwargs):
        raise AssertionError("a library pass aligned one query at a time")

    monkeypatch.setattr(sim_mod, "nw_score_block", one_query)
    seqs = ["ACDEFGHIK", "ACDEFGHIR", "ACDEFGHKK", "WWWWWWW", "WWWWWWY", "PPPP"]
    kept = dedup_greedy([Peptide(s) for s in seqs], 0.75)
    assert [p.sequence for p in kept] == ["ACDEFGHIK", "WWWWWWW", "PPPP"]
    clusters, scores = build_components(seqs, threshold=0.7)
    assert clusters == [[0, 1, 2], [3, 4], [5]]
    assert pick_representatives(clusters, seqs, scores) == pick_representatives(
        clusters, seqs, {})
    assert similarity_matrix(seqs).shape == (6, 6)
