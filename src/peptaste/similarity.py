"""Global sequence alignment with affine gaps, and similarity-graph clustering.

Alignment uses the three-state (match / delete / insert) dynamic program
where a gap of length g costs gap_open + (g-1) * gap_extend; switching
directly between gap states opens a new gap.  End gaps are penalized like
internal ones.  Normalized similarity divides the pair score by the larger
self-alignment score, so identical sequences score exactly 1 and values
are clamped into [0, 1].  Scores compare residue codes, so every scorer
takes the 20 canonical residues only; nw_align, the traceback reference,
compares any characters.  The redundancy sweep and the similarity graph
align only the pairs whose exact score bound can reach their threshold, and
representatives reuse the graph's similarities; all three ask one Scorer.
The graph and the sweep bound every pair in one pass (Scorer.near_pairs)
and align the survivors in packed chunks of one DP (Scorer._scores, on the
residue codes the Scorer made once), as do the representatives' missing
pairs, similarity_matrix and nw_score_pairs; the sweep skips the pairs of
the peptides it has dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .latent import check_fraction
from .sequences import residue_codes, residue_counts

NEG_INF = -1e30


@dataclass(frozen=True)
class AlignParams:
    match: float = 2.0
    mismatch: float = -1.0
    gap_open: float = -0.5
    gap_extend: float = -0.1

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ConfigError(f"alignment parameter {name} must be finite, got {value}")
        if not (self.match > 0 > self.mismatch):
            raise ConfigError("alignment requires match > 0 > mismatch")
        if self.gap_open > 0 or self.gap_extend > 0:
            raise ConfigError("gap penalties must be <= 0")
        if abs(self.gap_extend) > abs(self.gap_open):
            raise ConfigError("|gap_extend| must not exceed |gap_open|")


DEFAULT_PARAMS = AlignParams()

# DP states
_M, _X, _Y = 0, 1, 2  # match/mismatch, gap in b (consume a), gap in a (consume b)


@dataclass(frozen=True)
class Alignment:
    score: float
    aligned_a: str
    aligned_b: str


def _as_seq(s) -> str:
    seq = str(s)
    if not seq:
        raise ValidationError("cannot align an empty sequence")
    return seq


def nw_align(a, b, params: AlignParams = DEFAULT_PARAMS) -> Alignment:
    """Optimal global alignment with affine gaps, with traceback.

    Tie-breaking is deterministic: match is preferred over a gap in b
    ("delete"), which is preferred over a gap in a ("insert").
    """
    sa, sb = _as_seq(a), _as_seq(b)
    la, lb = len(sa), len(sb)
    op, ext = params.gap_open, params.gap_extend

    score = np.full((3, la + 1, lb + 1), NEG_INF)
    # back[state, i, j] = predecessor state
    back = np.zeros((3, la + 1, lb + 1), dtype=np.int8)
    score[_M, 0, 0] = 0.0
    score[_X, 1:, 0] = op + np.arange(la) * ext
    score[_Y, 0, 1:] = op + np.arange(lb) * ext
    back[_X, 2:, 0], back[_Y, 0, 2:] = _X, _Y

    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            sub = params.match if sa[i - 1] == sb[j - 1] else params.mismatch
            # order encodes the tie preference M > X > Y
            cand = (
                score[_M, i - 1, j - 1],
                score[_X, i - 1, j - 1],
                score[_Y, i - 1, j - 1],
            )
            st = int(np.argmax(cand))
            score[_M, i, j] = cand[st] + sub
            back[_M, i, j] = st

            cand = (
                score[_M, i - 1, j] + op,
                score[_X, i - 1, j] + ext,
                score[_Y, i - 1, j] + op,
            )
            st = int(np.argmax(cand))
            score[_X, i, j] = cand[st]
            back[_X, i, j] = st

            cand = (
                score[_M, i, j - 1] + op,
                score[_X, i, j - 1] + op,
                score[_Y, i, j - 1] + ext,
            )
            st = int(np.argmax(cand))
            score[_Y, i, j] = cand[st]
            back[_Y, i, j] = st

    finals = (score[_M, la, lb], score[_X, la, lb], score[_Y, la, lb])
    state = int(np.argmax(finals))
    best = finals[state]

    out_a, out_b = [], []
    i, j = la, lb
    while i > 0 or j > 0:
        # M consumes both, X (gap in b) only a, Y (gap in a) only b
        di, dj = int(state != _Y), int(state != _X)
        out_a.append(sa[i - 1] if di else "-")
        out_b.append(sb[j - 1] if dj else "-")
        state, i, j = int(back[state, i, j]), i - di, j - dj
    return Alignment(float(best), "".join(reversed(out_a)), "".join(reversed(out_b)))


# Pairs per DP chunk times the widest reference plus one: about 128 KB per
# DP row array, so a chunk's temporaries stay near 1 MB.
_PAIR_CELLS = 1 << 14


def nw_score_pairs(queries, refs, params: AlignParams = DEFAULT_PARAMS) -> np.ndarray:
    """Alignment scores of the pairs (queries[k], refs[k]), vectorized over
    pairs by _score_chunk.  The two lists are coded once, as one Scorer, and
    go through its chunks.  Produces identical scores to nw_align."""
    qs, rs = list(queries), list(refs)
    if len(qs) != len(rs):
        raise ValueError(f"{len(qs)} queries for {len(rs)} references")
    k = np.arange(len(qs))
    return Scorer(qs + rs, params)._scores(k, k + len(qs))


def _score_chunk(qcodes, qlens, rcodes, rlens, params):
    """Alignment scores of pairs of residue-code rows with their lengths.

    Row i of the DP compares each pair's i-th query residue with its
    reference; it depends only on row i-1 for the M and X states, and the Y
    state is a running max along the row, folded with maximum.accumulate.
    A pair's score is read at row len(query) and column len(ref), so the
    pad rows and columns of shorter pairs never reach it.
    """
    n = len(qlens)
    rows, kmax = int(qlens.max()), int(rlens.max())
    codes = rcodes[:, :kmax]
    op, ext = params.gap_open, params.gap_extend

    m_prev = np.full((n, kmax + 1), NEG_INF)
    x_prev = np.full((n, kmax + 1), NEG_INF)
    y_prev = np.full((n, kmax + 1), NEG_INF)
    m_prev[:, 0] = 0.0
    js = np.arange(1, kmax + 1)
    y_prev[:, 1:] = op + (js - 1) * ext

    out = np.zeros(n)
    for i in range(1, rows + 1):
        sub = np.where(codes == qcodes[:, i - 1 : i], params.match, params.mismatch)
        m_row = np.full((n, kmax + 1), NEG_INF)
        x_row = np.full((n, kmax + 1), NEG_INF)
        diag = np.maximum(np.maximum(m_prev, x_prev), y_prev)
        m_row[:, 1:] = diag[:, :-1] + sub
        x_row[:, 0] = op + (i - 1) * ext
        x_row[:, 1:] = np.maximum(
            np.maximum(m_prev[:, 1:] + op, y_prev[:, 1:] + op),
            x_prev[:, 1:] + ext,
        )
        # y_row[j] = max over j' < j of (max(m_row, x_row)[j'] + op + (j-1-j')*ext)
        base = np.maximum(m_row, x_row) + op - ext * np.arange(kmax + 1)
        run = np.maximum.accumulate(base, axis=1)
        y_row = np.full((n, kmax + 1), NEG_INF)
        y_row[:, 1:] = run[:, :-1] + ext * (js - 1)
        m_prev, x_prev, y_prev = m_row, x_row, y_row
        done = np.flatnonzero(qlens == i)
        if done.size:
            at = (done, rlens[done])
            out[done] = np.maximum(np.maximum(m_row[at], x_row[at]), y_row[at])
    return out


def nw_score_block(query, refs, params: AlignParams = DEFAULT_PARAMS) -> np.ndarray:
    """Scores of one query against many references, through nw_score_pairs."""
    refs = list(refs)
    return nw_score_pairs([_as_seq(query)] * len(refs), refs, params)


def nw_score(a, b, params: AlignParams = DEFAULT_PARAMS) -> float:
    return float(nw_score_block(a, [b], params)[0])


def self_score(a, params: AlignParams = DEFAULT_PARAMS) -> float:
    return params.match * len(_as_seq(a))


def normalized_similarity(a, b, params: AlignParams = DEFAULT_PARAMS) -> float:
    """score(a, b) / max(self scores), clamped below at 0."""
    denom = max(self_score(a, params), self_score(b, params))
    return max(nw_score(a, b, params) / denom, 0.0)


# Slack on the bound test: a pair is aligned unless its bound misses the
# threshold by more than this, far above any rounding in the DP or the bound.
BOUND_SLACK = 1e-9


def _may_reach(own, other, threshold, params):
    """Whether the score bound of each pair of residue-count rows (own[...],
    other[...], broadcast) lets its similarity reach the threshold.

    The bound is exact and symmetric: an alignment scores at most one match
    per residue both sequences share, mismatches and gaps only subtract, and
    sequences whose lengths differ by D > 0 need gaps costing at least one
    gap of length D (a split gap opens twice and |gap_extend| <= |gap_open|).
    It is CD-HIT's short-word filter (Li & Godzik 2006) with one-residue words.
    """
    shared = np.minimum(own, other).sum(axis=-1)
    own_len, lens = own.sum(axis=-1), other.sum(axis=-1)
    gap = np.abs(lens - own_len)
    bound = params.match * shared + np.where(
        gap > 0, params.gap_open + (gap - 1) * params.gap_extend, 0.0
    )
    denom = params.match * np.maximum(own_len, lens)
    return bound >= (threshold - BOUND_SLACK) * denom


# Query rows times reference columns per block of the all-pairs bound: its
# (rows, columns, 20) residue-count temporaries stay under 1 MB.
_BOUND_PAIRS = 1 << 12


class Scorer:
    """Normalized similarities among fixed sequences, each coded and checked once.

    Every pair is aligned with its first index's sequence as the query, so a
    pair scores the same bits whichever caller asks for it, and in whatever
    pass.
    """

    def __init__(self, seqs, params: AlignParams = DEFAULT_PARAMS):
        seqs = [_as_seq(s) for s in seqs]
        self.params = params
        self.codes = residue_codes(seqs)
        self.lens = np.array([len(s) for s in seqs], dtype=np.intp)
        self.selfs = params.match * self.lens

    def _scores(self, queries, refs) -> np.ndarray:
        """Alignment scores of the pairs of rows (queries[k], refs[k]), in
        chunks of at most _PAIR_CELLS cells per DP row; a chunk cut never
        moves a bit."""
        codes, lens, out = self.codes, self.lens, np.zeros(len(queries))
        step = max(1, _PAIR_CELLS // (int(lens[refs].max(initial=0)) + 1))
        for lo in range(0, len(queries), step):
            q, r = queries[lo : lo + step], refs[lo : lo + step]
            out[lo : lo + step] = _score_chunk(codes[q], lens[q], codes[r], lens[r], self.params)
        return out

    def similarities(self, queries, refs) -> np.ndarray:
        """Normalized similarity of each pair of sequences (queries[k],
        refs[k]), aligned in one _scores pass."""
        queries = np.asarray(queries, dtype=np.intp)
        refs = np.asarray(refs, dtype=np.intp)
        raw = self._scores(queries, refs)
        return np.maximum(raw / np.maximum(self.selfs[queries], self.selfs[refs]), 0.0)

    def near_pairs(self, threshold) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (i, j), i < j, whose score bound (_may_reach, computed in
        blocks of rows i) lets them reach the threshold, in (i, j) order."""
        counts, n = residue_counts(self.codes), len(self.lens)
        near = [np.zeros((0, 2), np.intp)]
        step = max(1, _BOUND_PAIRS // max(n, 1))
        for lo in range(0, n - 1, step):
            rows = np.arange(lo, min(lo + step, n - 1))
            # columns from lo + 1 on; the mask keeps j > i
            ok = _may_reach(counts[rows, None], counts[None, lo + 1 :], threshold, self.params)
            ok &= np.arange(lo + 1, n) > rows[:, None]
            near.append(np.argwhere(ok) + (lo, lo + 1))
        return tuple(np.concatenate(near).T)


def similarity_matrix(seqs, params: AlignParams = DEFAULT_PARAMS) -> np.ndarray:
    """Symmetric matrix of pairwise normalized similarities (diagonal 1),
    the upper triangle aligned in one packed pass."""
    scorer = Scorer(seqs, params)
    sim = np.eye(len(scorer.lens))
    i, j = np.triu_indices(len(scorer.lens), 1)
    sim[i, j] = sim[j, i] = scorer.similarities(i, j)
    return sim


def build_components(
    seqs, params: AlignParams = DEFAULT_PARAMS, threshold: float = 0.70
) -> tuple[list[list[int]], dict[tuple[int, int], float]]:
    """Connected components of the similarity graph (edges >= threshold),
    and the similarities aligned to find them, keyed (i, j) with i < j.

    The pairs that Scorer.near_pairs lets reach the threshold are aligned
    in one packed pass, with seqs[i] as the query as in similarity_matrix,
    so each similarity equals the matrix's bit for bit.  Clusters are
    ordered by their smallest member index; members ascend.
    """
    check_fraction("threshold", threshold)
    scorer = Scorer(seqs, params)
    n = len(scorer.lens)
    near_i, near_j = scorer.near_pairs(threshold)
    sims = scorer.similarities(near_i, near_j)

    root = list(range(n))

    def find(u):
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    scores = {}
    for i, j, s in zip(near_i.tolist(), near_j.tolist(), sims.tolist()):
        scores[i, j] = s
        if s >= threshold:
            ri, rj = find(i), find(j)
            root[max(ri, rj)] = min(ri, rj)  # a cluster's root is its smallest member
    clusters: dict[int, list[int]] = {}
    for u in range(n):
        clusters.setdefault(find(u), []).append(u)
    return list(clusters.values()), scores


def pick_representatives(
    clusters, seqs, scores, params: AlignParams = DEFAULT_PARAMS
) -> list[int]:
    """Per cluster, the member with maximal mean similarity to the others.

    Similarities come from scores, keyed (i, j) with i before j in the
    cluster, as build_components returns them; the pairs missing there, from
    every cluster, are aligned in one packed pass with seqs[i] as the query.
    Each cluster's block then equals the same entries of similarity_matrix.
    Singletons represent themselves; ties go to the lowest index.
    """
    known = dict(scores)
    missing = [
        (i, j)
        for members in clusters
        for a, i in enumerate(members)
        for j in members[a + 1 :]
        if (i, j) not in known
    ]
    if missing:
        queries, refs = zip(*missing)
        known.update(zip(missing, Scorer(seqs, params).similarities(queries, refs)))
    reps = []
    for members in clusters:
        if len(members) == 1:
            reps.append(members[0])
            continue
        block = np.eye(len(members))
        for a, i in enumerate(members[:-1]):
            row = [known[i, j] for j in members[a + 1 :]]
            block[a, a + 1 :] = row
            block[a + 1 :, a] = row
        means = (block.sum(axis=1) - np.diag(block)) / (len(members) - 1)
        reps.append(members[int(np.argmax(means))])
    return reps
