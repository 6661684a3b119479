"""ROUGE and dependency-relation preservation scores.

ROUGE-1/2 use clipped n-gram counts, ROUGE-L uses the longest common
subsequence; both report (precision, recall, F1).  Relation preservation
compares the directed (head, dependent) word pairs of two parses, each
``(words, heads)`` (`parse_arcs`): a pair scores the smaller of its head
and dependent word similarity, 1.0 for equal words and an embedding cosine
below 1.0 for distinct ones, so the threshold 1.0 is string equality.
Matching is one-to-one, greedy by descending pair similarity.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .corpus import text_lines


class MetricsError(ValueError):
    pass


def parse_arcs(words, heads):
    """The word-to-word arcs of a parse, after checking it: one integer
    head per word, each in 0..n (``heads[i]`` is the 1-based position of
    the head of ``words[i]``, 0 for R) and no empty word.  Returns the arcs
    as two 0-based int arrays, head positions and dependent positions, in
    dependent order; arcs from R are skipped because R is not a word."""
    n = len(words)
    if len(heads) != n:
        raise MetricsError(f"{len(heads)} heads for {n} words")
    heads = np.asarray(heads)
    if n and heads.dtype.kind not in "iu":
        raise MetricsError("heads must be integers")
    outside = (heads < 0) | (heads > n)
    if outside.any():
        dep = int(np.argmax(outside))
        raise MetricsError(
            f"head {heads[dep]} of word {dep + 1} outside 0..{n}")
    if not all(words):
        raise MetricsError("words must be non-empty")
    deps = np.flatnonzero(heads)
    return heads[deps].astype(np.int64) - 1, deps


def prf(overlap, n_candidate, n_reference):
    """Precision/recall/F1 from an overlap count; empty sides give 0."""
    p = overlap / n_candidate if n_candidate else 0.0
    r = overlap / n_reference if n_reference else 0.0
    f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate, reference, n):
    """Clipped n-gram overlap (precision, recall, F1)."""
    if n < 1:
        raise MetricsError("n must be at least 1")
    cand = _ngram_counts(candidate, n)
    ref = _ngram_counts(reference, n)
    overlap = sum(min(count, ref[g]) for g, count in cand.items())
    return prf(overlap, sum(cand.values()), sum(ref.values()))


def _word_ids(*sequences):
    """Each word sequence as an int array, equal words sharing one id (as
    Python strings: numpy's fixed-width str drops trailing NULs)."""
    ids = {}
    return [np.array([ids.setdefault(w, len(ids)) for w in words],
                     dtype=np.int64) for words in sequences]


def rouge_l(candidate, reference):
    """Longest-common-subsequence (precision, recall, F1), beta = 1."""
    m, n = len(candidate), len(reference)
    if m == 0 or n == 0:
        return 0.0, 0.0, 0.0
    cand, ref = _word_ids(candidate, reference)
    row = np.zeros(n + 1, dtype=np.int64)
    for word in cand:   # the LCS table, one row per candidate word
        row[1:] = np.maximum.accumulate(
            np.maximum(row[1:], row[:-1] + (ref == word)))
    return prf(int(row[n]), m, n)


class EmbeddingTable:
    """Word vectors for lenient relation matching: row i of the (len(words),
    d) matrix ``rows`` is the vector of ``words[i]``, and the first row of
    a repeated word wins.  The kept rows are copied once, with a zero row
    last for index -1 (a word without a vector), into ``unit``, and
    normalised there to unit length; a zero vector stays zero, so its
    cosine with any word is 0.  ``dim`` is None when there are no words."""

    def __init__(self, words, rows):
        try:
            rows = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise MetricsError(f"vectors are not a matrix: {e}") from e
        if rows.ndim != 2 or rows.shape[0] != len(words):
            raise MetricsError(f"vectors of shape {rows.shape} for "
                               f"{len(words)} words")
        self.index, keep = {}, []
        for i, word in enumerate(words):
            if word not in self.index:
                self.index[word] = len(keep)
                keep.append(i)
        self.dim = rows.shape[1] if keep else None
        unit = np.zeros((len(keep) + 1, rows.shape[1]))
        # "clip" (the indices are valid) writes to out without a buffer
        np.take(rows, keep, axis=0, out=unit[:-1], mode="clip")
        norms = np.sqrt(np.einsum("ij,ij->i", unit, unit))[:, None]
        self.unit = np.divide(unit, norms, out=unit, where=norms > 0)

    def __len__(self):
        return len(self.index)

    def cosine(self, us, vs):
        """(len(us), len(vs)) similarity matrix: 1.0 where the words are
        equal, else the cosine where both words have vectors, capped just
        below 1.0, and 0.0 otherwise."""
        a = self.unit[[self.index.get(u, -1) for u in us]]
        b = self.unit[[self.index.get(v, -1) for v in vs]]
        sim = np.minimum(a @ b.T, np.nextafter(1.0, 0.0))
        u_ids, v_ids = _word_ids(us, vs)
        sim[u_ids[:, None] == v_ids] = 1.0
        return sim


_NO_VECTORS = EmbeddingTable([], np.zeros((0, 0)))


def _parse_values(lines):
    """One row of floats per whitespace-separated line, in numpy's float
    syntax; raises ValueError on a bad value or a ragged row.  Given the
    row count, `np.loadtxt` sizes its result once instead of growing it."""
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2,
                      max_rows=len(lines))


def _raise_first_bad_line(path, linenos, values):
    """Re-read ``values`` one line at a time with the same parser and
    raise the error of the first bad line."""
    dim = None
    for lineno, line in zip(linenos, values):
        try:
            vec = _parse_values([line])[0]
        except ValueError:
            raise MetricsError(f"{path}:{lineno}: unparseable value")
        if not np.isfinite(vec).all():
            raise MetricsError(f"{path}:{lineno}: non-finite value")
        dim = len(vec) if dim is None else dim
        if len(vec) != dim:
            raise MetricsError(
                f"{path}:{lineno}: dimension {len(vec)} != {dim}")


def _read_rows(path):
    """(lowercased words, value rows) of the non-blank lines of an
    embeddings file, every line checked.  Each line is split once into its
    word and its values, and the values of all lines are parsed in one
    `np.loadtxt` call; only when that fails are they re-read line by line
    to name the bad one.  The values die with this call, before the rows
    are copied."""
    linenos, words, values = [], [], []
    for lineno, line in text_lines(path, MetricsError):
        parts = line.split(None, 1)
        if not parts:
            continue
        if len(parts) == 1:
            raise MetricsError(f"{path}:{lineno}: no vector values")
        linenos.append(lineno)
        words.append(parts[0].lower())
        values.append(parts[1])
    if not values:   # loadtxt would warn of an empty input
        return [], np.zeros((0, 0))
    try:
        rows = _parse_values(values)
    except ValueError:
        _raise_first_bad_line(path, linenos, values)
        raise
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise MetricsError(
            f"{path}:{linenos[int(np.argmin(finite))]}: non-finite value")
    return words, rows


def load_embeddings(path) -> EmbeddingTable:
    """Parse ``word v1 v2 ... vd`` lines; words are lowercased, as eval's
    are, and the first line of a word wins; a word without values, an
    unparseable value, a dimension mismatch or a non-finite value reports
    its line number."""
    return EmbeddingTable(*_read_rows(path))


def relation_similarity(predicted, target, table=None):
    """(predicted arcs, target arcs) matrix of two parses (`parse_arcs`):
    the smaller of the head and the dependent similarity of each pair, read
    from one `EmbeddingTable.cosine` matrix of their words; no table leaves
    1.0 for equal relations and 0.0 elsewhere."""
    table = _NO_VECTORS if table is None else table
    p_heads, p_deps = parse_arcs(*predicted)
    t_heads, t_deps = parse_arcs(*target)
    sim = table.cosine(predicted[0], target[0])
    return np.minimum(sim[np.ix_(p_heads, t_heads)],
                      sim[np.ix_(p_deps, t_deps)])


def relation_matches(similarity, sigma=1.0):
    """One-to-one matched count at threshold sigma.

    A predicted relation i may match a target relation j when
    ``similarity[i, j]`` (`relation_similarity`) reaches sigma; pairs are
    taken greedily by descending similarity, ties by first occurrence.
    Returns (matched, n_predicted, n_target) so callers can pool counts.
    """
    if not 0.0 < sigma <= 1.0:
        raise MetricsError("sigma must lie in (0, 1]")
    rows, cols = np.nonzero(similarity >= sigma)
    order = np.lexsort((cols, rows, -similarity[rows, cols]))
    used_p, used_t = set(), set()
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if i not in used_p and j not in used_t:
            used_p.add(i)
            used_t.add(j)
    return len(used_p), *similarity.shape


def relation_f(predicted, target, table=None, sigma=1.0):
    """Relation-preservation (precision, recall, F1) of a predicted parse
    against a target parse at threshold sigma."""
    return prf(*relation_matches(
        relation_similarity(predicted, target, table), sigma))
