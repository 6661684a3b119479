"""ROUGE and dependency-relation preservation scores.

ROUGE-1/2 use clipped n-gram counts, ROUGE-L uses the longest common
subsequence; both report (precision, recall, F1).  Relation preservation
compares directed (head, dependent) word pairs between a system tree and
source/reference relations: strict matching requires string equality,
lenient matching accepts embedding cosine similarity of at least a
threshold for both words, with the threshold 1.0 degenerating to strict.
Matching is one-to-one, greedy by descending pair similarity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import text_lines


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class Relation:
    """A directed dependency: direction is part of identity."""

    head: str
    dependent: str

    def __post_init__(self):
        if not self.head or not self.dependent:
            raise MetricsError("relation words must be non-empty")


def relations_from_heads(words, heads):
    """Word-to-word relations of a parse; arcs from R are skipped because
    R is not a word."""
    if len(heads) != len(words):
        raise MetricsError(f"{len(heads)} heads for {len(words)} words")
    out = []
    for dep_pos, head_pos in enumerate(heads, start=1):
        if not 0 <= head_pos <= len(words):
            raise MetricsError(
                f"head {head_pos} of word {dep_pos} outside 0..{len(words)}")
        if head_pos != 0:
            out.append(Relation(head=words[head_pos - 1],
                                dependent=words[dep_pos - 1]))
    return out


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


def rouge_l(candidate, reference):
    """Longest-common-subsequence (precision, recall, F1), beta = 1."""
    m, n = len(candidate), len(reference)
    if m == 0 or n == 0:
        return 0.0, 0.0, 0.0
    table = np.zeros((m + 1, n + 1), dtype=np.int64)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if candidate[i - 1] == reference[j - 1]:
                table[i, j] = table[i - 1, j - 1] + 1
            else:
                table[i, j] = max(table[i - 1, j], table[i, j - 1])
    return prf(int(table[m, n]), m, n)


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

    def __contains__(self, word):
        return word in self.index

    def __len__(self):
        return len(self.index)

    def cosine(self, us, vs):
        """(len(us), len(vs)) similarity matrix: 1.0 where the strings are
        equal, the cosine where both words have vectors, 0.0 otherwise."""
        a = self.unit[[self.index.get(u, -1) for u in us]]
        b = self.unit[[self.index.get(v, -1) for v in vs]]
        sim = a @ b.T
        sim[np.asarray(us, dtype=str)[:, None]
            == np.asarray(vs, dtype=str)] = 1.0
        return sim


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
    """(words, value rows) of the non-blank lines of an embeddings file,
    every line checked.  Each line is split once into its word and its
    values, and the values of all lines are parsed in one `np.loadtxt`
    call; only when that fails are they re-read line by line to name the
    bad one.  The values die with this call, before the rows are copied."""
    linenos, words, values = [], [], []
    for lineno, line in text_lines(path, MetricsError):
        parts = line.split(None, 1)
        if not parts:
            continue
        if len(parts) == 1:
            raise MetricsError(f"{path}:{lineno}: no vector values")
        linenos.append(lineno)
        words.append(parts[0])
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
    """Parse ``word v1 v2 ... vd`` lines; first occurrence wins on
    duplicates; a word without values, an unparseable value, a dimension
    mismatch or a non-finite value reports its line number."""
    return EmbeddingTable(*_read_rows(path))


def relation_matches(predicted, target, table=None, sigma=1.0):
    """One-to-one matched count at threshold sigma.

    A predicted relation may match a target relation when both the head
    pair and the dependent pair reach similarity sigma; sigma = 1.0, or no
    table, is exact string matching.  Pairs are taken greedily by
    descending min-similarity, ties by first occurrence.  Returns
    (matched, n_predicted, n_target) so callers can pool counts.
    """
    if not 0.0 < sigma <= 1.0:
        raise MetricsError("sigma must lie in (0, 1]")
    predicted = list(predicted)
    target = list(target)
    if not predicted or not target:
        return 0, len(predicted), len(target)
    if sigma >= 1.0 or table is None:
        eligible = [(1.0, i, j) for i, p in enumerate(predicted)
                    for j, t in enumerate(target) if p == t]
    else:
        score = np.minimum(
            table.cosine([p.head for p in predicted],
                         [t.head for t in target]),
            table.cosine([p.dependent for p in predicted],
                         [t.dependent for t in target]))
        eligible = [(score[i, j], i, j)
                    for i, j in zip(*np.nonzero(score >= sigma))]
    used_p, used_t = set(), set()
    for _, i, j in sorted(eligible, key=lambda e: (-e[0], e[1], e[2])):
        if i not in used_p and j not in used_t:
            used_p.add(i)
            used_t.add(j)
    return len(used_p), len(predicted), len(target)


def relation_f(predicted, target, table=None, sigma=1.0):
    """Relation-preservation (precision, recall, F1) at threshold sigma."""
    return prf(*relation_matches(predicted, target, table, sigma))
