"""ROUGE and relation-preservation scoring."""

import warnings

import numpy as np
import pytest

from treesum import metrics
from treesum.metrics import EmbeddingTable, Relation
from helpers import (pairwise_cosine, pairwise_relation_matches,
                     reference_load_embeddings, seeded_rng)


class TestRougeN:
    def test_identical_texts_score_one(self):
        tokens = "a man escaped from prison".split()
        assert metrics.rouge_n(tokens, tokens, 1) == (1.0, 1.0, 1.0)
        assert metrics.rouge_n(tokens, tokens, 2) == (1.0, 1.0, 1.0)

    def test_hand_counted_unigram_overlap(self):
        p, r, f = metrics.rouge_n("a man escaped".split(),
                                  "a man escaped from prison".split(), 1)
        assert (p, r, f) == pytest.approx((1.0, 0.6, 0.75))

    def test_disjoint_texts_score_zero(self):
        assert metrics.rouge_n(list("abc"), list("xyz"), 1) == (0.0, 0.0, 0.0)

    def test_clipped_counts(self):
        # candidate repeats a unigram beyond its reference count
        p, r, f = metrics.rouge_n(["the", "the", "the"], ["the", "cat"], 1)
        assert p == pytest.approx(1 / 3)
        assert r == pytest.approx(1 / 2)

    def test_short_texts_and_empty(self):
        assert metrics.rouge_n([], ["a"], 1) == (0.0, 0.0, 0.0)
        assert metrics.rouge_n(["a"], ["a"], 2) == (0.0, 0.0, 0.0)

    def test_symmetry_precision_recall_swap(self):
        rng = seeded_rng(81)
        vocab = list("abcdef")
        for _ in range(50):
            x = [vocab[i] for i in rng.integers(0, 6, size=rng.integers(1, 9))]
            y = [vocab[i] for i in rng.integers(0, 6, size=rng.integers(1, 9))]
            for n in (1, 2):
                px, rx, _ = metrics.rouge_n(x, y, n)
                py, ry, _ = metrics.rouge_n(y, x, n)
                assert px == pytest.approx(ry)
                assert rx == pytest.approx(py)

    def test_invalid_n_rejected(self):
        with pytest.raises(metrics.MetricsError):
            metrics.rouge_n(["a"], ["a"], 0)


class TestRougeL:
    def test_identical(self):
        tokens = "a b c".split()
        assert metrics.rouge_l(tokens, tokens) == (1.0, 1.0, 1.0)

    def test_hand_lcs(self):
        p, r, f = metrics.rouge_l("a b c d".split(), "a c b d".split())
        assert (p, r, f) == (0.75, 0.75, 0.75)

    def test_empty_candidate(self):
        assert metrics.rouge_l([], ["a", "b"]) == (0.0, 0.0, 0.0)

    def test_symmetry(self):
        rng = seeded_rng(82)
        vocab = list("abcd")
        for _ in range(50):
            x = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(1, 8))]
            y = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(1, 8))]
            px, rx, _ = metrics.rouge_l(x, y)
            py, ry, _ = metrics.rouge_l(y, x)
            assert px == pytest.approx(ry)
            assert rx == pytest.approx(py)

    def test_outputs_bounded(self):
        rng = seeded_rng(83)
        vocab = list("abcd")
        for _ in range(50):
            x = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(1, 8))]
            y = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(1, 8))]
            p, r, f = metrics.rouge_l(x, y)
            assert 0.0 <= f <= max(p, r) + 1e-12
            assert max(p, r) <= 1.0


def random_relations(rng, k, vocab):
    return [Relation(head=vocab[rng.integers(len(vocab))],
                     dependent=vocab[rng.integers(len(vocab))])
            for _ in range(k)]


def strict_reference_match(predicted, target):
    """Independent strict matcher: greedy one-to-one on string equality."""
    used = set()
    matched = 0
    for p in predicted:
        for j, t in enumerate(target):
            if j in used:
                continue
            if p.head == t.head and p.dependent == t.dependent:
                used.add(j)
                matched += 1
                break
    n_p, n_t = len(predicted), len(target)
    p = matched / n_p if n_p else 0.0
    r = matched / n_t if n_t else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


class TestRelationF:
    def test_identical_sets_strict(self):
        rels = [Relation("escaped", "man"), Relation("escaped", "prison")]
        assert metrics.relation_f(rels, list(rels), sigma=1.0) == \
            (1.0, 1.0, 1.0)

    def test_strict_rejects_paraphrase(self):
        pred = [Relation("escaped", "person")]
        target = [Relation("escaped", "man")]
        _, _, f = metrics.relation_f(pred, target, sigma=1.0)
        assert f == 0.0

    def test_direction_is_part_of_identity(self):
        pred = [Relation("man", "escaped")]
        target = [Relation("escaped", "man")]
        _, _, f = metrics.relation_f(pred, target, sigma=1.0)
        assert f == 0.0

    def test_sigma_one_equals_strict_on_random_sets(self):
        rng = seeded_rng(84)
        vocab = ["w%d" % i for i in range(6)]
        table = EmbeddingTable(vocab, rng.normal(size=(len(vocab), 4)))
        for _ in range(1000):
            pred = random_relations(rng, int(rng.integers(0, 6)), vocab)
            target = random_relations(rng, int(rng.integers(0, 6)), vocab)
            with_table = metrics.relation_f(pred, target, table, sigma=1.0)
            reference = strict_reference_match(pred, target)
            assert with_table == pytest.approx(reference)

    def test_lenient_matches_above_threshold(self):
        table = EmbeddingTable(["man", "person", "escaped"], [
            [1.0, 0.0],
            [0.95, 0.31224989991992],  # cos(man, person) ~ 0.95
            [0.0, 1.0],
        ])
        pred = [Relation("escaped", "person")]
        target = [Relation("escaped", "man")]
        _, _, strict_f = metrics.relation_f(pred, target, table, sigma=1.0)
        _, _, lenient_f = metrics.relation_f(pred, target, table, sigma=0.9)
        assert strict_f == 0.0
        assert lenient_f == 1.0

    def test_f_non_increasing_in_sigma(self):
        rng = seeded_rng(85)
        vocab = ["w%d" % i for i in range(8)]
        table = EmbeddingTable(vocab, rng.normal(size=(len(vocab), 5)))
        sigmas = (1.0, 0.9, 0.8, 0.7)
        for _ in range(200):
            pred = random_relations(rng, int(rng.integers(1, 7)), vocab)
            target = random_relations(rng, int(rng.integers(1, 7)), vocab)
            fs = [metrics.relation_f(pred, target, table, s)[2]
                  for s in sigmas]
            assert all(a <= b + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_matches_pairwise_reference(self):
        rng = seeded_rng(86)
        vocab = ["w%d" % i for i in range(10)]
        centers = rng.normal(size=(3, 4))
        vectors = {w: centers[i % 3] + 0.3 * rng.normal(size=4)
                   for i, w in enumerate(vocab[:7])}
        vectors["w7"] = np.zeros(4)     # w8 and w9 have no vector
        table = EmbeddingTable(list(vectors), list(vectors.values()))
        np.testing.assert_allclose(
            table.cosine(vocab, vocab),
            [[pairwise_cosine(u, v, vectors) for v in vocab] for u in vocab],
            rtol=0, atol=1e-12)
        lenient_gain = 0
        for _ in range(300):
            pred = random_relations(rng, int(rng.integers(0, 7)), vocab)
            target = random_relations(rng, int(rng.integers(0, 7)), vocab)
            for sigma in (1.0, 0.9, 0.8, 0.7):
                got = metrics.relation_matches(pred, target, table, sigma)
                assert got == pairwise_relation_matches(
                    pred, target, vectors, sigma)
                assert metrics.relation_matches(pred, target, None, sigma) \
                    == pairwise_relation_matches(pred, target, None, sigma)
            strict = metrics.relation_matches(pred, target, table, 1.0)
            lenient_gain += got[0] - strict[0]      # got is at sigma 0.7
        assert lenient_gain > 0     # the sweep exercised lenient matches

    def test_missing_words_fall_back_to_strict(self):
        table = EmbeddingTable(["man"], [[1.0, 0.0]])
        pred = [Relation("escaped", "man")]
        target = [Relation("escaped", "man")]
        _, _, f = metrics.relation_f(pred, target, table, sigma=0.8)
        assert f == 1.0  # equal strings match despite missing vectors

    def test_empty_sets_score_zero(self):
        rels = [Relation("a", "b")]
        assert metrics.relation_f([], rels, sigma=1.0)[2] == 0.0
        assert metrics.relation_f(rels, [], sigma=1.0)[2] == 0.0

    def test_one_to_one_matching(self):
        # two identical predictions cannot both match one target
        pred = [Relation("a", "b"), Relation("a", "b")]
        target = [Relation("a", "b")]
        p, r, f = metrics.relation_f(pred, target, sigma=1.0)
        assert p == 0.5 and r == 1.0

    def test_invalid_sigma_rejected(self):
        with pytest.raises(metrics.MetricsError):
            metrics.relation_f([], [], sigma=0.0)
        with pytest.raises(metrics.MetricsError):
            metrics.relation_f([], [], sigma=1.5)


class TestRelationsFromHeads:
    def test_walkthrough_tree(self):
        words = ["a", "man", "escaped", "from", "prison"]
        heads = [2, 3, 0, 5, 3]
        rels = metrics.relations_from_heads(words, heads)
        assert Relation("escaped", "man") in rels
        assert Relation("escaped", "prison") in rels
        assert Relation("prison", "from") in rels
        assert len(rels) == 4  # root arc excluded


class TestEmbeddingTable:
    def test_first_row_of_a_repeated_word_wins(self):
        rows = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        table = EmbeddingTable(["man", "cat", "man"], rows)
        assert table.index == {"man": 0, "cat": 1}
        assert table.dim == 2
        np.testing.assert_array_equal(table.unit,
                                      [[0.6, 0.8], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(rows[0], [3.0, 4.0])   # not modified

    def test_no_words_give_no_dimension(self):
        table = EmbeddingTable([], np.zeros((0, 0)))
        assert len(table) == 0 and table.dim is None

    @pytest.mark.parametrize("words, rows", [
        (["man"], [1.0, 0.0]),
        (["man", "cat"], [[1.0, 0.0]]),
        (["man", "cat"], [[1.0, 0.0], [1.0]]),
        (["man"], [["x", "y"]]),
    ])
    def test_rows_that_are_not_one_vector_per_word_rejected(self, words,
                                                             rows):
        with pytest.raises(metrics.MetricsError, match="vectors"):
            EmbeddingTable(words, rows)

    def test_load_two_line_file(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("man 1.0 0.0 0.0\nperson 0.9 0.1 0.0\n")
        table = metrics.load_embeddings(path)
        assert len(table) == 2
        assert table.dim == 3

    def test_empty_file_gives_empty_table(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("")
        table = metrics.load_embeddings(path)
        assert len(table) == 0

    def test_self_cosine_is_one(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("man 1.0 2.0 -0.5\ncat 0.1 0.2 0.3\n")
        table = metrics.load_embeddings(path)
        for w in ("man", "cat"):
            assert table.cosine([w], [w])[0, 0] == pytest.approx(1.0)

    def test_ragged_dimensions_report_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("man 1.0 0.0\ncat 0.1\n")
        with pytest.raises(metrics.MetricsError, match=":2:"):
            metrics.load_embeddings(path)

    def test_unparseable_value_reports_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("man 1.0 oops\n")
        with pytest.raises(metrics.MetricsError, match=":1:"):
            metrics.load_embeddings(path)

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("man 1.0 0.0\nman 0.0 1.0\n")
        table = metrics.load_embeddings(path)
        np.testing.assert_array_equal(table.unit[table.index["man"]],
                                      [1.0, 0.0])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "vectors.txt"
        path.write_text(f"man 1.0 0.0\ncat {value} 1.0\n")
        with pytest.raises(metrics.MetricsError, match=":2: non-finite"):
            metrics.load_embeddings(path)

    def test_word_without_values_reports_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("man 1.0 0.0\ncat \t\n")
        with pytest.raises(metrics.MetricsError,
                           match=f"^{path}:2: no vector values$"):
            metrics.load_embeddings(path)

    def test_blank_only_file_gives_empty_table_without_warning(
            self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("\n  \n\t\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = metrics.load_embeddings(path)
        assert len(table) == 0
        assert table.dim is None

    @pytest.mark.parametrize("value", ["1_0", "\u0661"])
    def test_value_outside_numpy_float_syntax_reports_line(self, tmp_path,
                                                           value):
        # Python's float reads both; numpy's parser does not
        path = tmp_path / "vectors.txt"
        path.write_text(f"man 1.0 0.0\ncat 1.0 {value}\n", encoding="utf-8")
        with pytest.raises(metrics.MetricsError,
                           match=f"^{path}:2: unparseable value$"):
            metrics.load_embeddings(path)

    @pytest.mark.parametrize("bad, message", [
        ("cat", "no vector values"),
        ("cat 1.0 oops", "unparseable value"),
        ("cat 1.0", "dimension 1 != 2"),
        ("cat 1.0 2.0 3.0", "dimension 3 != 2"),
        ("cat nan 1.0", "non-finite value"),
        ("cat 1.0 -inf", "non-finite value"),
    ])
    def test_bad_line_past_the_first_chunk_is_named(self, tmp_path, bad,
                                                     message):
        # loadtxt reads 50,000 lines per chunk; the bad line lies beyond
        lines = [f"w{i} {i % 7}.5 -{i % 3}e-2" for i in range(60000)]
        path = tmp_path / "vectors.txt"
        path.write_text("\n".join(lines + [bad] + lines[:5]) + "\n")
        expected = f"{path}:60001: {message}"
        with pytest.raises(metrics.MetricsError) as caught:
            reference_load_embeddings(path)
        assert str(caught.value) == expected
        with pytest.raises(metrics.MetricsError) as caught:
            metrics.load_embeddings(path)
        assert str(caught.value) == expected

    @pytest.mark.parametrize("text, error", [
        ("a nan 1.0\nb 1.0 oops\n", ":1: non-finite value"),
        ("a 1.0 2.0\nb inf 2.0\nc 1.0 2.0 3.0\n", ":2: non-finite value"),
        ("a 1.0 2.0\nb 1.0\nc 1.0 x\n", ":2: dimension 1 != 2"),
        ("a 1.0 x\nb 1.0\n", ":1: unparseable value"),
    ])
    def test_first_bad_line_wins_as_in_the_reference(self, tmp_path, text,
                                                     error):
        path = tmp_path / "vectors.txt"
        path.write_text(text)
        for load in (reference_load_embeddings, metrics.load_embeddings):
            with pytest.raises(metrics.MetricsError) as caught:
                load(path)
            assert str(caught.value) == f"{path}{error}"

    @pytest.mark.parametrize("seed", range(20))
    def test_random_valid_files_load_as_the_reference(self, tmp_path, seed):
        rng = seeded_rng(seed)
        dim = int(rng.integers(1, 6))
        pool = [f"w{k}" for k in range(12)] + ["caf\u00e9", "x-y", "A."]
        separators = [" ", "\t", "   ", "\xa0", " \t ", "\u2003"]
        formats = ["%r", "%.4f", "%g", "%e", "%+.3E", "%.0f", "%d"]

        def sep():
            return str(rng.choice(separators))

        lines = []
        for _ in range(int(rng.integers(1, 40))):
            if rng.random() < 0.1:
                lines.append(str(rng.choice(["", " ", "\t", "\xa0"])))
                continue
            if rng.random() < 0.15:
                vec = np.zeros(dim)
            else:
                vec = rng.normal(size=dim) * 10.0 ** rng.integers(-6, 6, dim)
            fields = [str(rng.choice(pool))]
            for v in vec.tolist():
                fmt = str(rng.choice(formats))
                fields.append(fmt % (int(v) if fmt == "%d" else v))
            line = sep().join(fields)
            if rng.random() < 0.2:
                line = sep() + line + sep()
            lines.append(line)
        ending = str(rng.choice(["\n", "\r\n"]))
        path = tmp_path / "vectors.txt"
        path.write_bytes((ending.join(lines) + ending).encode("utf-8"))
        expected = reference_load_embeddings(path)
        table = metrics.load_embeddings(path)
        assert table.index == expected.index
        assert table.dim == expected.dim
        np.testing.assert_array_equal(table.unit, expected.unit)
