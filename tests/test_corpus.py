"""Corpus loading, vocabularies, linearization, filtering."""

import json

import pytest

from treesum import corpus as cp
from treesum import transition as tr
from helpers import WALKTHROUGH_OPS, walkthrough_tree


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def example(source, summary, heads):
    return cp.Example(source=source.split(), summary=summary.split(),
                      heads=list(heads))


class TestVocabulary:
    def test_specials_present_with_fixed_ids(self):
        v = cp.Vocabulary(list(cp.SPECIALS) + ["cat"])
        assert v.pad_id == 0 and v.unk_id == 1 and v.root_id == 2
        assert v.id("cat") == 3
        assert v.id("unseen") == v.unk_id
        assert v.token(3) == "cat"
        assert "cat" in v and "unseen" not in v

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(cp.CorpusError):
            cp.Vocabulary(list(cp.SPECIALS) + ["cat", "cat"])

    def test_digest_changes_with_content(self):
        a = cp.Vocabulary(list(cp.SPECIALS) + ["cat"])
        b = cp.Vocabulary(list(cp.SPECIALS) + ["dog"])
        assert a.digest() != b.digest()


class TestBuildVocab:
    def test_input_frequency_threshold(self):
        examples = [example("cat sat", "cat", [0])] * 4 + \
            [example("dog ran", "dog", [0])] * 5
        vocab = cp.build_vocab(examples, "input")
        # frequency 4 tokens are excluded under the default threshold of 5
        assert "cat" not in vocab and "sat" not in vocab
        assert "dog" in vocab and "ran" in vocab

    def test_output_keeps_all_when_under_cap(self):
        examples = [example("x", "a b c d e f g h i",
                            [2, 0, 2, 2, 2, 2, 2, 2, 2])]
        vocab = cp.build_vocab(examples, "output")
        assert len(vocab) == 9 + len(cp.SPECIALS)

    def test_output_cap_with_lexicographic_ties(self):
        examples = [example("x", "b a c", [2, 0, 2])] * 3
        vocab = cp.build_vocab(examples, "output", max_size=2)
        # all tie at frequency 3: lexicographically first two survive
        assert "a" in vocab and "b" in vocab and "c" not in vocab

    def test_negative_output_cap_rejected(self):
        # a negative cap would slice off the least frequent words
        examples = [example("x", "x y y z", [2, 0, 2, 2])]
        with pytest.raises(cp.CorpusError, match="-1"):
            cp.build_vocab(examples, "output", max_size=-1)

    def test_deterministic_id_assignment(self):
        examples = [example("cat sat mat cat sat cat sat mat mat cat sat",
                            "cat", [0])] * 5
        a = cp.build_vocab(examples, "input")
        b = cp.build_vocab(examples, "input")
        assert a.tokens == b.tokens

    def test_empty_corpus_rejected(self):
        with pytest.raises(cp.CorpusError, match="empty"):
            cp.build_vocab([], "input")

    def test_unknown_role_rejected(self):
        with pytest.raises(cp.CorpusError, match="role"):
            cp.build_vocab([example("x", "y", [0])], "both")


class TestLoadCorpus:
    def test_well_formed_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [
            {"source": "A man escaped", "summary": "Man escaped",
             "heads": [2, 0]},
            {"source": "the dog RAN", "summary": "dog ran", "heads": [2, 0]},
            {"source": "x", "summary": "x", "heads": [0]},
        ])
        examples = cp.load_corpus(path)
        assert len(examples) == 3
        assert examples[0].source == ["a", "man", "escaped"]  # lowercased
        assert examples[0].summary == ["man", "escaped"]

    def test_length_mismatch_names_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [
            {"source": "a", "summary": "a", "heads": [0]},
            {"source": "b c", "summary": "b c", "heads": [2]},
        ])
        with pytest.raises(cp.CorpusError, match=":2:"):
            cp.load_corpus(path)

    def test_missing_field_names_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"summary": "a", "heads": [0]}])
        with pytest.raises(cp.CorpusError, match="source"):
            cp.load_corpus(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"source": "a", "summary": "a", "heads": [0]}\n{oops\n')
        with pytest.raises(cp.CorpusError, match=":2:"):
            cp.load_corpus(path)

    def test_round_trip_preserves_fields(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        examples = [
            example("a man escaped from prison today", "a man escaped",
                    [2, 3, 0]),
            example("hello there", "hello", [0]),
        ]
        cp.save_corpus(path, examples)
        loaded = cp.load_corpus(path)
        assert [e.source for e in loaded] == [e.source for e in examples]
        assert [e.summary for e in loaded] == [e.summary for e in examples]
        assert [e.heads for e in loaded] == [e.heads for e in examples]

    def test_heads_optional_when_not_required(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"source": "a man escaped"}])
        examples = cp.load_corpus(path, require_heads=False)
        assert examples[0].summary == []
        assert examples[0].heads == []


class TestLinearize:
    def test_walkthrough_sentence(self):
        tree = walkthrough_tree()
        ex = cp.Example(source=["x"], summary=list(tree.words),
                        heads=list(tree.heads))
        assert cp.linearize(ex) == WALKTHROUGH_OPS

    def test_one_word_summary(self):
        ex = example("a b", "hi", [0])
        assert cp.linearize(ex) == [tr.gen("hi"), tr.RR]

    def test_non_projective_propagates(self):
        ex = example("x", "a b c d", [3, 4, 0, 3])
        with pytest.raises(tr.NonProjectiveError):
            cp.linearize(ex)


class TestFilter:
    def test_projective_batch_unchanged(self):
        examples = [example("a b", "a b", [2, 0]),
                    example("c", "c", [0])]
        retained, stats = cp.filter_examples(examples)
        assert retained == examples
        assert stats == {}

    def test_rejection_reasons(self):
        examples = [
            example("x", "a b c d", [3, 4, 0, 3]),      # crossing arcs
            example("x", "a b", [0, 0]),                 # two root children
            example("x", "a b c d", [2, 1, 0, 3]),       # cycle among 1 and 2
            example("x", "a b", [2, 0]),                 # fine
            example("x " * 200, "a", [0]),               # over-long source
            example("x", " ".join(["w"] * 80), [0] * 80),  # over-long summary
        ]
        retained, stats = cp.filter_examples(examples)
        assert len(retained) == 1
        assert stats["non_projective"] == 1
        assert stats["multi_root"] == 1
        assert stats["cyclic"] == 1
        assert stats["source_length"] == 1
        assert stats["summary_length"] == 1

    def test_stats_counts_sum_to_rejected_total(self):
        examples = [
            example("x", "a b c d", [3, 4, 0, 3]),
            example("x", "a b", [0, 0]),
            example("x", "ok", [0]),
        ]
        retained, stats = cp.filter_examples(examples)
        assert sum(stats.values()) == len(examples) - len(retained)

    def test_every_retained_example_linearizes(self):
        examples = [
            example("x", "a b c d", [3, 4, 0, 3]),
            example("x", "a man escaped from prison", [2, 3, 0, 5, 3]),
            example("x", "a b", [0, 0]),
            example("x", "hi", [0]),
        ]
        retained, _ = cp.filter_examples(examples)
        assert len(retained) == 2
        for ex in retained:
            back = tr.execute(cp.linearize(ex))
            assert list(back.words) == ex.summary
            assert list(back.heads) == ex.heads


class TestConllConverter:
    def test_two_column_blocks(self, tmp_path):
        conll = tmp_path / "parses.conll"
        conll.write_text(
            "Man\t2\nescaped\t0\n\nDog\t2\nran\t0\n")
        sources = tmp_path / "sources.txt"
        sources.write_text("A man escaped from prison\nThe dog ran away\n")
        out = tmp_path / "corpus.jsonl"
        examples = cp.convert_conll(conll, sources, out)
        assert len(examples) == 2
        assert examples[0].summary == ["man", "escaped"]
        assert examples[0].heads == [2, 0]
        # the emitted file loads back identically
        assert cp.load_corpus(out)[0].summary == ["man", "escaped"]

    def test_ten_column_conllu_rows(self, tmp_path):
        conll = tmp_path / "parses.conllu"
        rows = [
            "# sent_id = 1",
            "1\tMan\tman\tNOUN\t_\t_\t2\tnsubj\t_\t_",
            "2\tescaped\tescape\tVERB\t_\t_\t0\troot\t_\t_",
            "",
        ]
        conll.write_text("\n".join(rows) + "\n")
        sources = tmp_path / "sources.txt"
        sources.write_text("A man escaped\n")
        out = tmp_path / "corpus.jsonl"
        examples = cp.convert_conll(conll, sources, out)
        assert examples[0].summary == ["man", "escaped"]
        assert examples[0].heads == [2, 0]

    def test_count_mismatch_rejected(self, tmp_path):
        conll = tmp_path / "parses.conll"
        conll.write_text("Man\t0\n")
        sources = tmp_path / "sources.txt"
        sources.write_text("first\nsecond\n")
        with pytest.raises(cp.CorpusError, match="1 parsed"):
            cp.convert_conll(conll, sources, tmp_path / "out.jsonl")
