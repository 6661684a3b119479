"""Text readers: bad bytes and mutated inputs raise only the reading
module's own error, naming the file and, for bad UTF-8, the line."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import cli
from treesum import corpus as cp
from treesum import metrics

CORPUS = "".join(json.dumps(record) + "\n" for record in (
    {"source": "a man escaped from prison", "summary": "man escaped",
     "heads": [2, 0]},
    {"source": "the dog ran away", "summary": "dog ran", "heads": [2, 0]},
    {"source": "it rained", "summary": "rained", "heads": [0]},
)).encode("utf-8")
CONLL = (b"# sent_id = 1\n1\tMan\tman\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
         b"2\tescaped\tescape\tVERB\t_\t_\t0\troot\t_\t_\n\n"
         b"Dog\t2\nran\t0\n\nrained 0\n")
SOURCES = b"A man escaped from prison\nThe dog ran away\nIt rained\n"
CONFIG = (b"# run settings\nbeam_size = 4\nlr = 0.01  # tight\n"
          b"max_words = 12\n\nmin_freq = 1\n")
EMBEDDINGS = b"man 0.1 0.2 0.3\ndog 0.0 -1.5 2.0\nran 1 2 3\n"
INVALID_UTF8 = (b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf")


def _with_bad_byte(text, line):
    """``text`` with an invalid UTF-8 byte inside line ``line`` (from 1)."""
    lines = text.split(b"\n")
    lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
    return b"\n".join(lines)


def _convert_conll_parses(tmp_path, path):
    (tmp_path / "sources.txt").write_bytes(SOURCES)
    cp.convert_conll(path, tmp_path / "sources.txt", tmp_path / "out.jsonl")


def _convert_conll_sources(tmp_path, path):
    (tmp_path / "parses.conll").write_bytes(CONLL)
    cp.convert_conll(tmp_path / "parses.conll", path, tmp_path / "out.jsonl")


# reader -> (valid text, call on a path, the module's error)
READERS = {
    "load_corpus": (CORPUS, lambda tmp, path: cp.load_corpus(path),
                    cp.CorpusError),
    "convert_conll_parses": (CONLL, _convert_conll_parses, cp.CorpusError),
    "convert_conll_sources": (SOURCES, _convert_conll_sources,
                              cp.CorpusError),
    "load_config_file": (CONFIG, lambda tmp, path: cli.load_config_file(path),
                         cli.CliError),
    "json_records": (CORPUS, lambda tmp, path: list(
        cp.json_records(path, cli.CliError)), cli.CliError),
    "load_embeddings": (EMBEDDINGS,
                        lambda tmp, path: metrics.load_embeddings(path),
                        metrics.MetricsError),
}


class TestInvalidUtf8:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_valid_input_reads(self, tmp_path, reader):
        text, read, _ = READERS[reader]
        path = tmp_path / "input.txt"
        path.write_bytes(text)
        read(tmp_path, path)

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_names_the_file_and_line(self, tmp_path, reader):
        text, read, error = READERS[reader]
        path = tmp_path / "input.txt"
        path.write_bytes(_with_bad_byte(text, 3))
        with pytest.raises(error, match=f"{path}:3: not UTF-8"):
            read(tmp_path, path)

    def test_bad_line_found_past_the_first_block(self, tmp_path):
        # text mode decodes 8 KB blocks; the line is found in bytes
        lines = CORPUS.split(b"\n")[:1] * 3000
        lines[2500] = _with_bad_byte(lines[2500], 1)
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(cp.CorpusError, match=f"{path}:2501: not UTF-8"):
            cp.load_corpus(path)

    def test_train_exits_1_naming_the_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(_with_bad_byte(CORPUS, 2))
        assert cli.run(["train", "--corpus", str(corpus),
                        "--out", str(tmp_path / "model.ckpt")]) == 1
        err = capsys.readouterr().err
        assert f"{corpus}:2: not UTF-8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "model.ckpt").exists()


@st.composite
def mutated(draw, text):
    """``text`` after a few byte edits: a byte replaced, inserted or
    deleted, an invalid UTF-8 sequence inserted, or the text cut short."""
    data = bytearray(text)
    for _ in range(draw(st.integers(1, 4), label="edits")):
        at = draw(st.integers(0, len(data)), label="offset")
        kind = draw(st.sampled_from(
            ["replace", "insert", "delete", "invalid", "truncate"]),
            label="kind")
        if kind == "replace" and at < len(data):
            data[at] = draw(st.integers(0, 255), label="byte")
        elif kind == "insert":
            data[at:at] = bytes([draw(st.integers(0, 255), label="byte")])
        elif kind == "delete":
            del data[at:at + 1]
        elif kind == "invalid":
            data[at:at] = draw(st.sampled_from(INVALID_UTF8), label="bytes")
        elif kind == "truncate":
            del data[at:]
    return bytes(data)


class TestMutationFuzz:
    """Mutations of valid inputs load or raise the reader's own error,
    whose message names an input file (`convert_conll` reads two)."""

    @pytest.mark.parametrize("reader", ["load_corpus", "convert_conll_parses",
                                        "convert_conll_sources",
                                        "load_config_file",
                                        "load_embeddings"])
    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(data=st.data())
    def test_mutated_input_raises_only_module_errors(self, tmp_path_factory,
                                                     reader, data):
        text, read, error = READERS[reader]
        tmp = tmp_path_factory.mktemp(reader)
        path = tmp / "input.txt"
        path.write_bytes(data.draw(mutated(text), label="text"))
        try:
            read(tmp, path)
        except error as e:
            assert str(tmp) in str(e)
