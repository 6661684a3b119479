"""End-to-end command-line pipeline."""

import json
import os
import re
import stat
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import autodiff as ad
from treesum import cli
from treesum import corpus as cp
from treesum.model import Model, ModelError
from helpers import toy_corpus


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A trained tiny model plus corpora, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    examples = toy_corpus(n=12, seed=21)
    corpus_path = root / "train.jsonl"
    cp.save_corpus(corpus_path, examples)
    ckpt = root / "model.ckpt"
    status = cli.run([
        "train", "--corpus", str(corpus_path), "--out", str(ckpt),
        "--hidden-size", "12", "--embed-size", "12", "--min-freq", "1",
        "--epochs", "2", "--batch-size", "6", "--seed", "3",
    ])
    assert status == 0
    return {"root": root, "corpus": corpus_path, "ckpt": ckpt,
            "examples": examples}


def _checksummed(body):
    return body + struct.pack("<I", zlib.crc32(body))


def _with_metadata(meta, keep_params=True):
    """Checkpoint rewrite: new metadata bytes, a valid CRC."""
    def rewrite(blob):
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        old = json.loads(blob[12:12 + meta_len])
        records = blob[12 + meta_len:-4] if keep_params \
            else struct.pack("<I", 0)
        new = meta(old)
        body = blob[:8] + struct.pack("<I", len(new)) + new + records
        return _checksummed(body)
    return rewrite


def _json_without(key):
    return lambda old: json.dumps(
        {k: v for k, v in old.items() if k != key}).encode()


def _json_config_with(key, value):
    return lambda old: json.dumps(
        {**old, "config": {**old["config"], key: value}}).encode()


def _json_with_input_token(token):
    """Metadata listing one more input token than its config, with the
    vocabulary hash that list has."""
    def rewrite(old):
        tokens = old["input_vocab"] + [token]
        return json.dumps({**old, "input_vocab": tokens,
                           "input_vocab_hash": cp.Vocabulary(tokens).digest()
                           }).encode()
    return rewrite


def _with_trailing_bytes(blob):
    return _checksummed(blob[:-4] + b"\x00" * 7)


def _with_first_record_twice(blob):
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    count_at = 12 + meta_len
    (count,) = struct.unpack_from("<I", blob, count_at)
    start = count_at + 4
    (name_len,) = struct.unpack_from("<H", blob, start)
    code, ndim = struct.unpack_from("<BB", blob, start + 2 + name_len)
    dims = struct.unpack_from(f"<{ndim}I", blob, start + 4 + name_len)
    # the dtype code is the item size in bytes
    end = start + 4 + name_len + 4 * ndim + code * int(np.prod(dims))
    record = blob[start:end]
    return _checksummed(blob[:count_at] + struct.pack("<I", count + 1)
                        + record + blob[start:-4])


def _with_extra_record(name):
    """Checkpoint rewrite: one more record, ``name`` holding one float32
    zero, ahead of the others; a valid CRC."""
    def rewrite(blob):
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        count_at = 12 + meta_len
        (count,) = struct.unpack_from("<I", blob, count_at)
        encoded = name.encode()
        record = (struct.pack("<H", len(encoded)) + encoded
                  + struct.pack("<BBI", 4, 1, 1) + bytes(4))
        return _checksummed(blob[:count_at] + struct.pack("<I", count + 1)
                            + record + blob[count_at + 4:-4])
    return rewrite


def _with_first_record_shape(ndim, dims):
    """Checkpoint rewrite: the first record declares ``ndim`` and ``dims``
    (packed as given), its values are kept; a valid CRC."""
    def rewrite(blob):
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        start = 12 + meta_len + 4
        (name_len,) = struct.unpack_from("<H", blob, start)
        at = start + 3 + name_len   # the ndim byte
        (old_ndim,) = struct.unpack_from("<B", blob, at)
        header = struct.pack("<B", ndim) + struct.pack(f"<{len(dims)}I",
                                                       *dims)
        return _checksummed(blob[:at] + header
                            + blob[at + 1 + 4 * old_ndim:-4])
    return rewrite


def _record_header_offsets(body, meta_len):
    """Offsets of every record's name length, dtype code, ndim and
    dimension bytes."""
    offsets = []
    at = 12 + meta_len + 4
    while at < len(body):
        (name_len,) = struct.unpack_from("<H", body, at)
        code, ndim = struct.unpack_from("<BB", body, at + 2 + name_len)
        dims = struct.unpack_from(f"<{ndim}I", body, at + 4 + name_len)
        end = at + 4 + name_len + 4 * ndim
        offsets += [at, at + 1, *range(end - 4 * ndim - 2, end)]
        at = end + code * int(np.prod(dims))
    return offsets


def _with_value(name, row, value):
    """Checkpoint rewrite: the first value of row ``row`` of record
    ``name`` becomes ``value``; a valid CRC."""
    def rewrite(blob):
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        at = 12 + meta_len + 4
        while True:
            (name_len,) = struct.unpack_from("<H", blob, at)
            code, ndim = struct.unpack_from("<BB", blob, at + 2 + name_len)
            dims = struct.unpack_from(f"<{ndim}I", blob, at + 4 + name_len)
            values = at + 4 + name_len + 4 * ndim
            if blob[at + 2:at + 2 + name_len].decode() == name:
                break
            at = values + code * int(np.prod(dims))
        dtype = "<f4" if code == 4 else "<f8"
        offset = values + code * row * int(np.prod(dims[1:]))
        return _checksummed(blob[:offset] + np.array(value, dtype).tobytes()
                            + blob[offset + code:-4])
    return rewrite


# each file is checksummed, but its metadata is unusable or its records
# are not one list of distinct names ending at the checksum, of finite
# values
BAD_METADATA = {
    "missing_output_vocab": _with_metadata(_json_without("output_vocab")),
    "unknown_config_key": _with_metadata(_json_config_with("depth", 3)),
    "json_list": _with_metadata(lambda old: b"[1, 2]"),
    "no_parameter_records": _with_metadata(
        lambda old: json.dumps(old).encode(), keep_params=False),
    "not_json": _with_metadata(lambda old: b"{config: 1"),
    "not_utf8": _with_metadata(lambda old: b'{"config": "\xff"}'),
    "trailing_bytes": _with_trailing_bytes,
    "repeated_record": _with_first_record_twice,
    # sizes checked against the stored arrays before a model is built;
    # a billion encoder layers would otherwise allocate until memory ran out
    "encoder_layers_huge": _with_metadata(
        _json_config_with("encoder_layers", 10 ** 9)),
    "hidden_size_mismatch": _with_metadata(
        _json_config_with("hidden_size", 13)),
    "embed_size_mismatch": _with_metadata(
        _json_config_with("embed_size", 11)),
    # equal to the stored size, but no size a model can be built with
    "hidden_size_float": _with_metadata(_json_config_with("hidden_size", 12.0)),
    "input_vocab_longer_than_config": _with_metadata(
        _json_with_input_token("zebra")),
    # a record the parameter table does not declare
    "undeclared_record": _with_extra_record("junk"),
    # zero-sized, so only the dimension count is wrong
    "ndim_above_32": _with_first_record_shape(213, (0,) * 213),
    "shape_beyond_bytes_left": _with_first_record_shape(2, (70000, 70000)),
    # a u32 product that wraps around in int64
    "shape_overflowing_int64": _with_first_record_shape(
        2, (2 ** 32 - 1, 2 ** 32 - 1)),
    # the PAD row of src_embed is read by no source, so it must be caught
    # at load time
    "nan_in_root_embed": _with_value("root_embed", 0, np.nan),
    "nan_in_src_embed_pad_row": _with_value(
        "src_embed", cp.SPECIALS.index(cp.PAD), np.nan),
    "inf_in_word_out_w": _with_value("word_out_w", 1, -np.inf),
}


def _eval_inputs(examples):
    """Well-formed eval inputs, one line per record, keyed by flag."""
    return {
        "decoded": [json.dumps({"summary": " ".join(ex.summary),
                                "heads": " ".join(map(str, ex.heads))})
                    for ex in examples],
        "reference": [json.dumps({"source": " ".join(ex.source),
                                  "summary": " ".join(ex.summary),
                                  "heads": list(ex.heads)})
                      for ex in examples],
        "source-parses": [json.dumps({"words": ex.source,
                                      "heads": [0] + [1] * (len(ex.source)
                                                            - 1)})
                          for ex in examples],
        "embeddings": ["saw 1.0 0.0", "met 0.9 0.4359"],
    }


def _eval_argv(tmp_path, inputs):
    """Write each input to ``<flag>.txt``; the eval command line reading
    them."""
    argv = ["eval"]
    for flag, lines in inputs.items():
        path = tmp_path / f"{flag}.txt"
        path.write_text("\n".join(lines) + "\n")
        argv += [f"--{flag}", str(path)]
    return argv


def _record(**fields):
    return json.dumps(fields)


# flag -> its second line, and where the error must point in that file
# (with its message, where that is the point)
BAD_EVAL_INPUT = {
    "decoded_not_json": ("decoded", '{"summary": "a b",', ":2:"),
    "decoded_non_integer_head": (
        "decoded", _record(summary="a b", heads="0 x"), ":2:"),
    "decoded_head_above_n": (
        "decoded", _record(summary="a b", heads="0 3"), ":2:"),
    "decoded_negative_head": (
        "decoded", _record(summary="a b", heads="0 -1"), ":2:"),
    "decoded_heads_not_a_string": (
        "decoded", _record(summary="a b", heads=[0, 1]),
        ":2: 'heads' must be a string"),
    "parses_not_json": ("source-parses", "[0,", ":2:"),
    "parses_length_mismatch": (
        "source-parses", _record(words=["a", "b"], heads=[0]), ":2:"),
    "parses_fractional_head": (
        "source-parses", _record(words=["a", "b"], heads=[0, 1.5]), ":2:"),
    "parses_head_above_n": (
        "source-parses", _record(words=["a", "b"], heads=[0, 3]), ":2:"),
    "parses_empty_word": (
        "source-parses", _record(words=["", "b"], heads=[0, 1]), ":2:"),
    "reference_non_integer_head": (
        "reference", _record(source="a b", summary="a b", heads=[0, "x"]),
        ":2:"),
    "reference_fractional_head": (
        "reference", _record(source="a b", summary="a b", heads=[0, 1.5]),
        ":2:"),
    "reference_heads_not_a_list": (
        "reference", _record(source="a b", summary="a b", heads=2), ":2:"),
    "reference_source_not_a_string": (
        "reference", _record(source=3, summary="a b", heads=[0, 1]), ":2:"),
    "reference_head_above_n": (
        "reference", _record(source="a b", summary="a b", heads=[0, 3]),
        ": record 2:"),
    # a reference's record number counts only the non-blank lines
    "reference_head_above_n_after_blank_line": (
        "reference",
        "\n" + _record(source="a b", summary="a b", heads=[0, 3]),
        ": record 2:"),
    "embeddings_non_finite": ("embeddings", "met nan 1.0", ":2:"),
}


class TestOracle:
    def test_prints_walkthrough_sequence(self, tmp_path, capsys):
        path = tmp_path / "one.jsonl"
        cp.save_corpus(path, [cp.Example(
            source="a man escaped from prison today".split(),
            summary="a man escaped from prison".split(),
            heads=[2, 3, 0, 5, 3])])
        assert cli.run(["oracle", "--corpus", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == \
            "GEN(a) GEN(man) RL GEN(escaped) RL GEN(from) GEN(prison) RL RR RR"

    def test_writes_file_with_config_echo(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cp.save_corpus(path, toy_corpus(n=3, seed=5))
        out = tmp_path / "ops.txt"
        assert cli.run(["oracle", "--corpus", str(path),
                        "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 3
        echoed = json.loads((tmp_path / "ops.txt.config").read_text())
        assert echoed["command"] == "oracle"
        assert "max_summary_len" in echoed["config"]

    def test_missing_corpus_fails_cleanly(self, tmp_path, capsys):
        assert cli.run(["oracle", "--corpus",
                        str(tmp_path / "nope.jsonl")]) == 1
        assert "oracle" in capsys.readouterr().err


class TestArgumentHandling:
    def test_unknown_flag_exits_nonzero(self, capsys):
        assert cli.run(["oracle", "--corpus", "x", "--bogus", "1"]) != 0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("not_a_key = 7\n")
        corpus = tmp_path / "c.jsonl"
        cp.save_corpus(corpus, toy_corpus(n=2, seed=5))
        assert cli.run(["oracle", "--corpus", str(corpus),
                        "--config", str(config)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("max_summary_len = 2  # tight cap\n")
        corpus = tmp_path / "c.jsonl"
        cp.save_corpus(corpus, toy_corpus(n=2, seed=5))  # 3-word summaries
        # with the file cap of 2 every example is filtered out
        assert cli.run(["oracle", "--corpus", str(corpus),
                        "--config", str(config)]) == 1
        # the flag raises it back
        assert cli.run(["oracle", "--corpus", str(corpus),
                        "--config", str(config),
                        "--max-summary-len", "10"]) == 0

    def test_only_train_takes_a_seed_flag(self, workdir, tmp_path, capsys):
        decoded = tmp_path / "decoded.jsonl"
        argv = ["decode", "--checkpoint", str(workdir["ckpt"]),
                "--input", str(workdir["corpus"]), "--out", str(decoded),
                "--max-words", "4"]
        assert cli.run(argv + ["--seed", "3"]) == 2
        assert not decoded.exists()
        # a shared config file may still name the seed
        config = tmp_path / "run.conf"
        config.write_text("seed = 3\nbeam_size = 1\n")
        assert cli.run(argv + ["--config", str(config)]) == 0
        assert decoded.exists()


class TestTrain:
    def test_batch_size_zero_is_a_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        cp.save_corpus(corpus, toy_corpus(n=4, seed=5))
        out = tmp_path / "model.ckpt"
        assert cli.run(["train", "--corpus", str(corpus), "--out", str(out),
                        "--hidden-size", "8", "--embed-size", "8",
                        "--batch-size", "0"]) == 2
        assert "batch_size must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--lr=nan", "lr must be finite"),
        ("--grad-clip=inf", "grad_clip must be finite"),
        ("--weight-decay=-5", "weight_decay must not be negative"),
        ("--seed=-1", "seed must not be negative"),
        ("--eps=0", "eps must be positive")])
    def test_bad_optimizer_setting_is_a_usage_error(self, tmp_path, capsys,
                                                    flag, message):
        corpus = tmp_path / "c.jsonl"
        cp.save_corpus(corpus, toy_corpus(n=4, seed=5))
        out = tmp_path / "model.ckpt"
        assert cli.run(["train", "--corpus", str(corpus), "--out", str(out),
                        "--hidden-size", "8", "--embed-size", "8",
                        "--epochs", "1", flag]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, key", [
        ("train", "--output-vocab-size=-1", "output_vocab_size"),
        ("train", "--max-source-len=0", "max_source_len"),
        ("train", "--max-summary-len=0", "max_summary_len"),
        ("oracle", "--max-source-len=0", "max_source_len"),
        ("oracle", "--max-summary-len=0", "max_summary_len")])
    def test_size_setting_below_one_is_a_usage_error(self, tmp_path, capsys,
                                                     command, flag, key):
        corpus = tmp_path / "c.jsonl"
        cp.save_corpus(corpus, toy_corpus(n=4, seed=5))
        out = tmp_path / "out"
        assert cli.run([command, "--corpus", str(corpus), "--out", str(out),
                        flag]) == 2
        assert f"{key} must be at least 1" in capsys.readouterr().err
        assert not out.exists()
        # rejected before the corpus is read
        assert cli.run([command, "--corpus", str(tmp_path / "none.jsonl"),
                        "--out", str(out), flag]) == 2

    def test_model_setting_out_of_range_is_a_usage_error(self, tmp_path,
                                                          capsys):
        corpus = tmp_path / "c.jsonl"
        cp.save_corpus(corpus, toy_corpus(n=4, seed=5))
        out = tmp_path / "model.ckpt"
        assert cli.run(["train", "--corpus", str(corpus), "--out", str(out),
                        "--hidden-size", "0", "--embed-size", "8"]) == 2
        assert "hidden_size must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_checkpoint_log_and_config(self, workdir):
        assert workdir["ckpt"].exists()
        log = workdir["root"] / "model.ckpt.log"
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 2
        fields = lines[0].split("\t")
        # epoch, train, dev, op acc, word acc, wall s, inst/s, grad norm,
        # clip share, UNK targets
        assert len(fields) == 10
        assert (workdir["root"] / "model.ckpt.config").exists()


class TestDecodeAndEval:
    def test_beam_size_zero_is_a_usage_error(self, tmp_path, capsys):
        # checked before the checkpoint or the input is opened
        decoded = tmp_path / "decoded.jsonl"
        assert cli.run(["decode", "--checkpoint", str(tmp_path / "none"),
                        "--input", str(tmp_path / "none.jsonl"),
                        "--out", str(decoded), "--beam-size", "0"]) == 2
        assert "beam size must be at least 1" in capsys.readouterr().err
        assert not decoded.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--length-norm=nan", "length_norm must be finite"),
        ("--length-norm=-1", "length_norm must be finite and not negative"),
        ("--workers=0", "workers must be at least 1"),
        ("--workers=-3", "workers must be at least 1")])
    def test_bad_decode_setting_is_a_usage_error(self, workdir, tmp_path,
                                                 capsys, flag, message):
        decoded = tmp_path / "decoded.jsonl"
        assert cli.run(["decode", "--checkpoint", str(workdir["ckpt"]),
                        "--input", str(workdir["corpus"]),
                        "--out", str(decoded), "--max-words", "3",
                        flag]) == 2
        assert message in capsys.readouterr().err
        assert not decoded.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_eval_workers_below_one_is_a_usage_error(self, workdir, tmp_path,
                                                     capsys, workers):
        out = tmp_path / "report.tsv"
        argv = _eval_argv(tmp_path, _eval_inputs(workdir["examples"]))
        assert cli.run(argv + ["--out", str(out),
                               f"--workers={workers}"]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigmas, bad", [
        ("0.9,x", "'x'"), (",", "''"), ("1.5", "'1.5'"), ("0", "'0'"),
        ("nan", "'nan'"), ("0.9,0.9", "'0.9' is repeated")])
    def test_bad_sigmas_is_a_usage_error(self, tmp_path, capsys, sigmas, bad):
        # checked before any input is opened: none of these files exists
        out = tmp_path / "report.tsv"
        assert cli.run(["eval", "--decoded", str(tmp_path / "none.jsonl"),
                        "--reference", str(tmp_path / "none.jsonl"),
                        "--embeddings", str(tmp_path / "none.txt"),
                        f"--sigmas={sigmas}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("treesum eval: sigmas: ") and bad in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_eval_input_is_an_error(self, tmp_path, capsys, text):
        decoded = tmp_path / "decoded.jsonl"
        reference = tmp_path / "reference.jsonl"
        decoded.write_text(text)
        reference.write_text(text)
        out = tmp_path / "report.tsv"
        assert cli.run(["eval", "--decoded", str(decoded),
                        "--reference", str(reference),
                        "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == (
            f"treesum eval: {decoded}: no records")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(BAD_METADATA))
    def test_bad_checkpoint_metadata_names_the_file(self, workdir, tmp_path,
                                                    capsys, case):
        bad = tmp_path / f"{case}.ckpt"
        bad.write_bytes(BAD_METADATA[case](workdir["ckpt"].read_bytes()))
        with pytest.raises((ModelError, ad.CheckpointError),
                           match=re.escape(str(bad))):
            Model.load(bad)
        decoded = tmp_path / "decoded.jsonl"
        assert cli.run(["decode", "--checkpoint", str(bad),
                        "--input", str(workdir["corpus"]),
                        "--out", str(decoded)]) == 1
        assert str(bad) in capsys.readouterr().err
        assert not decoded.exists()

    @pytest.mark.parametrize("case, name", [
        ("nan_in_root_embed", "root_embed"),
        ("nan_in_src_embed_pad_row", "src_embed"),
        ("inf_in_word_out_w", "word_out_w")])
    def test_non_finite_value_names_the_parameter(self, workdir, tmp_path,
                                                  case, name):
        bad = tmp_path / f"{case}.ckpt"
        bad.write_bytes(BAD_METADATA[case](workdir["ckpt"].read_bytes()))
        with pytest.raises(ad.CheckpointError,
                           match=f"{re.escape(str(bad))}: parameter "
                                 f"'{name}' holds non-finite values"):
            Model.load(bad)

    @pytest.mark.parametrize("case", ["encoder_layers_huge",
                                      "hidden_size_mismatch",
                                      "embed_size_mismatch"])
    def test_sizes_checked_before_a_model_is_built(self, workdir, tmp_path,
                                                   monkeypatch, case):
        def build(*args, **kwargs):
            raise AssertionError("a model was built")
        monkeypatch.setattr(Model, "__init__", build)
        bad = tmp_path / f"{case}.ckpt"
        bad.write_bytes(BAD_METADATA[case](workdir["ckpt"].read_bytes()))
        field = case.rsplit("_", 1)[0]
        with pytest.raises(ModelError, match=f"{field} .* does not match"):
            Model.load(bad)

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(data=st.data())
    def test_any_corrupted_checkpoint_raises_only_module_errors(self, workdir,
                                                                data):
        # one byte replaced or the file cut short, then re-checksummed:
        # the load succeeds or raises CheckpointError or ModelError
        body = bytearray(workdir["ckpt"].read_bytes()[:-4])
        (meta_len,) = struct.unpack_from("<I", body, 8)
        if data.draw(st.booleans(), label="truncate"):
            body = body[:data.draw(st.integers(0, len(body) - 1),
                                   label="length")]
        else:
            at = data.draw(st.one_of(
                st.integers(0, 16 + meta_len),
                st.sampled_from(_record_header_offsets(body, meta_len)),
                st.integers(0, len(body) - 1)), label="offset")
            body[at] = data.draw(st.sampled_from(range(256)), label="byte")
        path = workdir["root"] / "mutated.ckpt"
        path.write_bytes(_checksummed(bytes(body)))
        try:
            Model.load(path)
        except (ad.CheckpointError, ModelError) as e:
            assert str(path) in str(e)

    @pytest.mark.parametrize("case", sorted(BAD_EVAL_INPUT))
    def test_bad_eval_input_names_the_file(self, workdir, tmp_path, capsys,
                                           case):
        flag, line, where = BAD_EVAL_INPUT[case]
        inputs = _eval_inputs(workdir["examples"])
        inputs[flag][1] = line
        report = tmp_path / "report.tsv"
        assert cli.run(_eval_argv(tmp_path, inputs)
                       + ["--out", str(report)]) == 1
        assert f"{tmp_path / flag}.txt{where}" in capsys.readouterr().err
        assert not report.exists()

    def test_mixed_case_decode_scores_as_its_lowercase(self, tmp_path,
                                                        capsys):
        # references are lowercased on load, so decodes are too
        decoded = tmp_path / "decoded.jsonl"
        decoded.write_text(json.dumps({"summary": "The Cat sat",
                                       "heads": "2 3 0"}) + "\n")
        reference = tmp_path / "reference.jsonl"
        cp.save_corpus(reference, [cp.Example(
            source="the cat sat down".split(), summary="the cat sat".split(),
            heads=[2, 3, 0])])
        assert cli.run(["eval", "--decoded", str(decoded),
                        "--reference", str(reference)]) == 0
        lines = capsys.readouterr().out.split("\n")
        macro = next(line for line in lines if line.startswith("macro"))
        # ROUGE-1, -2 and -L (P, R, F), then the relation F
        assert macro.split("\t")[1:] == ["1.0000"] * 10

    def test_decode_then_eval_smoke(self, workdir, tmp_path):
        decoded = tmp_path / "decoded.jsonl"
        status = cli.run([
            "decode", "--checkpoint", str(workdir["ckpt"]),
            "--input", str(workdir["corpus"]), "--out", str(decoded),
            "--beam-size", "2", "--max-words", "4",
        ])
        assert status == 0
        records = [json.loads(line)
                   for line in decoded.read_text().strip().split("\n")]
        assert len(records) == 12
        for record in records:
            assert set(record) == {"summary", "ops", "heads", "score"}
            assert len(record["summary"].split()) == \
                len(record["heads"].split())

        report = tmp_path / "report.tsv"
        status = cli.run([
            "eval", "--decoded", str(decoded),
            "--reference", str(workdir["corpus"]), "--out", str(report),
        ])
        assert status == 0
        text = report.read_text()
        assert text.startswith("#index")
        assert "macro" in text
        assert "# relation preservation vs reference" in text
        for sigma in ("1.0", "0.9", "0.8", "0.7"):
            assert f"\n{sigma}\t" in text

    def test_decode_workers_match_serial(self, workdir, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        base = ["decode", "--checkpoint", str(workdir["ckpt"]),
                "--input", str(workdir["corpus"]),
                "--beam-size", "2", "--max-words", "4"]
        assert cli.run(base + ["--out", str(serial)]) == 0
        assert cli.run(base + ["--out", str(parallel),
                               "--workers", "2"]) == 0
        assert serial.read_text() == parallel.read_text()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rejected_source_names_the_file_and_record(
            self, workdir, tmp_path, capsys, workers):
        # the encoder takes at most max_source_len (100) tokens
        source = tmp_path / "source.jsonl"
        good = [" ".join(ex.source) for ex in workdir["examples"][:3]]
        records = [good[0], " ".join(["alice"] * 150), *good[1:]]
        source.write_text("".join(json.dumps({"source": r}) + "\n"
                                  for r in records))
        decoded = tmp_path / "decoded.jsonl"
        assert cli.run(["decode", "--checkpoint", str(workdir["ckpt"]),
                        "--input", str(source), "--out", str(decoded),
                        "--max-words", "3", "--workers", workers]) == 1
        assert capsys.readouterr().err.strip() == (
            f"treesum decode: {source}: record 2: source length 150 "
            f"exceeds configured maximum 100")
        assert not decoded.exists()

    def test_eval_workers_match_serial(self, workdir, tmp_path):
        inputs = _eval_inputs(workdir["examples"])
        inputs["decoded"] = inputs["decoded"][::-1]   # imperfect decodes
        argv = _eval_argv(tmp_path, inputs) + ["--sigmas", "1.0,0.9,0.8,0.7"]
        serial = tmp_path / "serial.tsv"
        parallel = tmp_path / "parallel.tsv"
        assert cli.run(argv + ["--out", str(serial)]) == 0
        assert cli.run(argv + ["--out", str(parallel), "--workers", "2"]) == 0
        assert serial.read_text() == parallel.read_text()

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_pool_is_no_larger_than_its_records(self, workdir, tmp_path,
                                                monkeypatch, command):
        sizes = []

        class InProcessPool:
            """Maps in this process; records the size it was asked for."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                cli._WORKER_STATE.clear()

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        examples = workdir["examples"][:2]
        if command == "decode":
            source = tmp_path / "source.jsonl"
            cp.save_corpus(source, examples)
            argv = ["decode", "--checkpoint", str(workdir["ckpt"]),
                    "--input", str(source), "--max-words", "3"]
        else:
            argv = _eval_argv(tmp_path, _eval_inputs(examples))
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        assert cli.run(argv + ["--out", str(serial), "--workers", "1"]) == 0
        assert cli.run(argv + ["--out", str(pooled),
                               "--workers", "1" + "0" * 30]) == 0
        assert sizes == [2]
        assert serial.read_bytes() == pooled.read_bytes()

    def test_eval_with_source_parses_and_embeddings(self, workdir, tmp_path):
        decoded = tmp_path / "decoded.jsonl"
        assert cli.run([
            "decode", "--checkpoint", str(workdir["ckpt"]),
            "--input", str(workdir["corpus"]), "--out", str(decoded),
            "--beam-size", "1", "--max-words", "4"]) == 0
        parses = tmp_path / "source_parses.jsonl"
        with open(parses, "w") as fh:
            for ex in workdir["examples"]:
                n = len(ex.source)
                fh.write(json.dumps(
                    {"words": ex.source, "heads": [0] + [1] * (n - 1)}) + "\n")
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("saw 1.0 0.0\nmet 0.9 0.4359\n")
        report = tmp_path / "report.tsv"
        assert cli.run([
            "eval", "--decoded", str(decoded),
            "--reference", str(workdir["corpus"]),
            "--source-parses", str(parses),
            "--embeddings", str(vectors),
            "--sigmas", "1.0,0.8",
            "--out", str(report)]) == 0
        text = report.read_text()
        assert "relsrc_f" in text
        assert "# relation preservation vs source" in text
        echoed = json.loads((tmp_path / "report.tsv.config").read_text())
        assert echoed["command"] == "eval"
        assert echoed["inputs"] == {
            "decoded": str(decoded), "reference": str(workdir["corpus"]),
            "source_parses": str(parses), "embeddings": str(vectors),
            "sigmas": [1.0, 0.8]}

    @pytest.mark.parametrize("command", ["decode", "eval"])
    @pytest.mark.parametrize("fails", [False, True])
    def test_serial_run_keeps_no_worker_state(self, workdir, tmp_path,
                                              monkeypatch, command, fails):
        # the loaded model or embedding table must not outlive the run,
        # also when a record fails mid-run
        if command == "decode":
            source = tmp_path / "source.jsonl"
            records = [{"source": " ".join(ex.source)}
                       for ex in workdir["examples"][:2]]
            if fails:   # longer than the model's max_source_len
                records.append({"source": " ".join(["alice"] * 500)})
            source.write_text("".join(json.dumps(r) + "\n" for r in records))
            argv = ["decode", "--checkpoint", str(workdir["ckpt"]),
                    "--input", str(source), "--max-words", "3"]
        else:
            if fails:
                def broken(*args):
                    raise cli.metrics.MetricsError("scoring failed")
                monkeypatch.setattr(cli.metrics, "rouge_l", broken)
            argv = _eval_argv(tmp_path, _eval_inputs(workdir["examples"]))
        assert cli.run(argv + ["--out", str(tmp_path / "out")]) == int(fails)
        assert cli._WORKER_STATE == {}

    def test_serial_decode_failing_on_an_empty_source_keeps_nothing(
            self, workdir, tmp_path, capsys):
        source = tmp_path / "source.jsonl"
        source.write_text(
            json.dumps({"source": " ".join(workdir["examples"][0].source)})
            + "\n" + json.dumps({"source": ""}) + "\n")
        decoded = tmp_path / "decoded.jsonl"
        assert cli.run(["decode", "--checkpoint", str(workdir["ckpt"]),
                        "--input", str(source), "--out", str(decoded),
                        "--max-words", "3"]) == 1
        assert f"{source}: record 2: " in capsys.readouterr().err
        assert cli._WORKER_STATE == {}
        assert not decoded.exists()

    def test_failed_eval_leaves_no_partial_output(self, workdir, tmp_path):
        report = tmp_path / "report.tsv"
        status = cli.run([
            "eval", "--decoded", str(tmp_path / "missing.jsonl"),
            "--reference", str(workdir["corpus"]), "--out", str(report)])
        assert status == 1
        assert os.listdir(tmp_path) == []


def _exiting_worker(item):
    os._exit(3)


class TestFailuresAreReported:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_checkpoint_fails_alike_at_any_worker_count(
            self, workdir, tmp_path, capsys, workers):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("not a checkpoint")
        decoded = tmp_path / "decoded.jsonl"
        assert cli.run(["decode", "--checkpoint", str(bad),
                        "--input", str(workdir["corpus"]),
                        "--out", str(decoded), "--workers", workers]) == 1
        assert capsys.readouterr().err.strip() == (
            f"treesum decode: {bad}: not a checkpoint file")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt"]
        assert cli._WORKER_STATE == {}

    def test_a_dead_worker_is_a_cli_error(self):
        with pytest.raises(cli.CliError, match="worker process"):
            cli._map_records(2, dict, (), _exiting_worker, [1, 2], 1)

    def test_failed_rename_leaves_no_temp_file(self, workdir, tmp_path,
                                               capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert cli.run(["decode", "--checkpoint", str(workdir["ckpt"]),
                        "--input", str(workdir["corpus"]), "--out", str(out),
                        "--max-words", "3"]) == 1
        assert "treesum decode: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_embeddings_without_vectors_is_an_error(self, workdir, tmp_path,
                                                     capsys, text):
        argv = _eval_argv(tmp_path, _eval_inputs(workdir["examples"]))
        vectors = tmp_path / "embeddings.txt"
        vectors.write_text(text)
        report = tmp_path / "report.tsv"
        assert cli.run(argv + ["--out", str(report)]) == 1
        assert capsys.readouterr().err.strip() == (
            f"treesum eval: {vectors}: no vectors")
        assert not report.exists()

    def test_repeated_config_key_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("seed = 1\n# comment\nseed = 2\n")
        corpus = tmp_path / "c.jsonl"
        cp.save_corpus(corpus, toy_corpus(n=2, seed=5))
        assert cli.run(["oracle", "--corpus", str(corpus),
                        "--config", str(config)]) == 1
        assert capsys.readouterr().err.strip() == (
            f"treesum oracle: {config}:3: config key 'seed' repeated "
            f"(first set at line 1)")


class TestAtomicOutput:
    """Every output goes through a fresh, exclusively created temp file."""

    USER_DATA = "kept by the user\n"

    @staticmethod
    def argv(command, workdir, tmp_path):
        if command == "oracle":
            return ["oracle", "--corpus", str(workdir["corpus"])]
        if command == "decode":
            return ["decode", "--checkpoint", str(workdir["ckpt"]),
                    "--input", str(workdir["corpus"]), "--max-words", "3"]
        return _eval_argv(tmp_path, _eval_inputs(workdir["examples"]))

    @pytest.mark.parametrize("fails", [False, True], ids=["ok", "failed"])
    @pytest.mark.parametrize("command", ["oracle", "decode", "eval"])
    def test_a_users_tmp_file_is_left_alone(self, workdir, tmp_path,
                                            command, fails):
        argv = self.argv(command, workdir, tmp_path)
        out = tmp_path / "out"
        if fails:
            out.mkdir()   # the rename onto a directory fails
        (tmp_path / "out.tmp").write_text(self.USER_DATA)
        before = set(os.listdir(tmp_path))
        assert cli.run(argv + ["--out", str(out)]) == int(fails)
        assert (tmp_path / "out.tmp").read_text() == self.USER_DATA
        written = set() if fails else {"out", "out.config"}
        assert set(os.listdir(tmp_path)) == before | written
        if fails:
            assert os.listdir(out) == []

    @pytest.mark.parametrize("fails", [False, True], ids=["ok", "failed"])
    def test_model_save_leaves_a_users_tmp_file_alone(self, workdir,
                                                      tmp_path, fails):
        out = tmp_path / "model.ckpt"
        if fails:
            out.mkdir()
        (tmp_path / "model.ckpt.tmp").write_text(self.USER_DATA)
        model = Model.load(workdir["ckpt"])
        if fails:
            with pytest.raises(OSError):
                model.save(out)
            assert os.listdir(out) == []
        else:
            model.save(out)
            assert out.read_bytes() == workdir["ckpt"].read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt",
                                                "model.ckpt.tmp"]
        assert (tmp_path / "model.ckpt.tmp").read_text() == self.USER_DATA

    def test_outputs_get_the_mode_open_gives(self, workdir, tmp_path):
        umask = os.umask(0o027)
        try:
            (tmp_path / "opened").open("w").close()
            assert cli.run(self.argv("oracle", workdir, tmp_path)
                           + ["--out", str(tmp_path / "out")]) == 0
            Model.load(workdir["ckpt"]).save(tmp_path / "model.ckpt")
        finally:
            os.umask(umask)
        modes = {path.name: stat.S_IMODE(path.stat().st_mode)
                 for path in tmp_path.iterdir()}
        assert modes == dict.fromkeys(
            ["opened", "out", "out.config", "model.ckpt"], 0o640)
