"""Self-tests of the benchmark: inputs, pinning, tracing and the record.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ts = run.import_treesum()


def crossing(heads):
    arcs = [(min(h, d), max(h, d)) for d, h in enumerate(heads, start=1)]
    return any(a1 < a2 < b1 < b2 for a1, b1 in arcs for a2, b2 in arcs)


def test_same_seed_gives_identical_files(tmp_path):
    first = gen.write_cli_inputs(5, tmp_path / "a", 50, 10, 3)
    second = gen.write_cli_inputs(5, tmp_path / "b", 50, 10, 3)
    other = gen.write_cli_inputs(6, tmp_path / "c", 50, 10, 3)
    for role in first:
        assert filecmp.cmp(first[role], second[role], shallow=False), role
        # the toy desk corpus is fixed; everything else follows the seed
        assert filecmp.cmp(first[role], other[role], shallow=False) == (
            role in ("corpus", "test")), role
    assert gen.paper_set(5, 1, [20, 40]) == gen.paper_set(5, 1, [20, 40])


@pytest.mark.parametrize("n", [20, 31, 40, 60, 100])
def test_trees_have_exact_length_and_are_projective(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        heads = gen.random_heads(rng, n)
        assert len(heads) == n and heads.count(0) == 1
        assert not crossing(heads)
        tree = ts.DependencyTree(words=tuple(f"x{i}" for i in range(n)),
                                 heads=tuple(heads))
        assert ts.is_projective(tree)
        assert ts.execute(ts.oracle(tree)) == tree


def test_summaries_copy_source_words_outside_the_output_vocab():
    vocab = set(gen.output_tokens())
    outside = 0
    for record in gen.paper_set(3, 1, [30] * 20):
        assert len(record["source"]) == gen.SOURCE_LEN
        for w in record["summary"]:
            if w not in vocab:
                outside += 1
                assert w in record["source"]
    assert outside > 0


def test_lengths_are_a_fixed_spread():
    rng = np.random.default_rng(0)
    assert sorted(gen.spread_lengths(rng, 8)) == [20, 23, 26, 29, 31, 34,
                                                  37, 40]


@pytest.mark.parametrize("beam_size", [1, 3])
def test_pinned_model_decodes_exactly_two_ops_per_word(beam_size):
    model = workloads.paper_model(ts, 2)
    workloads.pin_lengths(ts, model)
    for record in gen.paper_set(2, 9, [3, 6]):
        n = len(record["summary"])
        hyp = ts.beam_search(model, model.prepare_source(record["source"]),
                             ts.BeamConfig(beam_size=beam_size, max_words=n))
        assert hyp.complete and len(hyp.ops) == 2 * n


def tiny_model():
    words = ["a", "b", "c", "d"]
    vocab = ts.Vocabulary(list(gen.SPECIALS) + words)
    config = ts.ModelConfig(input_vocab_size=len(vocab),
                            output_vocab_size=len(vocab), hidden_size=8,
                            embed_size=8, max_source_len=10)
    return ts.Model(config, vocab, vocab, seed=3)


def test_tracer_records_spans_and_restores_every_original():
    targets = tracer.span_targets(ts) + tracer.count_targets(ts)
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    t = tracer.Tracer(ts)
    t.install()
    try:
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in before)
        model = tiny_model()
        example = ts.Example(source=["a", "b"], summary=["a", "c"],
                             heads=[2, 0])
        ts.train(model, [example], config=ts.TrainConfig(batch_size=1,
                                                         epochs=1))
        src = model.prepare_source(["a", "b", "c"])
        ts.beam_search(model, src, ts.BeamConfig(beam_size=2, max_words=3))
    finally:
        assert t.restore() == len(targets)
    assert all(vars(owner)[attr] is original
               for owner, attr, original in before)
    times = t.layer_times()
    for name in ("training.train", "training.batch_loss", "autodiff.backward",
                 "decoding.beam_search", "model.step",
                 "autodiff.lstm_cell.encoder", "autodiff.lstm_cell.tree"):
        assert times[name][1] > 0, name
    assert all(busy >= 0.0 for busy, _ in times.values())
    assert t.counts["autodiff.prim"] > 0
    assert t.counts["decoding.sentences"] == 1
    assert 0 < t.counts["decoding.useful_steps"] \
        <= t.counts["decoding.beam_steps"]


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer(ts)
    t.names = ["outer", "inner", "leaf", "inner"]
    t.starts = [0.0, 1.0, 1.5, 5.0]
    t.ends = [10.0, 3.0, 2.0, 6.0]
    t.parents = [-1, 0, 1, 0]
    times = t.layer_times()
    assert times["outer"] == (pytest.approx(7.0), 1)
    assert times["inner"] == (pytest.approx(2.5), 2)
    assert times["leaf"] == (pytest.approx(0.5), 1)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_spec_and_within_limits():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    assert record == spec.benchmark_record()
    assert 2 <= len(record["workloads"]) <= 8
    names = [w["name"] for w in record["workloads"]]
    names += [m["name"] for m in record["end_to_end"] + record["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in record["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in record["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    for m in record["end_to_end"] + record["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert len(record["per_layer"]) <= 128
    assert set(workloads.WORKLOADS) == {w["name"] for w in
                                        record["workloads"]}


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        spec.COMMAND + ["--workload", "cli_pipeline", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
