"""The benchmark tracer still finds every function it wraps.

`perfbench/tracer.py` replaces named package attributes at run time; a
refactor that renames one of them breaks traced benchmark runs.  These
tests install the tracer on the package, check the round trip, and check
that a training and decoding run still produces the spans and counters
the benchmark's per-layer metrics read.
"""

import importlib.util
from pathlib import Path

import treesum
import treesum.cli  # noqa: F401  (the tracer wraps the CLI commands too)
from test_model import tiny_model

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_restore_puts_back_every_original():
    tracing = load_tracer()
    targets = tracing.span_targets(treesum) + tracing.count_targets(treesum)
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _ in targets]
    tracer = tracing.Tracer(treesum)
    tracer.install()
    try:
        wrapped = [vars(owner)[attr] is not original
                   for owner, attr, original in originals]
    finally:
        restored = tracer.restore()
    assert all(wrapped)
    assert restored == len(targets)
    assert all(vars(owner)[attr] is original
               for owner, attr, original in originals)


def test_train_and_decode_record_the_pinned_spans():
    # the per-layer metrics read LSTM spans labelled by the 4th argument
    # of lstm_cell (its LstmParams), Model.step spans, and useful steps
    # counted through Model.step's state argument
    tracer = load_tracer().Tracer(treesum)
    tracer.install()
    try:
        model = tiny_model(out_words=("a", "c"))
        example = treesum.Example(source=["the", "cat"], summary=["a", "c"],
                                  heads=[2, 0])
        treesum.train(model, [example],
                      config=treesum.TrainConfig(batch_size=1, epochs=1))
        src = model.prepare_source(["the", "cat", "sat"])
        treesum.beam_search(model, src,
                            treesum.BeamConfig(beam_size=2, max_words=3))
    finally:
        tracer.restore()
    times = tracer.layer_times()
    for name in ("autodiff.lstm_cell.encoder", "autodiff.lstm_cell.tree",
                 "model.step", "training.batch_loss", "decoding.beam_search"):
        assert times.get(name, (0.0, 0))[1] > 0, name
    assert tracer.counts["decoding.sentences"] == 1
    assert 0 < tracer.counts["decoding.useful_steps"] \
        <= tracer.counts["decoding.beam_steps"]


def test_compositions_count_one_per_word_to_word_reduce():
    # each planned batch composes every summary word but its tree's root,
    # so the tracer's total_compositions() count is words minus instances
    tracer = load_tracer().Tracer(treesum)
    tracer.install()
    try:
        model = tiny_model(out_words=("a", "b", "c"))
        examples = [
            treesum.Example(source=["the", "cat"], summary=["a", "b", "c"],
                            heads=[2, 0, 2]),
            treesum.Example(source=["a", "cat"], summary=["c", "a"],
                            heads=[0, 1])]
        treesum.train(model, examples,
                      config=treesum.TrainConfig(batch_size=2, epochs=1))
    finally:
        tracer.restore()
    instances = tracer.counts["training.batch_instances"]
    assert instances == 4   # one training batch and one dev pass
    words = 2 * (3 + 2)
    assert tracer.counts["batching.compositions"] == words - instances
