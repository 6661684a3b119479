"""What the benchmark measures: workloads, metrics and their bounds.

`BENCHMARK.json` at the repository root is generated from this module
(``python3 perfbench/run.py --record``) and checked against it by the
self-tests, so the two cannot drift apart.

Every workload reports every end-to-end metric.  ``job_s`` is the wall
time of one pass over the workload's fixed job, whose size is stated in
its reason; the per-stage figures the job is made of (seconds per epoch,
sentences or records per second) are printed to stderr and written to
the run's ``result.json``.
"""

from __future__ import annotations

RUN_SECONDS = 22
SETUP_REPEATS = 3
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

WORKLOADS = [
    ("paper_train",
     "one treesum.train epoch at paper shape (H=E=256, 10k/3k vocab, "
     "100-token sources, 20-40-word trees), 8 pairs in one batch plus 2 dev: "
     "GEMMs, tape, backward, Adam"),
    ("paper_decode_k1",
     "treesum.beam_search K=1 on a length-pinned paper-shape model over 8 "
     "sources, max_words 20-40: no wasted steps, ~40% encoder; bypasses "
     "beam bookkeeping"),
    ("paper_decode_k10",
     "treesum.beam_search K=10 on the same pinned model over 2 sources "
     "(max_words 20 and 40): most steps are discarded, so beam changes "
     "show here and not at K=1"),
    ("cli_pipeline",
     "treesum.cli.run oracle, 3-epoch train, K=10 decode of 10 sources at "
     "H=E=64 on the 50-pair toy corpus, eval of 10 paper-shaped records: "
     "per-primitive overhead, checkpoints, I/O"),
]

END_TO_END = [
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Which job_s each layer is expected to move:
#   lstm_cell.*, model.step/attend/op_scores/predict_word, transition.*:
#       every workload; lstm_cell.encoder and model.encode most at K=1
#   autodiff.backward, training.*, batching.*, prims_per_inst:
#       paper_train and cli_pipeline (tape_nodes_per_batch also moves
#       paper_train's peak_rss_mb)
#   decoding.*, model.joint_step_distribution, useful_step_ratio:
#       paper_decode_k10 much more than paper_decode_k1
#   metrics.*, corpus.*, cli.*, autodiff.checkpoint: cli_pipeline
#
# Self time of each span name as a share of the traced job wall time.
# Shares, not seconds, so a layer a workload never runs reads 0 of its
# job rather than a constant zero time.
SHARES = [
    "autodiff.lstm_cell.encoder", "autodiff.lstm_cell.tree",
    "autodiff.lstm_cell.seq", "autodiff.lstm_cell.hist",
    "autodiff.backward", "autodiff.checkpoint",
    "model.encode", "model.prepare_source", "model.step", "model.attend",
    "model.op_scores", "model.predict_word",
    "model.joint_step_distribution", "model.compose",
    "batching.plan", "batching.batched_compose",
    "training.sequence_loss", "training.batch_loss", "training.adam_step",
    "training.clip_gradients", "training.evaluate",
    "decoding.beam_search",
    "transition.valid_ops", "transition.apply_op", "transition.oracle",
    "metrics.rouge", "metrics.relation_matches", "metrics.load_embeddings",
    "corpus.load_corpus", "corpus.build_vocab",
    "cli.train", "cli.decode", "cli.eval",
]

# Calls per job pass.
CALLS = [
    "autodiff.lstm_cell", "model.encode", "model.step", "model.compose",
    "decoding.force_complete", "transition.valid_ops", "transition.apply_op",
    "metrics.relation_matches", "metrics.cosine",
]

PER_LAYER = (
    [{"name": "autodiff.prims_per_inst", "unit": "count", "better": "lower"},
     {"name": "autodiff.tape_nodes_per_batch", "unit": "count",
      "better": "lower"},
     {"name": "batching.compositions", "unit": "count", "better": "lower"},
     {"name": "decoding.step_calls_per_sent", "unit": "count",
      "better": "lower"},
     {"name": "decoding.useful_step_ratio", "unit": "ratio",
      "better": "higher"},
     {"name": "trace.job_s", "unit": "s", "better": "lower"},
     {"name": "trace.overhead_share", "unit": "fraction", "better": "lower"},
     {"name": "trace.spans", "unit": "count", "better": "lower"}]
    + [{"name": name + ".busy_share", "unit": "fraction", "better": "lower"}
       for name in SHARES]
    + [{"name": name + ".calls", "unit": "count", "better": "lower"}
       for name in CALLS]
)


def benchmark_record():
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(times, counts, passes, traced_total_s, traced_s,
                 untraced_s):
    """Per-layer metric values from a traced run.

    ``times`` maps span name -> (self seconds, calls) and ``counts`` holds
    the tracer's counters, both summed over ``passes`` traced job passes
    that took ``traced_total_s`` in all.  Shares are of that total; calls,
    compositions and spans are per job pass.  ``traced_s`` and
    ``untraced_s`` are the median job times with tracing on and off.
    """
    def calls(name):
        if name == "autodiff.lstm_cell":
            return sum(c for n, (_, c) in times.items()
                       if n.startswith(name + "."))
        return times.get(name, (0.0, 0))[1] or counts.get(name, 0)

    values = {
        "autodiff.prims_per_inst": _ratio(
            counts.get("training.batch_prims", 0),
            counts.get("training.batch_instances", 0)),
        "autodiff.tape_nodes_per_batch": _ratio(
            counts.get("autodiff.tape_nodes", 0),
            counts.get("autodiff.backward_calls", 0)),
        "batching.compositions": _ratio(
            counts.get("batching.compositions", 0), passes),
        "decoding.step_calls_per_sent": _ratio(
            counts.get("decoding.beam_steps", 0),
            counts.get("decoding.sentences", 0)),
        "decoding.useful_step_ratio": _ratio(
            counts.get("decoding.useful_steps", 0),
            counts.get("decoding.beam_steps", 0)),
        "trace.job_s": traced_s,
        "trace.overhead_share": _ratio(traced_s - untraced_s, untraced_s),
        "trace.spans": _ratio(sum(c for _, c in times.values()), passes),
    }
    for name in SHARES:
        values[name + ".busy_share"] = _ratio(
            times.get(name, (0.0, 0))[0], traced_total_s)
    for name in CALLS:
        values[name + ".calls"] = _ratio(calls(name), passes)
    return values
