"""Per-layer tracing by wrapping the package's functions from outside.

`Tracer.install` replaces each traced function at the attribute its
callers look up (module attributes such as ``autodiff.lstm_cell`` and
class attributes such as ``Model.step``) with a wrapper that records a
span: name, start, end and the span open when it began.  Spans stay in
memory; self time is computed from them afterwards.  `Tracer.restore`
puts every original back, so untraced runs see the unwrapped library.

Primitives are wrapped with counters only, never timed: they run tens of
thousands of times per batch and a clock read each would distort them.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import numpy as np

PRIMITIVES = ("add", "sub", "neg", "mul", "matmul", "concat", "narrow",
              "reshape", "rows", "row", "stack_rows", "tanh", "sigmoid",
              "softmax", "log_softmax", "log", "clip", "total", "pick")


def _cell_label(args, kwargs):
    params = args[3] if len(args) > 3 else kwargs["params"]
    prefix = params.w.name.split(".")[0]
    return "autodiff.lstm_cell." + prefix.removesuffix("_cell")


def span_targets(ts):
    """(owner, attribute, span name) for every timed function.

    ``ts`` is the imported ``treesum`` package.  A name may be a callable
    of the call's arguments.  ``treesum.train`` and ``treesum.beam_search``
    are the package-level names the benchmark itself calls; the CLI calls
    the module attributes.
    """
    ad, m, b = ts.autodiff, ts.model.Model, ts.batching
    tr, dec, met = ts.transition, ts.decoding, ts.metrics
    return [
        (ad, "lstm_cell", _cell_label),
        (ad.Tape, "backward", "autodiff.backward"),
        (ad, "save_checkpoint", "autodiff.checkpoint"),
        (ad, "load_checkpoint", "autodiff.checkpoint"),
        (m, "encode", "model.encode"),
        (m, "prepare_source", "model.prepare_source"),
        (m, "step", "model.step"),
        (m, "attend", "model.attend"),
        (m, "op_scores", "model.op_scores"),
        (m, "predict_word", "model.predict_word"),
        (m, "joint_step_distribution", "model.joint_step_distribution"),
        (m, "compose", "model.compose"),
        (b, "plan", "batching.plan"),
        (b, "batched_compose", "batching.batched_compose"),
        (ts.training, "train", "training.train"),
        (ts, "train", "training.train"),
        (ts.training, "batch_loss", "training.batch_loss"),
        (ts.training, "sequence_loss", "training.sequence_loss"),
        (ts.training, "adam_step", "training.adam_step"),
        (ts.training, "clip_gradients", "training.clip_gradients"),
        (ts.training, "evaluate", "training.evaluate"),
        (dec, "beam_search", "decoding.beam_search"),
        (ts, "beam_search", "decoding.beam_search"),
        (dec, "force_complete", "decoding.force_complete"),
        (tr, "valid_ops", "transition.valid_ops"),
        (tr, "apply_op", "transition.apply_op"),
        (tr, "oracle", "transition.oracle"),
        (met, "rouge_n", "metrics.rouge"),
        (met, "rouge_l", "metrics.rouge"),
        (met, "relation_matches", "metrics.relation_matches"),
        (met, "load_embeddings", "metrics.load_embeddings"),
        (ts.corpus, "load_corpus", "corpus.load_corpus"),
        (ts.corpus, "build_vocab", "corpus.build_vocab"),
        (ts.cli, "cmd_oracle", "cli.oracle"),
        (ts.cli, "cmd_train", "cli.train"),
        (ts.cli, "cmd_decode", "cli.decode"),
        (ts.cli, "cmd_eval", "cli.eval"),
    ]


def count_targets(ts):
    """(owner, attribute, counter name) for count-only wrappers."""
    targets = [(ts.autodiff, p, "autodiff.prim") for p in PRIMITIVES]
    targets.append((ts.metrics.EmbeddingTable, "cosine", "metrics.cosine"))
    return targets


class Tracer:
    """Span recorder plus the counters the layer ratios need."""

    def __init__(self, ts):
        self.ts = ts
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []
        self.counts = Counter()
        self._patches = []
        self._beam = None        # (produced states, parent ids) in a search

    # -- installation ---------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in span_targets(self.ts):
            self._patch(owner, attr, self._span(vars(owner)[attr], name))
        for owner, attr, name in count_targets(self.ts):
            self._patch(owner, attr, self._counter(vars(owner)[attr], name))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every original back; returns the number restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = len(self._patches)
        self._patches = []
        return restored

    # -- wrappers -------------------------------------------------------

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, fn, name):
        label = name if callable(name) else (lambda a, k: name)
        enter = getattr(self, "_enter_" + _hook(name), None)
        leave = getattr(self, "_leave_" + _hook(name), None)
        names, starts, ends = self.names, self.starts, self.ends
        parents, open_ = self.parents, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = enter(args) if enter is not None else None
            index = len(names)
            names.append(label(args, kwargs))
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                open_.pop()
            if leave is not None:
                leave(token, args, result)
            return result
        return wrapper

    # -- hooks: counts measured where the work happens -------------------

    def _enter_autodiff_backward(self, args):
        self.counts["autodiff.tape_nodes"] += len(args[0].nodes)
        self.counts["autodiff.backward_calls"] += 1

    def _leave_batching_plan(self, token, args, result):
        self.counts["batching.compositions"] += result.total_compositions()

    def _enter_training_batch_loss(self, args):
        return self.counts["autodiff.prim"]

    def _leave_training_batch_loss(self, token, args, result):
        self.counts["training.batch_prims"] += \
            self.counts["autodiff.prim"] - token
        self.counts["training.batch_instances"] += len(args[1])

    def _leave_model_step(self, token, args, result):
        if self._beam is not None:
            produced, parent_ids = self._beam
            parent_ids.add(id(args[1]))
            produced.append(result)

    def _enter_decoding_beam_search(self, args):
        self._beam = ([], set())

    def _leave_decoding_beam_search(self, token, args, result):
        # produced states are held until here so no id is reused
        produced, parent_ids = self._beam
        parent_ids.add(id(result.state))
        self.counts["decoding.useful_steps"] += sum(
            id(state) in parent_ids for state in produced)
        self.counts["decoding.beam_steps"] += len(produced)
        self.counts["decoding.sentences"] += 1
        self._beam = None

    # -- results --------------------------------------------------------

    def layer_times(self):
        """name -> (self seconds, calls) over every recorded span."""
        if not self.names:
            return {}
        starts = np.array(self.starts)
        duration = np.array(self.ends) - starts
        parents = np.array(self.parents)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested],
                            minlength=len(duration))
        own = duration - child
        labels, ids = np.unique(np.array(self.names), return_inverse=True)
        busy = np.bincount(ids, weights=own, minlength=len(labels))
        calls = np.bincount(ids, minlength=len(labels))
        return {str(name): (float(busy[i]), int(calls[i]))
                for i, name in enumerate(labels)}

    def write_spans(self, path):
        """Spans as tab-separated rows: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("%s\t%.9f\t%.9f\t%d\n" % row)


def _hook(name):
    return name.replace(".", "_") if isinstance(name, str) else ""
