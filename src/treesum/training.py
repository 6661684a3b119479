"""Teacher-forced optimization of the joint op/word log-likelihood.

The loss of one instance is the negative sum of per-step operation
log-probabilities plus word log-probabilities at GEN steps only.  A batch
loss is the mean over instances.  The gold ops fix every recurrent input,
so the tree, summary and history LSTMs of a batch run as one scan each
(`batching.teacher_forced_rows`).  Optimization is Adam with decoupled
weight decay, element-wise gradient value clipping, shuffled epochs and
early stopping on the dev loss.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import autodiff as ad
from . import batching
from . import corpus as cp
from . import transition as tr
from .model import OP_INDEX, Model, SourceError, check_field_types

logger = logging.getLogger(__name__)

# floor keeps log() finite if a target's mixture mass underflows; the cap
# keeps the word term non-negative
_PROB_FLOOR = 1e-30


class TrainingError(Exception):
    pass


@dataclass
class TrainConfig:
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 5.0
    weight_decay: float = 1e-6
    epochs: int = 10
    seed: int = 13
    patience: int = 3

    def __post_init__(self):
        check_field_types(
            self, TrainingError,
            integers=("batch_size", "epochs", "patience", "seed"),
            reals=("lr", "beta1", "beta2", "eps", "grad_clip",
                   "weight_decay"))
        if self.batch_size < 1:
            raise TrainingError("batch_size must be at least 1")
        # nan < 0 is False, so finiteness is checked on its own
        for name in ("lr", "eps", "grad_clip", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise TrainingError(f"{name} must be finite")
        for name in ("lr", "grad_clip", "weight_decay", "epochs",
                     "patience", "seed"):
            if getattr(self, name) < 0:
                raise TrainingError(f"{name} must not be negative")
        # Adam divides by sqrt(v) + eps, and v is 0 for an unseen row
        if self.eps <= 0:
            raise TrainingError("eps must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise TrainingError("betas must lie in [0, 1)")


_ADAM_BLOCK = 32768


class AdamState:
    """First/second moment accumulators, one pair per parameter, plus the
    scratch of `adam_step`: two rows of one block (_ADAM_BLOCK values, or
    the largest parameter's size if that is smaller), whatever the size
    of the parameters."""

    def __init__(self, params):
        self.m = {p.name: np.zeros_like(p.data, order="C") for p in params}
        self.v = {p.name: np.zeros_like(p.data, order="C") for p in params}
        self.step = 0
        dtypes = {p.data.dtype for p in params}
        if len(dtypes) > 1:
            raise TrainingError(f"parameters of mixed dtypes "
                                f"{sorted(map(str, dtypes))}")
        largest = max((p.data.size for p in params), default=0)
        self.scratch = np.empty((2, min(largest, _ADAM_BLOCK)),
                                dtype=dtypes.pop() if dtypes else np.float32)


def _gradients(params):
    """Each parameter's gradient; one never written by a backward or
    `zero_grad` has none, which is an error rather than a zero update."""
    for p in params:
        if p.grad is None:
            raise TrainingError(f"parameter {p.name!r} has no gradient: run "
                                f"zero_grads or a backward pass first")
    return [p.grad for p in params]


def clip_gradients(params, bound=5.0):
    """Element-wise value clipping into [-bound, bound]; idempotent.

    Returns (global L2 norm before clipping, share of gradient values the
    clipping changed), read in the same pass over each gradient.  A
    parameter without a gradient raises `TrainingError`.
    """
    square = 0.0
    changed = 0
    size = 0
    for g in _gradients(params):
        square += float(np.vdot(g, g))
        changed += int(np.count_nonzero(np.abs(g) > bound))
        size += g.size
        np.clip(g, -bound, bound, out=g)
    return math.sqrt(square), changed / max(1, size)


def adam_step(params, state: AdamState, config: TrainConfig):
    """One Adam update with bias correction; weight decay is applied as a
    decoupled multiplicative shrink before the Adam delta.  A parameter
    without a gradient raises `TrainingError` before anything changes.

    The whole update runs on one block of a parameter at a time, so each
    block of its data, gradient and moments is read while it is in cache,
    and every temporary goes into the two rows of ``state.scratch``.
    Each value is the same expression, in the same order, as with fresh
    parameter-sized arrays, so the update is the same bit for bit, and no
    step allocates a parameter-sized array.
    """
    grads = _gradients(params)
    state.step += 1
    t = state.step
    beta1, beta2, lr, eps = config.beta1, config.beta2, config.lr, config.eps
    shrink = 1.0 - lr * config.weight_decay
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    block = state.scratch.shape[1]
    for p, g in zip(params, grads):
        if not p.data.flags.c_contiguous:   # its flat view must not copy
            p.data = np.ascontiguousarray(p.data)
        data, g = p.data.reshape(-1), g.reshape(-1)
        m, v = state.m[p.name].reshape(-1), state.v[p.name].reshape(-1)
        for start in range(0, g.size, block):
            stop = min(start + block, g.size)
            d, gb, mb, vb = (a[start:stop] for a in (data, g, m, v))
            num, den = state.scratch[:, :stop - start]
            d *= shrink
            mb *= beta1
            mb += np.multiply(1.0 - beta1, gb, out=num)
            vb *= beta2
            np.multiply(1.0 - beta2, gb, out=num)
            vb += np.multiply(num, gb, out=num)
            np.divide(mb, bias1, out=num)
            num *= lr
            np.divide(vb, bias2, out=den)
            np.sqrt(den, out=den)
            den += eps
            num /= den
            d -= num


@dataclass
class StepStats:
    op_loss: float = 0.0
    word_loss: float = 0.0
    ops: int = 0
    op_correct: int = 0
    words: int = 0
    word_correct: int = 0
    unk_targets: int = 0

    def merge(self, other):
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def op_accuracy(self):
        return self.op_correct / self.ops if self.ops else 0.0

    @property
    def word_accuracy(self):
        return self.word_correct / self.words if self.words else 0.0


def sequence_loss(model: Model, src, gold_ops, tree_h, seq_h, hist_h):
    """Negative log-likelihood of one valid gold operation sequence, from
    its decoder states before each op (`batching.teacher_forced_rows`).

    The states of all steps are scored as the rows of one
    `Model.score_rows` pass.  Returns (scalar loss tensor, StepStats).
    """
    gen_rows = [t for t, op in enumerate(gold_ops) if op.kind == tr.GEN]
    logits, word_dist = model.score_rows(tree_h, seq_h, hist_h, src,
                                         gen_rows)
    op_ids = [OP_INDEX[op.kind] for op in gold_ops]
    op_loss = ad.neg(ad.total(ad.pick(ad.log_softmax(logits), op_ids)))
    uids = [src.union_id(gold_ops[t].word) for t in gen_rows]
    word_loss = ad.neg(ad.total(ad.log(ad.clip(
        ad.pick(word_dist, uids), _PROB_FLOOR, 1.0))))
    stats = StepStats(
        op_loss=op_loss.item(), word_loss=word_loss.item(),
        ops=len(op_ids), words=len(uids),
        op_correct=int((logits.data.argmax(axis=1) == op_ids).sum()),
        word_correct=int((word_dist.data.argmax(axis=1) == uids).sum()))
    for t, uid in zip(gen_rows, uids):
        if uid == src.vocab.unk_id and gold_ops[t].word != cp.UNK:
            stats.unk_targets += 1
            logger.debug("gold word %r outside vocabulary and source; "
                         "scoring UNK", gold_ops[t].word)
    return ad.add(op_loss, word_loss), stats


def batch_loss(model: Model, instances):
    """Mean per-instance loss over a batch of (source tokens, gold ops).

    The sources are encoded in lockstep (`Model.encode`), every vector the
    gold sequences push is a row of one table built level by level, and
    each recurrence runs as one scan over the rows of every instance
    (`batching.teacher_forced_rows`); results match the per-step fold of
    `Model.step` that decoding runs.  A gold sequence that
    `transition.execute` rejects, or a source the encoder rejects, raises
    `TrainingError` naming its batch instance.
    """
    if not instances:
        raise TrainingError("empty batch")
    sequences = [ops for _, ops in instances]
    for i, ops in enumerate(sequences):
        try:
            tr.execute(ops)
        except tr.TransitionError as e:
            raise TrainingError(
                f"batch instance {i}: gold sequence of {len(ops)} ops does "
                f"not terminate in one tree: {e}") from e
    try:
        contexts = model.encode([tokens for tokens, _ in instances])
    except SourceError as e:
        raise TrainingError(f"batch instance {e.index}: {e.reason}") from e
    batch_plan = batching.plan(sequences)
    table = batching.batched_compose(batch_plan, model)
    total = None
    stats = StepStats()
    rows = batching.teacher_forced_rows(model, sequences, table, batch_plan)
    for ops, src, states in zip(sequences, contexts, rows):
        loss, inst_stats = sequence_loss(model, src, ops, *states)
        stats.merge(inst_stats)
        total = loss if total is None else ad.add(total, loss)
    mean = ad.mul(total, 1.0 / len(instances))
    return mean, stats


def evaluate(model: Model, instances, batch_size):
    """Forward-only mean loss and teacher-forced accuracies.

    Scores through `batch_loss` in chunks of ``batch_size``, so dev and
    training losses come from one code path and at most one chunk of
    encoded sources is held at a time.
    """
    stats = StepStats()
    total = 0.0
    for start in range(0, len(instances), batch_size):
        chunk = instances[start:start + batch_size]
        loss, chunk_stats = batch_loss(model, chunk)
        total += loss.item() * len(chunk)
        stats.merge(chunk_stats)
    return total / max(1, len(instances)), stats


def _as_instances(examples):
    return [(ex.source, tuple(cp.linearize(ex))) for ex in examples]


def train(model: Model, train_examples, dev_examples=None,
          config: TrainConfig | None = None, checkpoint_path=None,
          log=None, stop=None):
    """Shuffled-epoch training loop with early stopping.

    Writes one tab-separated log line per epoch (``epoch  train_loss
    dev_loss  dev_op_acc  dev_word_acc  wall_s  inst_per_s  grad_norm
    clip_share  unk_targets``), keeps the parameters of the best dev epoch,
    and returns the history, one dict per epoch with the same keys.
    ``wall_s`` is the epoch's wall time including the dev pass;
    ``inst_per_s`` counts training instances per second of the training
    batches; ``grad_norm`` (the global L2 norm before clipping) and
    ``clip_share`` (the share of gradient values clipping changed) are
    means over the epoch's batches; ``unk_targets`` counts gold words
    scored as UNK.  ``stop`` optionally ends training early when it
    returns True for an epoch row; it is called once for each epoch that
    does not stop early on patience.

    With ``checkpoint_path``, the model is saved after each improving
    epoch (every loss is finite, so epoch 1 improves on the start), or
    before a run of no epochs; a failed epoch 1 leaves no file.  The best
    weights are copied only while a later epoch can still change them,
    not after one that ends the run (the last, or one that ``stop`` or
    patience ends), and copied back only after a worse final epoch.
    """
    config = config or TrainConfig()
    if not train_examples:
        raise TrainingError("empty training corpus")
    train_instances = _as_instances(train_examples)
    dev_instances = (_as_instances(dev_examples)
                     if dev_examples else train_instances)

    params = model.parameters()
    adam = AdamState(params)
    rng = np.random.default_rng(config.seed)
    history = []
    best_loss = math.inf
    best_params = None   # a copy of the best weights, once a later epoch runs
    if checkpoint_path is not None and config.epochs == 0:
        model.save(checkpoint_path)
    stale = 0
    for epoch in range(1, config.epochs + 1):
        started = perf_counter()
        order = rng.permutation(len(train_instances))
        epoch_loss = 0.0
        seen = 0
        unk_targets = 0
        norm_sum = 0.0
        clip_sum = 0.0
        batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_instances[i]
                     for i in order[start:start + config.batch_size]]
            ad.zero_grads(params)
            with ad.Tape() as tape:
                loss, stats = batch_loss(model, batch)
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingError(
                        f"non-finite loss {value} in epoch {epoch} at "
                        f"batch offset {start}")
                tape.backward(loss)
            grad_norm, clip_share = clip_gradients(params, config.grad_clip)
            adam_step(params, adam, config)
            epoch_loss += value * len(batch)
            seen += len(batch)
            unk_targets += stats.unk_targets
            norm_sum += grad_norm
            clip_sum += clip_share
            batches += 1
        train_s = perf_counter() - started
        train_loss = epoch_loss / seen
        dev_loss, dev_stats = evaluate(model, dev_instances,
                                       config.batch_size)
        row = {"epoch": epoch, "train_loss": train_loss,
               "dev_loss": dev_loss, "dev_op_acc": dev_stats.op_accuracy,
               "dev_word_acc": dev_stats.word_accuracy,
               "wall_s": perf_counter() - started,
               "inst_per_s": seen / train_s,
               "grad_norm": norm_sum / batches,
               "clip_share": clip_sum / batches,
               "unk_targets": unk_targets}
        history.append(row)
        if log is not None:
            log("%d\t%.6f\t%.6f\t%.4f\t%.4f\t%.3f\t%.2f\t%.6g\t%.6f\t%d"
                % tuple(row.values()))
        improved = dev_loss < best_loss
        if improved:
            best_loss, best_params, stale = dev_loss, None, 0
            if checkpoint_path is not None:
                model.save(checkpoint_path)
        else:
            stale += 1
            if stale >= config.patience:
                logger.info("early stop after epoch %d", epoch)
                break
        if stop is not None and stop(row):
            logger.info("stop condition met after epoch %d", epoch)
            break
        if improved and epoch < config.epochs:
            best_params = [p.data.copy() for p in params]
    if best_params is not None:   # a worse epoch ran after the best one
        for p, data in zip(params, best_params):
            p.data = data
    return history
