"""Level-grouped composition work across a teacher-forcing mini-batch.

Every word-to-word reduce of a gold sequence composes its head's current
representation with its dependent's.  Walking each sequence once with a
stack gives every such reduce a level: a GEN pushes its word at level 0,
and a reduce runs at 1 + the higher level of its two inputs.  All
compositions of equal level across the whole batch run as one batched
matrix call.  Each composition is keyed by (instance, op index), so the
fold follows the order the gold sequence itself reduces in, eager or not,
and results match step-by-step execution.  The final reduce onto R is not
planned: nothing reads the vector it would push.

Teacher forcing knows the full sequences up front, which is why the whole
plan can be built before the batch runs; incremental decoding bypasses
this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from . import transition as tr


@dataclass
class BatchPlan:
    # per level, ascending: (key, head key, dependent key) per composition
    levels: list

    def total_compositions(self):
        return sum(len(level) for level in self.levels)


def plan(sequences) -> BatchPlan:
    """Assign every word-to-word reduce of every valid gold sequence to
    its level."""
    levels = []
    for i, ops in enumerate(sequences):
        stack = []   # (key, level) per word-rooted tree; R is left out
        for t, op in enumerate(ops):
            if op.kind == tr.GEN:
                stack.append(((i, t), 0))
                continue
            if len(stack) < 2:   # the final reduce onto R
                continue
            top, second = stack.pop(), stack.pop()
            head, dep = ((top, second) if op.kind == tr.REDUCE_L
                         else (second, top))
            level = 1 + max(head[1], dep[1])
            if level > len(levels):
                levels.append([])
            levels[level - 1].append(((i, t), head[0], dep[0]))
            stack.append(((i, t), level))
    return BatchPlan(levels=levels)


def batched_compose(batch_plan: BatchPlan, leaf_reps, compose):
    """Run every level as one batched ``compose`` call.

    ``leaf_reps`` maps (instance, op index) of each GEN to the word's
    embedding; ``compose`` is the two-argument head/dependent merge and
    must accept row-stacked matrices.  Returns (instance, op index) ->
    composed vector for every planned reduce.
    """
    reps = dict(leaf_reps)
    for level in batch_plan.levels:
        merged = compose(ad.stack_rows([reps[head] for _, head, _ in level]),
                         ad.stack_rows([reps[dep] for _, _, dep in level]))
        for r, (key, _, _) in enumerate(level):
            reps[key] = ad.row(merged, r)
    return {key: reps[key]
            for level in batch_plan.levels for key, _, _ in level}
