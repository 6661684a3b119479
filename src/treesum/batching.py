"""A teacher-forcing mini-batch's table and the decoder states it feeds.

Walking each valid gold sequence's stack once lays out one table of every
vector the batch pushes: ``root_embed`` at row 0, each GEN's word in
batch order, then the compositions by level.  A word is at level 0, and a
word-to-word reduce composes its head with its dependent at 1 + the
higher level of the two, so all compositions of a level, across the whole
batch, run as one batched call.  Each reduce composes the rows its own
gold sequence reduces, eager or not, so results match step-by-step
execution.  The final reduce onto R is not planned: nothing reads what it
would push.  The same walk gives each instance's tree-LSTM inputs: the
row of R and of each push but the last op's, each continuing the row
below the top of the stack after its op pops.  `teacher_forced_rows`
then runs the tree, summary and history LSTMs over the whole batch, one
scan each, and reads back every instance's states before each op.
Incremental decoding bypasses this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import transition as tr
from .model import OP_INDEX


@dataclass
class BatchPlan:
    words: list     # the word of table rows 1, 2, ...: every GEN, in order
    levels: list    # per level, ascending: (head rows, dependent rows)
    pushed: list    # per instance: the table row of R, then of each push
    parents: list   # per instance: the tree-LSTM parent of each pushed row

    def total_compositions(self):
        return sum(len(heads) for heads, _ in self.levels)


def plan(sequences) -> BatchPlan:
    """Walk each valid gold sequence's stack once: lay out the table, put
    every word-to-word reduce on its level, and list each instance's
    pushed rows with their tree-LSTM parents."""
    words, levels, pushed, parents = [], [], [], []
    for ops in sequences:
        # a vector is (level, index in level) until the table is laid out;
        # the words are level 0, and R sits just before the first word
        stack = [(0, (0, -1))]   # (tree row, vector) per element, R first
        vectors, tree_parents = [(0, -1)], [-1]
        for t, op in enumerate(ops[:-1]):   # the last op is the final reduce
            if op.kind == tr.GEN:
                vec = (0, len(words))
                words.append(op.word)
            else:
                (_, top), (_, second) = stack.pop(), stack.pop()
                head, dep = ((top, second) if op.kind == tr.REDUCE_L
                             else (second, top))
                level = 1 + max(head[0], dep[0])
                if level > len(levels):
                    levels.append(([], []))
                heads, deps = levels[level - 1]
                vec = (level, len(heads))
                heads.append(head)
                deps.append(dep)
            tree_parents.append(stack[-1][0])
            stack.append((t + 1, vec))
            vectors.append(vec)
        pushed.append(vectors)
        parents.append(tree_parents)
    first = [1, 1 + len(words)]   # the table row of each level's first vector
    for heads, _ in levels:
        first.append(first[-1] + len(heads))

    def table_rows(vectors):
        return [first[level] + j for level, j in vectors]
    return BatchPlan(
        words, [(table_rows(h), table_rows(d)) for h, d in levels],
        [table_rows(vectors) for vectors in pushed], parents)


def batched_compose(batch_plan: BatchPlan, model):
    """The planned table, as an (rows, embed) tensor.

    The words are one gather of ``model.out_embed``; each level gathers
    its head and dependent rows from the table so far, runs them through
    one row-batched ``model.compose`` call and appends the result.
    """
    e = model.config.embed_size
    ids = [model.output_vocab.id(word) for word in batch_plan.words]
    table = ad.concat([ad.reshape(model.root_embed, (1, e)),
                       ad.rows(model.out_embed, ids)])
    for heads, deps in batch_plan.levels:
        table = ad.concat([table, model.compose(ad.rows(table, heads),
                                                ad.rows(table, deps))])
    return table


def teacher_forced_rows(model, sequences, table, batch_plan):
    """Decoder states before each op of every gold sequence of a batch.

    Returns one (tree_h, seq_h, hist_h) per sequence, each (len(ops),
    hidden), whose row t is the state `Model.step` reaches after
    ``ops[:t]``.  Each recurrence is one `_scan_rows` over its inputs of
    the whole batch, read after the rows it takes before op t: the tree
    the rows `plan` pushed (R, then op t's push), t + 1 of them; the
    summary the GEN words (table rows 1..W), one per GEN before op t;
    the history the kind of each op but the last, t of them.
    """
    zeros = model._zeros(model.config.hidden_size)
    steps = [np.arange(len(ops)) for ops in sequences]
    gens = [np.cumsum([0] + [op.kind == tr.GEN for op in ops[:-1]])
            for ops in sequences]
    kinds = [OP_INDEX[op.kind] for ops in sequences for op in ops[:-1]]
    return list(zip(
        _scan_rows(ad.rows(table, np.concatenate(batch_plan.pushed)),
                   model.tree_cell, zeros, zeros, batch_plan.parents,
                   [t + 1 for t in steps]),
        _scan_rows(ad.narrow(table, 0, 1, 1 + len(batch_plan.words)),
                   model.seq_cell, model.seq_init_h, model.seq_init_c,
                   [np.arange(g[-1]) - 1 for g in gens], gens),
        _scan_rows(ad.rows(model.op_embed, kinds),
                   model.hist_cell, model.hist_init_h, model.hist_init_c,
                   [t[:-1] - 1 for t in steps], steps)))


def _scan_rows(x, cell, h0, c0, parents, before):
    """One `lstm_scan` of ``cell`` over the rows of ``x``, one sequence's
    after another's: row j of sequence i continues its row
    ``parents[i][j]``, or (h0, c0) at -1.  Returns, per sequence i, the
    rows of its states after its first ``before[i]`` rows, h0 after none.
    """
    counts = [len(p) for p in parents]
    starts = np.cumsum(counts) - counts
    local = np.concatenate(parents)
    states = ad.lstm_scan(ad.lstm_input(x, cell), np.where(
        local < 0, -1, local + np.repeat(starts, counts)), h0, c0, cell)
    table = ad.concat([ad.reshape(h0, (1, cell.hidden_size)), states])
    return [ad.rows(table, np.where(b > 0, start + b, 0))
            for start, b in zip(starts.tolist(), before)]
