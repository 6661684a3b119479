"""The one walk of a teacher-forcing mini-batch's gold stacks.

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
below the top of the stack after its op pops.  Incremental decoding
bypasses this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from . import transition as tr


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
