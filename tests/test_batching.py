"""Level plan construction and batched-composition equivalence."""

import numpy as np

from treesum import autodiff as ad
from treesum import batching
from treesum import transition as tr
from helpers import random_gold_ops, seeded_rng
from test_model import tiny_model


def chain_ops(depth):
    """Eager ops of depth+1 words where each word heads its left
    neighbour: every reduce composes onto the previous one."""
    n = depth + 1
    heads = tuple(range(2, n + 1)) + (0,)
    return tuple(tr.oracle(tr.DependencyTree(
        words=tuple("w%d" % i for i in range(n)), heads=heads)))


def word_reduces(instance, ops):
    """Keys of the word-to-word reduces: every reduce but the last."""
    return {(instance, t) for t, op in enumerate(ops[:-1])
            if op.kind != tr.GEN}


def sequential_reps(model, instance, ops, leaf):
    """Per-op fold with a stack, composing as `Model.step` does; the
    independent reference.  Returns (instance, op index) -> vector for
    every word-to-word reduce."""
    stack = []
    reps = {}
    for t, op in enumerate(ops):
        if op.kind == tr.GEN:
            stack.append(leaf[(instance, t)])
        elif len(stack) >= 2:
            top, second = stack.pop(), stack.pop()
            vec = (model.compose(top, second) if op.kind == tr.REDUCE_L
                   else model.compose(second, top))
            reps[(instance, t)] = vec
            stack.append(vec)
    return reps


def leaf_embeddings(model, sequences):
    return {(i, t): model.word_embedding(op.word)
            for i, ops in enumerate(sequences)
            for t, op in enumerate(ops) if op.kind == tr.GEN}


def random_sequences(rng, count, low, high):
    return [random_gold_ops(rng, int(rng.integers(low, high)))
            for _ in range(count)]


def table_reps(batch_plan, table, keys):
    """The table row each planned (instance, op index) pushed, as vectors
    gathered in one node."""
    return ad.rows(table, [batch_plan.pushed[i][t + 1] for i, t in keys])


def level_starts(batch_plan):
    """The table row of each level's first composition, ascending."""
    starts = [1 + len(batch_plan.words)]
    for heads, _ in batch_plan.levels:
        starts.append(starts[-1] + len(heads))
    return starts


class TestPlan:
    def test_two_chains_group_shapes(self):
        batch_plan = batching.plan([chain_ops(2), chain_ops(4)])
        assert [len(heads) for heads, _ in batch_plan.levels] == [2, 2, 1, 1]

    def test_children_precede_parents(self):
        # each reduce's inputs sit at lower levels than the reduce
        rng = seeded_rng(51)
        batch_plan = batching.plan(random_sequences(rng, 6, 2, 10))
        starts = level_starts(batch_plan)
        level_of = {}
        for d, (heads, deps) in enumerate(batch_plan.levels, start=1):
            assert len(heads) == len(deps)
            for head, dep in zip(heads, deps):
                assert level_of.get(head, 0) < d
                assert level_of.get(dep, 0) < d
            level_of.update({r: d for r in range(starts[d - 1], starts[d])})

    def test_one_word_trees_give_empty_plan(self):
        batch_plan = batching.plan([(tr.gen("x"), tr.RR)] * 3)
        assert batch_plan.levels == []
        assert batch_plan.total_compositions() == 0
        assert batch_plan.words == ["x"] * 3
        assert batch_plan.pushed == [[0, 1], [0, 2], [0, 3]]
        assert batch_plan.parents == [[-1, 0]] * 3

    def test_each_node_in_exactly_one_group(self):
        # every GEN pushes its own word row, every word-to-word reduce its
        # own composition row, and every row is pushed exactly once
        rng = seeded_rng(52)
        sequences = [random_gold_ops(rng, 8) for _ in range(4)]
        batch_plan = batching.plan(sequences)
        seen = []
        for i, ops in enumerate(sequences):
            assert batch_plan.pushed[i][0] == 0
            for t, op in enumerate(ops[:-1]):
                row = batch_plan.pushed[i][t + 1]
                if op.kind == tr.GEN:
                    assert batch_plan.words[row - 1] == op.word
                seen.append(row)
        assert sorted(seen) == list(range(1, level_starts(batch_plan)[-1]))
        composed = {batch_plan.pushed[i][t + 1]
                    for i, ops in enumerate(sequences)
                    for _, t in word_reduces(i, ops)}
        assert composed == set(range(1 + len(batch_plan.words),
                                     level_starts(batch_plan)[-1]))

    def test_parents_follow_the_stack(self):
        # the tree-LSTM input of op t continues the row of the element
        # below the top of the stack once op t has popped
        rng = seeded_rng(57)
        sequences = random_sequences(rng, 6, 1, 9)
        batch_plan = batching.plan(sequences)
        for ops, parents in zip(sequences, batch_plan.parents):
            stack = [0]
            assert parents[0] == -1 and len(parents) == len(ops)
            for t, op in enumerate(ops[:-1]):
                if op.kind != tr.GEN:
                    del stack[-2:]
                assert parents[t + 1] == stack[-1]
                stack.append(t + 1)

    def test_work_conservation(self):
        # one composition per word-to-word reduce, independent of batching
        rng = seeded_rng(53)
        sequences = random_sequences(rng, 8, 1, 11)
        batch_plan = batching.plan(sequences)
        assert batch_plan.total_compositions() == \
            sum(len(tr.extract_summary(ops)) - 1 for ops in sequences)


class TestBatchedCompose:
    def test_table_holds_root_and_words(self):
        m = tiny_model(out_words=tuple("w%d" % i for i in range(8)))
        ops = chain_ops(3)
        batch_plan = batching.plan([ops])
        table = batching.batched_compose(batch_plan, m)
        assert table.shape == (level_starts(batch_plan)[-1],
                               m.config.embed_size)
        np.testing.assert_array_equal(table.data[0], m.root_embed.data)
        for r, word in enumerate(batch_plan.words, start=1):
            np.testing.assert_array_equal(table.data[r],
                                          m.word_embedding(word).data)

    def test_single_instance_equals_sequential_chain(self):
        m = tiny_model(out_words=tuple("w%d" % i for i in range(8)))
        ops = chain_ops(3)
        batch_plan = batching.plan([ops])
        table = batching.batched_compose(batch_plan, m)
        sequential = sequential_reps(m, 0, ops, leaf_embeddings(m, [ops]))
        assert set(sequential) == word_reduces(0, ops)
        keys = sorted(sequential)
        batched = table_reps(batch_plan, table, keys).data
        for r, key in enumerate(keys):
            np.testing.assert_allclose(batched[r], sequential[key].data,
                                       atol=1e-12)

    def test_random_batch_matches_sequential(self):
        m = tiny_model(out_words=tuple("w%d" % i for i in range(8)))
        rng = seeded_rng(54)
        sequences = random_sequences(rng, 8, 1, 9)
        leaf = leaf_embeddings(m, sequences)
        batch_plan = batching.plan(sequences)
        table = batching.batched_compose(batch_plan, m)
        worst = 0.0
        for i, ops in enumerate(sequences):
            sequential = sequential_reps(m, i, ops, leaf)
            for key, val in sequential.items():
                got = table.data[batch_plan.pushed[i][key[1] + 1]]
                worst = max(worst, np.abs(got - val.data).max())
        assert worst < 1e-6

    def test_gradients_match_sequential(self):
        m = tiny_model(out_words=tuple("w%d" % i for i in range(8)))
        rng = seeded_rng(55)
        sequences = random_sequences(rng, 8, 2, 8)
        params = [m.compose_w, m.compose_b, m.out_embed]
        # the op before the final RR builds the finished tree: the last
        # word-to-word reduce, or the GEN of a one-word summary
        finals = [(i, len(ops) - 2) for i, ops in enumerate(sequences)]

        def final_reps_loss(use_batched):
            if use_batched:
                batch_plan = batching.plan(sequences)
                vecs = table_reps(batch_plan,
                                  batching.batched_compose(batch_plan, m),
                                  finals)
                return ad.total(ad.mul(vecs, vecs))
            leaf = leaf_embeddings(m, sequences)
            reps = dict(leaf)
            for i, ops in enumerate(sequences):
                reps.update(sequential_reps(m, i, ops, leaf))
            acc = None
            for key in finals:
                term = ad.total(ad.mul(reps[key], reps[key]))
                acc = term if acc is None else ad.add(acc, term)
            return acc

        grads = {}
        for mode in (True, False):
            ad.zero_grads(params)
            with ad.Tape() as tape:
                tape.backward(final_reps_loss(mode))
            grads[mode] = {p.name: p.grad.copy() for p in params}
        for name in grads[True]:
            assert np.abs(grads[True][name] - grads[False][name]).max() < 1e-5

    def test_permuting_instances_permutes_outputs(self):
        m = tiny_model(out_words=tuple("w%d" % i for i in range(8)))
        rng = seeded_rng(56)
        sequences = [random_gold_ops(rng, 6) for _ in range(4)]
        perm = [2, 0, 3, 1]
        direct_plan = batching.plan(sequences)
        direct = batching.batched_compose(direct_plan, m)
        shuffled_plan = batching.plan([sequences[p] for p in perm])
        shuffled = batching.batched_compose(shuffled_plan, m)
        for new_i, old_i in enumerate(perm):
            for _, t in word_reduces(old_i, sequences[old_i]):
                np.testing.assert_allclose(
                    shuffled.data[shuffled_plan.pushed[new_i][t + 1]],
                    direct.data[direct_plan.pushed[old_i][t + 1]],
                    atol=1e-12)
