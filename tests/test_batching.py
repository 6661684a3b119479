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


class TestPlan:
    def test_two_chains_group_shapes(self):
        batch_plan = batching.plan([chain_ops(2), chain_ops(4)])
        assert [len(level) for level in batch_plan.levels] == [2, 2, 1, 1]

    def test_children_precede_parents(self):
        # each reduce's inputs sit at lower levels than the reduce
        rng = seeded_rng(51)
        batch_plan = batching.plan(random_sequences(rng, 6, 2, 10))
        level_of = {}
        for d, level in enumerate(batch_plan.levels, start=1):
            for key, head, dep in level:
                assert level_of.get(head, 0) < d
                assert level_of.get(dep, 0) < d
                level_of[key] = d

    def test_one_word_trees_give_empty_plan(self):
        batch_plan = batching.plan([(tr.gen("x"), tr.RR)] * 3)
        assert batch_plan.levels == []
        assert batch_plan.total_compositions() == 0

    def test_each_node_in_exactly_one_group(self):
        rng = seeded_rng(52)
        sequences = [random_gold_ops(rng, 8) for _ in range(4)]
        batch_plan = batching.plan(sequences)
        seen = [key for level in batch_plan.levels for key, _, _ in level]
        assert len(seen) == len(set(seen))
        assert set(seen) == set().union(
            *(word_reduces(i, ops) for i, ops in enumerate(sequences)))

    def test_work_conservation(self):
        # one composition per word-to-word reduce, independent of batching
        rng = seeded_rng(53)
        sequences = random_sequences(rng, 8, 1, 11)
        batch_plan = batching.plan(sequences)
        assert batch_plan.total_compositions() == \
            sum(len(tr.extract_summary(ops)) - 1 for ops in sequences)


class TestBatchedCompose:
    def test_single_instance_equals_sequential_chain(self):
        m = tiny_model(out_words=tuple("w%d" % i for i in range(8)))
        ops = chain_ops(3)
        leaf = leaf_embeddings(m, [ops])
        batched = batching.batched_compose(batching.plan([ops]), leaf,
                                           m.compose)
        sequential = sequential_reps(m, 0, ops, leaf)
        assert set(batched) == set(sequential) == word_reduces(0, ops)
        for key in sequential:
            np.testing.assert_allclose(batched[key].data,
                                       sequential[key].data, atol=1e-12)

    def test_random_batch_matches_sequential(self):
        m = tiny_model(out_words=tuple("w%d" % i for i in range(8)))
        rng = seeded_rng(54)
        sequences = random_sequences(rng, 8, 1, 9)
        leaf = leaf_embeddings(m, sequences)
        batched = batching.batched_compose(batching.plan(sequences), leaf,
                                           m.compose)
        worst = 0.0
        for i, ops in enumerate(sequences):
            sequential = sequential_reps(m, i, ops, leaf)
            for key, val in sequential.items():
                worst = max(worst,
                            np.abs(batched[key].data - val.data).max())
        assert worst < 1e-6

    def test_gradients_match_sequential(self):
        m = tiny_model(out_words=tuple("w%d" % i for i in range(8)))
        rng = seeded_rng(55)
        sequences = random_sequences(rng, 8, 2, 8)
        params = [m.compose_w, m.compose_b, m.out_embed]

        def final_reps_loss(use_batched):
            leaf = leaf_embeddings(m, sequences)
            reps = dict(leaf)
            if use_batched:
                reps.update(batching.batched_compose(
                    batching.plan(sequences), leaf, m.compose))
            else:
                for i, ops in enumerate(sequences):
                    reps.update(sequential_reps(m, i, ops, leaf))
            # the op before the final RR builds the finished tree: the
            # last word-to-word reduce, or the GEN of a one-word summary
            finals = [reps[(i, len(ops) - 2)]
                      for i, ops in enumerate(sequences)]
            acc = None
            for vec in finals:
                term = ad.total(ad.mul(vec, vec))
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
        direct = batching.batched_compose(
            batching.plan(sequences), leaf_embeddings(m, sequences),
            m.compose)
        shuffled_sequences = [sequences[p] for p in perm]
        shuffled = batching.batched_compose(
            batching.plan(shuffled_sequences),
            leaf_embeddings(m, shuffled_sequences), m.compose)
        for new_i, old_i in enumerate(perm):
            for _, t in word_reduces(old_i, sequences[old_i]):
                np.testing.assert_allclose(
                    shuffled[(new_i, t)].data,
                    direct[(old_i, t)].data, atol=1e-12)
