"""Transition system: semantics, constraints, oracle, projectivity."""

import pytest

from treesum import transition as tr
from helpers import (
    WALKTHROUGH_OPS,
    all_gold_sequences,
    bruteforce_oracle,
    crossing_arcs_projectivity,
    enumerate_head_maps,
    random_projective_tree,
    seeded_rng,
    walkthrough_tree,
)


class TestValidOps:
    def test_initial_stack_offers_only_gen(self):
        state = tr.StackState()
        assert tr.valid_ops(state, max_words=5) == {tr.GEN}

    def test_two_trees_above_root_offer_everything(self):
        state = tr.run_prefix(tr.ops_from_text(
            "GEN(a) GEN(man) RL GEN(escaped) RL GEN(from) GEN(prison) RL"))
        assert list(state.stack) == [0, 3, 5]
        assert tr.valid_ops(state, max_words=9) == {tr.GEN, tr.REDUCE_L, tr.REDUCE_R}

    def test_word_cap_leaves_only_terminal_reduce(self):
        state = tr.run_prefix([tr.gen("hi")])
        assert tr.valid_ops(state, max_words=1) == {tr.REDUCE_R}

    def test_terminal_state_offers_nothing(self):
        state = tr.run_prefix([tr.gen("hi"), tr.RR])
        assert state.is_terminal
        assert tr.valid_ops(state, max_words=4) == frozenset()


class TestApplyOp:
    def test_reduce_l_merges_with_top_as_head(self):
        state = tr.run_prefix([tr.gen("a"), tr.gen("man")])
        state = tr.apply_op(state, tr.RL)
        assert list(state.stack) == [0, 2]
        assert state.arcs == {(2, 1)}

    def test_reduce_r_merges_with_top_as_dependent(self):
        state = tr.run_prefix(WALKTHROUGH_OPS[:8])
        assert list(state.stack) == [0, 3, 5]
        state = tr.apply_op(state, tr.RR)
        assert list(state.stack) == [0, 3]
        assert (3, 5) in state.arcs

    def test_one_word_summary_terminates_on_root_reduce(self):
        state = tr.run_prefix([tr.gen("hi")])
        state = tr.apply_op(state, tr.RR)
        assert state.is_terminal
        assert state.arcs == {(0, 1)}

    def test_reduce_without_two_elements_is_rejected(self):
        state = tr.run_prefix([tr.gen("a")])
        with pytest.raises(tr.TransitionError):
            tr.apply_op(state, tr.RL)


class TestExecute:
    def test_walkthrough_sequence_builds_its_tree(self):
        tree = tr.execute(WALKTHROUGH_OPS)
        assert tree.words == ("a", "man", "escaped", "from", "prison")
        assert tree.heads == (2, 3, 0, 5, 3)

    def test_single_word(self):
        tree = tr.execute([tr.gen("hi"), tr.RR])
        assert tree.words == ("hi",)
        assert tree.heads == (0,)

    def test_invalid_op_reports_failing_index(self):
        with pytest.raises(tr.TransitionError, match="index 1"):
            tr.execute([tr.gen("a"), tr.RL])

    def test_incomplete_sequence_rejected(self):
        with pytest.raises(tr.TransitionError, match="incomplete"):
            tr.execute([tr.gen("a"), tr.gen("b"), tr.RL])


class TestOracle:
    def test_reproduces_walkthrough_exactly(self):
        assert tr.oracle(walkthrough_tree()) == WALKTHROUGH_OPS

    def test_single_word_tree(self):
        tree = tr.DependencyTree(words=("w",), heads=(0,))
        assert tr.oracle(tree) == [tr.gen("w"), tr.RR]

    def test_non_projective_rejected(self):
        tree = tr.DependencyTree(words="abcd", heads=(3, 4, 0, 3))
        assert not tr.is_projective(tree)
        with pytest.raises(tr.NonProjectiveError):
            tr.oracle(tree)

    def test_round_trip_random_trees(self):
        rng = seeded_rng(7)
        for _ in range(500):
            tree = random_projective_tree(rng, int(rng.integers(1, 13)))
            back = tr.execute(tr.oracle(tree))
            assert back.words == tree.words
            assert back.heads == tree.heads

    def test_matches_bruteforce_search_small_trees(self):
        rng = seeded_rng(11)
        for _ in range(200):
            tree = random_projective_tree(rng, int(rng.integers(1, 7)))
            assert tr.oracle(tree) == bruteforce_oracle(tree)

    def test_eager_sequence_is_among_all_gold_sequences(self):
        rng = seeded_rng(3)
        for _ in range(40):
            tree = random_projective_tree(rng, int(rng.integers(1, 5)))
            sequences = all_gold_sequences(tree)
            assert sequences, "every projective tree must be derivable"
            assert tr.oracle(tree) in sequences

    def test_oracle_is_deterministic(self):
        rng = seeded_rng(5)
        tree = random_projective_tree(rng, 9)
        assert tr.oracle(tree) == tr.oracle(tree)


class TestCountingInvariants:
    def test_complete_sequence_has_n_gens_and_n_reduces(self):
        rng = seeded_rng(17)
        for _ in range(100):
            tree = random_projective_tree(rng, int(rng.integers(1, 13)))
            ops = tr.oracle(tree)
            gens = sum(1 for op in ops if op.kind == tr.GEN)
            reduces = len(ops) - gens
            assert gens == len(tree) and reduces == len(tree)

    def test_stack_depth_tracks_gen_minus_reduce(self):
        rng = seeded_rng(19)
        tree = random_projective_tree(rng, 10)
        state = tr.StackState()
        for i, op in enumerate(tr.oracle(tree)):
            state = tr.apply_op(state, op)
            gens = sum(1 for o in state.ops if o.kind == tr.GEN)
            assert len(state.stack) == 1 + gens - (len(state.ops) - gens)
            assert len(state.stack) >= 1

    def test_valid_ops_never_admits_failing_op(self):
        rng = seeded_rng(23)
        for _ in range(50):
            state = tr.StackState()
            n = int(rng.integers(1, 9))
            while not state.is_terminal:
                kinds = sorted(tr.valid_ops(state, max_words=n))
                kind = kinds[rng.integers(len(kinds))]
                op = tr.gen("x") if kind == tr.GEN else (
                    tr.RL if kind == tr.REDUCE_L else tr.RR)
                state = tr.apply_op(state, op)  # must never raise
                assert state.stack[0] == 0


class TestExtractSummary:
    def test_walkthrough(self):
        assert tr.extract_summary(WALKTHROUGH_OPS) == \
            ["a", "man", "escaped", "from", "prison"]

    def test_empty_and_prefixes(self):
        assert tr.extract_summary([]) == []
        assert tr.extract_summary([tr.gen("x"), tr.RR]) == ["x"]


class TestProjectivity:
    def test_walkthrough_tree_is_projective(self):
        assert tr.is_projective(walkthrough_tree())

    def test_canonical_crossing(self):
        tree = tr.DependencyTree(words="abcd", heads=(3, 4, 0, 3))
        assert not tr.is_projective(tree)

    def test_exhaustive_agreement_with_crossing_checker(self):
        count = 0
        for n in range(1, 6):
            for tree in enumerate_head_maps(n):
                assert tr.is_projective(tree) == crossing_arcs_projectivity(tree)
                count += 1
        # sum over n of n^(n-1): single-root-child head maps on 1..5 words
        assert count == 1 + 2 + 9 + 64 + 625

    def test_cyclic_heads_rejected_at_construction(self):
        with pytest.raises(tr.CyclicHeadsError):
            tr.DependencyTree(words="abc", heads=(2, 1, 0))

    def test_multi_root_rejected(self):
        with pytest.raises(tr.MultiRootError):
            tr.DependencyTree(words="ab", heads=(0, 0))


class TestSerialization:
    def test_round_trip(self):
        text = tr.ops_to_text(WALKTHROUGH_OPS)
        assert text == "GEN(a) GEN(man) RL GEN(escaped) RL GEN(from) GEN(prison) RL RR RR"
        assert tr.ops_from_text(text) == WALKTHROUGH_OPS

    def test_unknown_token_rejected(self):
        with pytest.raises(tr.TransitionError):
            tr.ops_from_text("GEN(a) SHIFT")
