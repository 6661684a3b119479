"""Joint abstractive summarization and unlabeled dependency parsing.

A single decoder emits interleaved word-generation and arc-reduction
operations, producing a summary sentence and its dependency tree at the
same time.  The package is self-contained: a numpy reverse-mode autodiff
core, the symbolic transition system, the neural architecture, mini-batched
tree compositions planned from the gold operations, training, constrained
beam decoding, and ROUGE plus relation-preservation evaluation.
"""

from .transition import (
    GEN,
    REDUCE_L,
    REDUCE_R,
    RL,
    RR,
    DependencyTree,
    ParserOp,
    StackState,
    TransitionError,
    apply_op,
    execute,
    extract_summary,
    gen,
    is_projective,
    ops_from_text,
    ops_to_text,
    oracle,
    valid_ops,
)
from .corpus import Example, Vocabulary, build_vocab, load_corpus
from .model import Model, ModelConfig
from .training import TrainConfig, train
from .decoding import BeamConfig, beam_search, decode_output, greedy_decode
from .metrics import Relation, relation_f, rouge_l, rouge_n

__version__ = "0.1.0"

__all__ = [
    "GEN", "REDUCE_L", "REDUCE_R", "RL", "RR",
    "DependencyTree", "ParserOp", "StackState", "TransitionError",
    "apply_op", "execute", "extract_summary", "gen", "is_projective",
    "ops_from_text", "ops_to_text", "oracle", "valid_ops",
    "Example", "Vocabulary", "build_vocab", "load_corpus",
    "Model", "ModelConfig",
    "TrainConfig", "train",
    "BeamConfig", "beam_search", "decode_output", "greedy_decode",
    "Relation", "relation_f", "rouge_l", "rouge_n",
    "__version__",
]
