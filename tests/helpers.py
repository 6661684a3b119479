"""Shared generators and brute-force reference implementations for tests.

Everything here is deliberately independent of the library's own logic
wherever it serves as an oracle: projectivity is re-checked by pairwise
arc crossing, and oracle sequences are re-derived by searching the raw
operation space.
"""

import numpy as np

from treesum import autodiff as ad
from treesum import transition as tr
from treesum.corpus import text_lines
from treesum.metrics import EmbeddingTable, MetricsError, prf
from treesum.model import OP_INDEX


def random_gold_ops(rng, n, alphabet=None):
    """Sample a valid op sequence of at most n words by a uniformly random
    walk over the valid ops, so reduces need not fire eagerly."""
    if alphabet is None:
        alphabet = ["w%d" % i for i in range(8)]
    state = tr.StackState()
    while not state.is_terminal:
        kinds = sorted(tr.valid_ops(state, max_words=n))
        kind = kinds[rng.integers(len(kinds))]
        if kind == tr.GEN:
            op = tr.gen(alphabet[rng.integers(len(alphabet))])
        else:
            op = tr.RL if kind == tr.REDUCE_L else tr.RR
        state = tr.apply_op(state, op)
    return state.ops


def random_projective_tree(rng, n, alphabet=None):
    """Sample a random projective single-root-child tree with n words.

    Executes a `random_gold_ops` walk, which reaches exactly the derivable
    class of trees.
    """
    return tr.execute(random_gold_ops(rng, n, alphabet))


def crossing_arcs_projectivity(tree):
    """O(n^2) pairwise-crossing check over all arcs including the root arc."""
    arcs = [(min(h, d), max(h, d)) for h, d in tree.arcs()]
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            (a1, b1), (a2, b2) = arcs[i], arcs[j]
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                return False
    return True


def bruteforce_oracle(tree):
    """First gold-reaching op sequence under reduce-first DFS.

    Searches raw operation space: at every state tries REDUCE_L, then
    REDUCE_R, then GEN of the next gold word, backtracking on failure.
    A reduce is only followed if the arc it creates belongs to the gold
    tree.  The reduce-first order realizes the earliest-reduction rule,
    so the first complete sequence found is the eager linearization.
    """
    n = len(tree)
    gold_arcs = tree.arcs()
    target = {"words": tree.words, "heads": tree.heads}

    def dfs(state):
        if state.is_terminal:
            result = tr.execute(state.ops)
            if result.words == target["words"] and result.heads == target["heads"]:
                return list(state.ops)
            return None
        kinds = tr.valid_ops(state, max_words=n)
        for op in (tr.RL, tr.RR):
            if op.kind in kinds:
                nxt = tr.apply_op(state, op)
                if nxt.arcs <= gold_arcs:
                    found = dfs(nxt)
                    if found is not None:
                        return found
        if tr.GEN in kinds:
            word = tree.words[len(state.generated)]
            found = dfs(tr.apply_op(state, tr.gen(word)))
            if found is not None:
                return found
        return None

    return dfs(tr.StackState())


def all_gold_sequences(tree):
    """Every valid op sequence that executes to the gold tree (small n only)."""
    n = len(tree)
    gold_arcs = tree.arcs()
    out = []

    def dfs(state):
        if state.is_terminal:
            result = tr.execute(state.ops)
            if result.words == tree.words and result.heads == tree.heads:
                out.append(list(state.ops))
            return
        kinds = tr.valid_ops(state, max_words=n)
        for op in (tr.RL, tr.RR):
            if op.kind in kinds:
                nxt = tr.apply_op(state, op)
                if nxt.arcs <= gold_arcs:
                    dfs(nxt)
        if tr.GEN in kinds:
            dfs(tr.apply_op(state, tr.gen(tree.words[len(state.generated)])))

    dfs(tr.StackState())
    return out


def enumerate_head_maps(n):
    """All single-root-child acyclic head maps over n words."""
    words = tuple("w%d" % i for i in range(n))

    def rec(i, heads):
        if i == n:
            try:
                yield tr.DependencyTree(words=words, heads=tuple(heads))
            except tr.TransitionError:
                pass
            return
        for h in range(n + 1):
            yield from rec(i + 1, heads + [h])

    yield from rec(0, [])


def walkthrough_tree():
    """The five-word walkthrough tree used across the suite."""
    return tr.DependencyTree(
        words=("a", "man", "escaped", "from", "prison"),
        heads=(2, 3, 0, 5, 3),
    )


WALKTHROUGH_OPS = tr.ops_from_text(
    "GEN(a) GEN(man) RL GEN(escaped) RL GEN(from) GEN(prison) RL RR RR")


def seeded_rng(seed=13):
    return np.random.default_rng(seed)


def toy_corpus(n=50, seed=13):
    """Deterministic desk-scale corpus: each source maps to a unique
    three-word summary with a fixed verb-rooted parse."""
    from treesum.corpus import Example

    names = ["alice", "bob", "carol", "dave", "erin",
             "frank", "grace", "heidi", "ivan", "judy"]
    verbs = ["saw", "met", "called", "helped", "praised"]
    objects_ = ["dog", "cat", "bird", "horse", "fish"]
    places = ["park", "lab", "store", "yard"]
    combos = [(a, v, o) for a in names for v in verbs for o in objects_]
    rng = np.random.default_rng(seed)
    rng.shuffle(combos)
    examples = []
    for i, (name, verb, obj) in enumerate(combos[:n]):
        place = places[i % len(places)]
        source = f"{name} quietly {verb} the {obj} near the {place} yesterday"
        summary = f"{name} {verb} {obj}"
        examples.append(Example(source=source.split(),
                                summary=summary.split(),
                                heads=[2, 0, 2]))
    return examples


def pairwise_cosine(u, v, vectors):
    """Word similarity one pair at a time: 1.0 on string equality, the
    cosine of the raw vectors when both words have one, 0.0 otherwise."""
    if u == v:
        return 1.0
    if vectors is None or u not in vectors or v not in vectors:
        return 0.0
    a, b = vectors[u], vectors[v]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def parse_relations(words, heads):
    """The (head word, dependent word) pairs of a parse, in dependent
    order, one word at a time; arcs from R (head 0) are not relations."""
    return [(words[head - 1], word)
            for word, head in zip(words, heads) if head != 0]


def pairwise_relation_matches(predicted, target, vectors=None, sigma=1.0):
    """Brute-force relation matcher over two ``(words, heads)`` parses and
    a word -> vector dict: each parse's word pairs come from
    `parse_relations`, every (predicted, target) pair is scored on its own,
    then matched greedily one-to-one by descending min-similarity, ties by
    first occurrence."""
    predicted, target = parse_relations(*predicted), parse_relations(*target)
    eligible = []
    for i, (p_head, p_dep) in enumerate(predicted):
        for j, (t_head, t_dep) in enumerate(target):
            if sigma >= 1.0:
                if p_head == t_head and p_dep == t_dep:
                    eligible.append((1.0, i, j))
                continue
            hs = pairwise_cosine(p_head, t_head, vectors)
            ds = pairwise_cosine(p_dep, t_dep, vectors)
            if hs >= sigma and ds >= sigma:
                eligible.append((min(hs, ds), i, j))
    eligible.sort(key=lambda e: (-e[0], e[1], e[2]))
    used_p, used_t = set(), set()
    for _, i, j in eligible:
        if i not in used_p and j not in used_t:
            used_p.add(i)
            used_t.add(j)
    return len(used_p), len(predicted), len(target)


def reference_rouge_l(candidate, reference):
    """ROUGE-L (P, R, F) from the whole LCS table, one cell at a time."""
    m, n = len(candidate), len(reference)
    if m == 0 or n == 0:
        return 0.0, 0.0, 0.0
    table = np.zeros((m + 1, n + 1), dtype=np.int64)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if candidate[i - 1] == reference[j - 1]:
                table[i, j] = table[i - 1, j - 1] + 1
            else:
                table[i, j] = max(table[i - 1, j], table[i, j - 1])
    return prf(int(table[m, n]), m, n)


def reference_load_embeddings(path):
    """`metrics.load_embeddings` one line at a time: each line split on
    whitespace, its word lowercased and its values parsed by ``np.array``,
    i.e. by Python's ``float``, into a matrix sized by a first pass that
    counts the lines.  The reference for the one-call parse on valid
    files."""
    index, rows = {}, np.zeros((0, 0))
    count = sum(1 for _, line in text_lines(path, MetricsError)
                if line.strip())
    for lineno, line in text_lines(path, MetricsError):
        parts = line.split()
        if not parts:
            continue
        word, values = parts[0].lower(), parts[1:]
        if not values:
            raise MetricsError(f"{path}:{lineno}: no vector values")
        try:
            vec = np.array(values, dtype=np.float64)
        except ValueError:
            raise MetricsError(f"{path}:{lineno}: unparseable value")
        if not np.isfinite(vec).all():
            raise MetricsError(f"{path}:{lineno}: non-finite value")
        if not index:
            rows = np.zeros((count, len(vec)))
        elif len(vec) != rows.shape[1]:
            raise MetricsError(
                f"{path}:{lineno}: dimension {len(vec)} != "
                f"{rows.shape[1]}")
        if word not in index:
            rows[len(index)] = vec
            index[word] = len(index)
    return EmbeddingTable(list(index), rows[:len(index)])


def grad_check(f, params, samples_per_param=8, step=1e-5):
    """Max relative error of analytic vs central-difference gradients.

    ``f`` must be a deterministic nullary callable returning a scalar
    Tensor computed from ``params``.  Use float64 parameters; float32
    round-off swamps the comparison.  Per parameter, the coordinates with
    the largest analytic magnitude are sampled: central differences at
    this step size cannot resolve gradients below the round-off of the
    loss itself, so near-zero coordinates carry no signal.
    """
    ad.zero_grads(params)
    with ad.Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    worst = 0.0
    for p in params:
        k = min(samples_per_param, p.data.size)
        magnitudes = np.abs(analytic[p.name].reshape(-1))
        coords = np.argsort(-magnitudes, kind="stable")[:k]
        for idx in coords:
            multi = np.unravel_index(idx, p.data.shape)
            keep = p.data[multi]
            p.data[multi] = keep + step
            up = f().item()
            p.data[multi] = keep - step
            down = f().item()
            p.data[multi] = keep
            numeric = (up - down) / (2.0 * step)
            a = analytic[p.name].reshape(-1)[idx]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst


def sigmoid_where(a):
    """The gate sigmoid as `autodiff._sigmoid_np` once computed it, with
    `np.where` picking the numerator: the bit-for-bit reference for the
    current formula."""
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


def attention_scores_composite(keys, query, v):
    """Additive attention scores ``tanh(keys + query) @ v`` composed of
    tape primitives, one node per op, with the tanh output kept for the
    backward: the reference for `autodiff.attention_scores`."""
    lead, h = query.shape[:-1], query.shape[-1]
    mixed = ad.tanh(ad.add(keys, ad.reshape(query, lead + (1, h))))
    flat = ad.matmul(ad.reshape(mixed, (-1, h)), v)
    return ad.reshape(flat, lead + (keys.shape[0],))


def lstm_step(x, h, c, params):
    """One LSTM step as the model takes it: `lstm_input`, then
    `lstm_cell`."""
    return ad.lstm_cell(ad.lstm_input(x, params), h, c, params)


def tree_state(model, stack_reps):
    """From-scratch unroll of the stack LSTM, bottom (R) to top, one
    `lstm_step` per stack element."""
    h = c = ad.Tensor(np.zeros(model.config.hidden_size, dtype=model.dtype))
    for rep in stack_reps:
        h, c = lstm_step(rep, h, c, model.tree_cell)
    return h


def seq_state(model, words):
    """From-scratch summary-prefix state; the learned initial when empty."""
    h, c = model.seq_init_h, model.seq_init_c
    for word in words:
        h, c = lstm_step(model.word_embedding(word), h, c, model.seq_cell)
    return h


def history_state(model, ops):
    """From-scratch operation-history state over op-kind embeddings."""
    h, c = model.hist_init_h, model.hist_init_c
    for op in ops:
        x = ad.row(model.op_embed, OP_INDEX[op.kind])
        h, c = lstm_step(x, h, c, model.hist_cell)
    return h


def step_fold_rows(model, gold_ops):
    """The decoder states before each gold op, from `Model.step` over the
    ops (one `lstm_cell` per recurrence per op, compositions inside the
    step), stacked as (tree_h, seq_h, hist_h) row matrices: the reference
    for `batching.teacher_forced_rows`."""
    states = [model.initial_state()]
    for op in gold_ops[:-1]:
        states.append(model.step(states[-1], op))
    return tuple(ad.stack_rows([getattr(state, name) for state in states])
                 for name in ("tree_h", "seq_h", "hist_h"))


def lstm_cell_fold(x, parents, h0, c0, params):
    """`lstm_scan` over the input rows ``x`` as one `lstm_cell_composite`
    per row: row t continues row parents[t], or (h0, c0) at -1; the hidden
    rows stacked."""
    states = []
    for t, p in enumerate(parents):
        h, c = (h0, c0) if p < 0 else states[p]
        states.append(lstm_cell_composite(ad.row(x, t), h, c, params))
    return ad.stack_rows([h for h, _ in states])


def lstm_cell_composite(x, h, c, params):
    """One LSTM step on the input ``x`` composed of tape primitives, one
    node per gate op, with ``z = [x || h] @ w + b`` as one product: the
    reference for `lstm_input` followed by the fused `lstm_cell`."""
    n = params.hidden_size
    axis = x.data.ndim - 1
    z = ad.add(ad.matmul(ad.concat([x, h], axis=axis), params.w), params.b)
    i = ad.sigmoid(ad.narrow(z, axis, 0, n))
    f = ad.sigmoid(ad.narrow(z, axis, n, 2 * n))
    g = ad.tanh(ad.narrow(z, axis, 2 * n, 3 * n))
    o = ad.sigmoid(ad.narrow(z, axis, 3 * n, 4 * n))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    return ad.mul(o, ad.tanh(c_new)), c_new


def encode_per_token(model, tokens):
    """One source through the bidirectional encoder as one vector
    `lstm_cell_composite` per token, layer and direction: the reference
    for the lockstep `Model.encode`.  Returns (matrix, keys) arrays."""
    inputs = [ad.row(model.src_embed, model.input_vocab.id(token))
              for token in tokens]
    zeros = ad.Tensor(np.zeros(model.config.hidden_size, dtype=model.dtype))
    for fwd, bwd in model.encoder_cells:
        h = c = zeros
        forward = []
        for x in inputs:
            h, c = lstm_cell_composite(x, h, c, fwd)
            forward.append(h)
        h = c = zeros
        backward = []
        for x in reversed(inputs):
            h, c = lstm_cell_composite(x, h, c, bwd)
            backward.append(h)
        inputs = [ad.concat([f, b])
                  for f, b in zip(forward, reversed(backward))]
    matrix = ad.stack_rows(inputs)
    return matrix.data, ad.matmul(matrix, model.attn_enc_w).data


def predict_word_dense(model, seq_h, tree_h, ctx, src):
    """`Model.predict_word` with the copy term as a dense product: the
    generation distribution padded with zeros to the union vocabulary,
    plus attention times a (source_len, union_size) 0/1 matrix with one 1
    per source token, at its union id.  The reference for the scatter.
    Returns (distribution, switch)."""
    feat = ad.concat([seq_h, tree_h, ctx.context], axis=-1)
    switch = ad.sigmoid(ad.add(ad.matmul(feat, model.switch_w),
                               model.switch_b))
    hidden = ad.tanh(ad.add(ad.matmul(feat, model.word_hidden_w),
                            model.word_hidden_b))
    vocab_dist = ad.softmax(ad.matmul(hidden, model.word_out_w))
    if src.extensions:
        pad = ad.Tensor(np.zeros(vocab_dist.shape[:-1]
                                 + (len(src.extensions),), model.dtype))
        vocab_dist = ad.concat([vocab_dist, pad], axis=-1)
    copy = np.zeros((len(src.tokens), src.union_size), dtype=model.dtype)
    copy[np.arange(len(src.tokens)), src.union_ids] = 1.0
    copy_dist = ad.matmul(ctx.alpha, ad.Tensor(copy))
    one = ad.constant(1.0, dtype=model.dtype)
    dist = ad.add(ad.mul(vocab_dist, switch),
                  ad.mul(copy_dist, ad.sub(one, switch)))
    return dist, switch
