"""Dense-tensor reverse-mode automatic differentiation on numpy arrays.

Operations record onto the active `Tape` (a Wengert list); with no tape
active they run forward-only, which is how decoding avoids graph overhead.
The primitive set is closed and small: matmul, add/sub/mul (with numpy
broadcasting, un-broadcast on the way back), concat/narrow/reshape,
row/rows/stack_rows gathers, tanh, sigmoid, softmax, log_softmax, log,
clip, total, pick, a `scatter` of columns into a wider last axis, whose
backward is a gather, `attention_scores`, additive attention's
``tanh(keys + query) @ v`` as one node, and two for LSTMs.
`lstm_input` is an LSTM's input projection ``zx = x @ w[:E] + b`` as one
node, over all the rows a recurrence reads, so it is one GEMM hoisted out
of the recurrence.  `lstm_cell` takes that ``zx`` and runs one LSTM step,
only the recurrent product ``h @ w[E:]``; its new cell and hidden states
are one node each.  `lstm_scan`, a whole recurrence over a forest of rows
whose inputs are known up front, is no primitive: it runs one `lstm_cell`
per level of the forest.  An `LstmParams` holds the two Parameters it is
given, drawing nothing.  Every primitive checks its output for NaN/Inf and
raises `NonFiniteError` on the first occurrence.

A tape keeps gradient slots apart from data.  Each taped output is a
`Tensor` holding its array and a small `Node`: the output's gradient, its
backward closure, and the gradient's shape and dtype.  `Tape.nodes`
lists the nodes, one per taped output.  A closure captures its operands'
nodes and only the arrays its formula reads (its saved arrays, as in
PyTorch): `mul` keeps both operands, `matmul` and `lstm_input` their x and
w, `log` its input, `clip` its mask, `tanh`, `sigmoid`, `softmax` and
`log_softmax` their own outputs, `attention_scores` its three operands
(its backward recomputes the (rows, S, H) tanh rather than keeping it),
`lstm_cell` its gates and states, and `add`, `sub`, `neg`, `concat`,
`narrow`, `reshape`, `rows`, `row`, `stack_rows`, `scatter`, `pick` and
`total` only shapes and indices.  An output that no backward reads is
freed as soon as the forward drops its Tensor, and each closure, with
what it saved, is dropped once it has run.

Only Parameters, whose nodes live as long as they do, and taped outputs
take gradients; constants (tensors made off the tape, such as zero states
and lifted scalars) have no node, and no backward product is computed
for them.  A Parameter starts with no gradient buffer (``grad`` is None,
as in PyTorch): its first write creates one, whether `zero_grad`, a
backward formula or the flush below, so a model that only decodes holds
its weights and nothing more.  The weight gradient of ``x @ p`` for a
Parameter ``p`` is not computed per product: its (x, g) rows are kept on
the tape, and `Tape.backward` flushes each such parameter once, as one
GEMM, after every node has run; `attention_scores` adds the gradient of
its ``v`` at once instead.  The LSTM primitives hand their weight
gradients to the same flush, each into its own block of rows of ``w``:
`lstm_input` into the input rows ``[:E]``, `lstm_cell` into the recurrent
rows ``[E:]``.

`load_checkpoint` checks the CRC over the file read in blocks before it
parses anything, then reads each record straight into its own array.  A
checkpoint is rejected unless its records end exactly at the checksum, no
parameter name repeats, and each record has at most 32 dimensions, no more
values than the bytes left hold, and only finite values.

Checkpoint container byte layout (version ``TSCKPT01``, all integers
little-endian, arrays C-order):

    8 bytes   magic b"TSCKPT01"
    u32       metadata length M
    M bytes   metadata JSON, UTF-8
    u32       parameter count P
    P records:
        u16       name length L
        L bytes   name, UTF-8
        u8        dtype code (4 = float32, 8 = float64)
        u8        ndim D
        D * u32   dimensions
        bytes     raw values, dtype-sized, little-endian
    u32       CRC-32 (zlib) of everything above
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from .files import atomic_output


class AutodiffError(Exception):
    pass


class ShapeError(AutodiffError):
    pass


class NonFiniteError(AutodiffError):
    pass


class CheckpointError(AutodiffError):
    pass


_ACTIVE_TAPE = None


class Node:
    """The gradient slot of one taped output or Parameter: the gradient
    accumulated so far, the backward closure, and the shape and dtype a
    gradient takes.  It holds no reference to the output's data."""

    __slots__ = ("grad", "backward", "shape", "dtype")

    def __init__(self, shape, dtype, backward=None):
        self.grad = None
        self.backward = backward
        self.shape = shape
        self.dtype = dtype

    def accumulate(self, g):
        if self.grad is None:
            # a copy: `add` hands the same g to both of its operands
            self.grad = np.array(g, dtype=self.dtype)
        else:
            self.grad += g

    def buffer(self):
        """The gradient, zeros until something accumulates, for backward
        formulas that add into part of it."""
        if self.grad is None:
            self.grad = np.zeros(self.shape, dtype=self.dtype)
        return self.grad


class Tensor:
    """A dense array plus, once taped, the `Node` that takes its
    gradient; a constant has no node."""

    __slots__ = ("data", "node")

    def __init__(self, data, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None
                               else getattr(data, "dtype", np.float32))
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value):
        self.node.grad = value

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A named, trainable tensor; its node's gradient persists across
    tapes.  ``grad`` is None until something first writes it."""

    __slots__ = ("name",)

    def __init__(self, data, name, dtype=None):
        super().__init__(data, dtype=dtype)
        self.name = name
        self.node = Node(self.data.shape, self.data.dtype)

    def zero_grad(self):
        self.node.buffer()[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class Tape:
    """Execution-ordered record of operations, one `Node` per taped
    output; context manager activates it."""

    def __init__(self):
        self.nodes = []
        # (Parameter, first row) -> ([x rows], [g rows]) of x @ p[first:]
        self._deferred = {}

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise AutodiffError("a tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def _defer(self, param, x, g, start=0):
        """Keep the (x, g) rows of ``x @ param[start:start + k]``, k the
        width of x, for the flush."""
        xs, gs = self._deferred.setdefault((param, start), ([], []))
        xs.append(x)
        gs.append(g)

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(x) into .grad of every Parameter and taped
        node the tape reaches; constants get no gradient.

        Each node's gradient and backward closure, with the arrays the
        closure saved, are released once its backward has run.  The weight
        gradient of ``x @ p`` for a Parameter ``p`` is deferred: the
        (x, g) rows of every such product are kept, and once every node
        has run each parameter gets one GEMM per block of rows it was used
        in, ``p.grad[start:start + k] += X.T @ G``, into a zero buffer if
        ``p`` has none yet.  The kept rows are released as each block is
        flushed, or on error.
        """
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        try:
            if loss.node is not None:
                loss.node.accumulate(np.ones_like(loss.data))
            for node in reversed(self.nodes):
                if node.grad is None:
                    continue
                # every consumer has already run, so the buffer can go now
                g, node.grad = node.grad, None
                backward, node.backward = node.backward, None
                backward(g)
            while self._deferred:
                (param, start), (xs, gs) = self._deferred.popitem()
                block = param.node.buffer()[start:start + xs[0].shape[1]]
                block += (np.concatenate(xs).T
                          @ np.concatenate(gs)).reshape(block.shape)
        finally:
            self._deferred.clear()
            self.nodes = []


def _make(data, backward, op):
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite output of {op}")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.node = None
    if _ACTIVE_TAPE is not None:
        out.node = Node(data.shape, data.dtype, backward)
        _ACTIVE_TAPE.nodes.append(out.node)
    return out


def _lift(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(g, shape):
    """Sum-reduce a gradient back to the pre-broadcast shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape

    def backward(g):
        if na is not None:
            na.accumulate(_unbroadcast(g, sa))
        if nb is not None:
            nb.accumulate(_unbroadcast(g, sb))
    return _make(data, backward, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}")
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape

    def backward(g):
        if na is not None:
            na.accumulate(_unbroadcast(g, sa))
        if nb is not None:
            nb.accumulate(-_unbroadcast(g, sb))
    return _make(data, backward, "sub")


def neg(a: Tensor) -> Tensor:
    na = a.node

    def backward(g):
        if na is not None:
            na.accumulate(-g)
    return _make(-a.data, backward, "neg")


def mul(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    na, nb, a_data, b_data = a.node, b.node, a.data, b.data

    def backward(g):
        if na is not None:
            na.accumulate(_unbroadcast(g * b_data, a_data.shape))
        if nb is not None:
            nb.accumulate(_unbroadcast(g * a_data, b_data.shape))
    return _make(data, backward, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Vector or matrix products; with a Parameter on the right, the weight
    gradient is deferred to one GEMM per parameter in `Tape.backward`."""
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1-D/2-D only: {a.shape} x {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    tape = _ACTIVE_TAPE
    na, nb, a_data, b_data = a.node, b.node, a.data, b.data
    param = b if isinstance(b, Parameter) else None

    def backward(g):
        # vectors and rows alike as matrices: x (rows, k) @ w (k, n) = g
        w = b_data.reshape(b_data.shape[0], -1)
        x = a_data.reshape(-1, w.shape[0])
        g = g.reshape(x.shape[0], w.shape[1])
        if na is not None:
            na.accumulate((g @ w.T).reshape(a_data.shape))
        if param is not None:
            tape._defer(param, x, g)
        elif nb is not None:
            nb.accumulate((x.T @ g).reshape(b_data.shape))
    return _make(data, backward, "matmul")


def concat(tensors, axis=0) -> Tensor:
    tensors = list(tensors)
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            "concat: " + " | ".join(str(t.shape) for t in tensors))
    parts = [(t.node, t.data.shape[axis]) for t in tensors]

    def backward(g):
        start = 0
        for node, size in parts:
            if node is not None:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, start + size)
                node.accumulate(g[tuple(index)])
            start += size
    return _make(data, backward, "concat")


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    data = a.data[index].copy()
    na = a.node

    def backward(g):
        if na is not None:
            na.buffer()[index] += g
    return _make(data, backward, "narrow")


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)
    if data.shape == a.shape:   # no node, so no gradient buffer to hold
        return a
    na, sa = a.node, a.shape

    def backward(g):
        if na is not None:
            na.accumulate(g.reshape(sa))
    return _make(data, backward, "reshape")


def rows(table: Tensor, indices) -> Tensor:
    """Embedding lookup: gather rows of a 2-D table."""
    idx = np.asarray(indices, dtype=np.int64)
    data = table.data[idx]
    nt = table.node

    def backward(g):
        if nt is None:
            return
        grad = nt.buffer()
        if len(set(idx.tolist())) == idx.size and not (idx < 0).any():
            grad[idx] += g          # distinct rows: each is added once
        else:
            np.add.at(grad, idx, g)
    return _make(data, backward, "rows")


def row(a: Tensor, i: int) -> Tensor:
    data = a.data[i].copy()
    na = a.node

    def backward(g):
        if na is not None:
            na.buffer()[i] += g
    return _make(data, backward, "row")


def stack_rows(vectors) -> Tensor:
    """Stack equal-length vectors into a matrix, one per row."""
    vectors = list(vectors)
    try:
        data = np.stack([v.data for v in vectors], axis=0)
    except ValueError:
        raise ShapeError(
            "stack_rows: " + " | ".join(str(v.shape) for v in vectors))
    nodes = [v.node for v in vectors]

    def backward(g):
        for r, node in enumerate(nodes):
            if node is not None:
                node.accumulate(g[r])
    return _make(data, backward, "stack_rows")


def scatter(base: Tensor, index, values: Tensor, size: int) -> Tensor:
    """``base`` widened with zeros to ``size`` along its last axis, with
    column j of ``values`` then added into column ``index[j]``; indices
    may repeat.  ``base`` is (..., n) with n <= size, ``values`` (..., m)
    with the same leading axes, and ``index`` m integers in 0..size-1.
    The backward narrows the gradient to base's columns and gathers the
    columns ``index`` of it for ``values``; it keeps only the index."""
    idx = np.asarray(index, dtype=np.int64)
    lead, width = base.shape[:-1], base.shape[-1]
    if values.shape != lead + idx.shape or width > size \
            or ((idx < 0) | (idx >= size)).any():
        raise ShapeError(f"scatter: base {base.shape} and values "
                         f"{values.shape} at {idx.shape} indices into "
                         f"{size} columns")
    data = np.zeros(lead + (size,), dtype=base.dtype)
    data[..., :width] = base.data
    np.add.at(data.reshape(-1, size), (slice(None), idx),
              values.data.reshape(-1, idx.size))
    nb, nv = base.node, values.node

    def backward(g):
        if nb is not None:
            nb.accumulate(g[..., :width])
        if nv is not None:
            nv.accumulate(g[..., idx])
    return _make(data, backward, "scatter")


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    na = a.node

    def backward(g):
        if na is not None:
            na.accumulate(g * (1.0 - data * data))
    return _make(data, backward, "tanh")


def _additive_mix(keys, query):
    """``tanh(keys + query)`` as a fresh (..., S, H) array: the (S, H)
    keys against a (H,) query, or against each row of a (rows, H) one."""
    mixed = keys + query[..., None, :]
    return np.tanh(mixed, out=mixed)


def attention_scores(keys: Tensor, query: Tensor, v: Tensor) -> Tensor:
    """Additive attention scores ``tanh(keys + query) @ v`` (Bahdanau et
    al. 2015) of (S, H) keys against a (H,) query, giving (S,), or against
    each row of a (rows, H) query, giving (rows, S); ``v`` is (H,).

    One node that saves its three operands, not the (rows, S, H) tanh:
    the backward recomputes the tanh into one transient buffer, takes the
    gradient of ``v`` from it, then turns it into the gradient of the
    pre-activation in place and sums that for ``keys`` and ``query``.
    The gradient of ``v`` is accumulated at once: deferring it to the
    flush would keep the recomputed tanh alive until then.
    """
    if keys.data.ndim != 2 or query.data.ndim not in (1, 2) \
            or query.shape[-1] != keys.shape[1] or v.shape != keys.shape[1:]:
        raise ShapeError(f"attention_scores: keys {keys.shape}, query "
                         f"{query.shape}, v {v.shape}")
    s, h = keys.shape
    lead = query.shape[:-1]
    k_data, q_data, v_data = keys.data, query.data, v.data
    data = (_additive_mix(k_data, q_data).reshape(-1, h)
            @ v_data).reshape(lead + (s,))
    nk, nq, nv = keys.node, query.node, v.node

    def backward(g):
        t = _additive_mix(k_data, q_data)
        if nv is not None:
            nv.accumulate(g.reshape(-1) @ t.reshape(-1, h))
        np.multiply(t, t, out=t)
        np.subtract(1.0, t, out=t)
        t *= g[..., None]
        t *= v_data
        if nk is not None:
            nk.accumulate(t.sum(axis=0) if lead else t)
        if nq is not None:
            nq.accumulate(t.sum(axis=-2))
    return _make(data, backward, "attention_scores")


def _sigmoid_np(a):
    # neither exp overflows: 1 / (1 + e^-a) where a >= 0, e^a / (1 + e^a)
    # below
    return np.exp(np.minimum(a, 0)) / (1.0 + np.exp(-np.abs(a)))


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid_np(a.data)
    na = a.node

    def backward(g):
        if na is not None:
            na.accumulate(g * data * (1.0 - data))
    return _make(data, backward, "sigmoid")


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)
    na = a.node

    def backward(g):
        if na is not None:
            inner = (g * data).sum(axis=-1, keepdims=True)
            na.accumulate(data * (g - inner))
    return _make(data, backward, "softmax")


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse
    na = a.node

    def backward(g):
        if na is not None:
            soft = np.exp(data)
            na.accumulate(g - soft * g.sum(axis=-1, keepdims=True))
    return _make(data, backward, "log_softmax")


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    na, a_data = a.node, a.data

    def backward(g):
        if na is not None:
            na.accumulate(g / a_data)
    return _make(data, backward, "log")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through inside [lo, hi] inclusive."""
    data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    na = a.node

    def backward(g):
        if na is not None:
            na.accumulate(g * mask)
    return _make(data, backward, "clip")


def total(a: Tensor) -> Tensor:
    """The sum of every value, as a scalar tensor."""
    data = a.data.sum()
    na, sa = a.node, a.shape

    def backward(g):
        if na is not None:
            na.accumulate(np.broadcast_to(g, sa).copy())
    return _make(data, backward, "total")


def pick(a: Tensor, index) -> Tensor:
    """One coordinate of a vector as a scalar tensor; or, given one index
    per row of a matrix, one coordinate per row as a vector."""
    if a.data.ndim == 2 and len(index) == a.shape[0]:
        index = (np.arange(a.shape[0]), np.asarray(index, dtype=np.int64))
    elif a.data.ndim != 1:
        raise ShapeError(f"pick expects a vector, or a matrix and one index "
                         f"per row, got {a.shape}")
    data = a.data[index].copy()
    na = a.node

    def backward(g):
        if na is not None:
            na.buffer()[index] += g
    return _make(data, backward, "pick")


def constant(value, dtype=np.float32) -> Tensor:
    return Tensor(np.asarray(value, dtype=dtype))


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

class LstmParams:
    """Weights of one LSTM cell: z = [x || h] @ w + b, gate order i,f,g,o.

    Holds the Parameters ``w`` (E + H, 4H) and ``b`` (4H,) it is given.
    The rows ``w[:E]`` (E the input size) take the input, the rows
    ``w[E:]`` the previous hidden state; `lstm_input` applies the first
    block and the bias, `lstm_cell` the second.
    """

    def __init__(self, w: Parameter, b: Parameter):
        self.w, self.b = w, b
        self.hidden_size = b.shape[0] // 4

    @property
    def input_size(self):
        return self.w.shape[0] - self.hidden_size


def _lstm_gates(z, n):
    """The activations i, f, g, o of pre-activations z (..., 4n).  One
    sigmoid call over all four quarters is cheaper than two around g,
    whose quarter then takes its tanh."""
    s = _sigmoid_np(z)
    s[..., 2 * n:3 * n] = np.tanh(z[..., 2 * n:3 * n])
    return s


def _lstm_slopes(s, c_prev, tc, n):
    """Per row, d(pre-activation)/dc of gates i, f, g and
    d(pre-activation)/dh of gate o, so dz = [dc | dc | dc | dh] * slopes;
    ``tc`` is tanh of the new cell state."""
    i, f, g, o = (s[..., k * n:(k + 1) * n] for k in range(4))
    return np.concatenate([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                           i * (1.0 - g * g), tc * o * (1.0 - o)], axis=-1)


def lstm_input(x: Tensor, params: LstmParams) -> Tensor:
    """The input projection ``zx = x @ w[:E] + b`` of an LSTM, one node for
    a vector or (rows, E).  Computed once over every row a recurrence
    reads, it takes the input's share of the pre-activations out of the
    recurrence, which `lstm_cell` then runs on ``zx``.  The backward
    defers its weight gradient into the rows ``[:E]`` of ``w``.
    """
    e = params.input_size
    if x.data.ndim not in (1, 2) or x.shape[-1] != e:
        raise ShapeError(f"lstm_input: {x.shape} for input size {e}")
    w_x = params.w.data[:e]
    data = x.data @ w_x + params.b.data
    tape = _ACTIVE_TAPE
    nx, x_data = x.node, x.data

    def backward(g):
        if nx is not None:
            nx.accumulate(g @ w_x.T)
        params.b.node.accumulate(_unbroadcast(g, params.b.shape))
        tape._defer(params.w, x_data.reshape(-1, e),
                    g.reshape(-1, g.shape[-1]))
    return _make(data, backward, "lstm_input")


def lstm_cell(zx: Tensor, h: Tensor, c: Tensor, params: LstmParams):
    """One step of a standard LSTM on the projected input ``zx`` of
    `lstm_input`; works on vectors or (batch, dim) rows.

    ``z = zx + h @ w[E:]``; the gates and the state update are two nodes,
    the new cell state and then the new hidden state.  The hidden state's
    backward hands its gradient to the cell state's, which passes dz to
    ``zx`` and ``h`` and defers the weight gradient into the rows
    ``[E:]`` of ``w``.
    """
    n, e = params.hidden_size, params.input_size
    if zx.shape[-1] != 4 * n or h.shape != zx.shape[:-1] + (n,):
        raise ShapeError(f"lstm_cell: input {zx.shape} and hidden state "
                         f"{h.shape} for hidden size {n}")
    w_h = params.w.data[e:]
    z = h.data @ w_h
    z += zx.data
    s = _lstm_gates(z, n)
    f, g, o = s[..., n:2 * n], s[..., 2 * n:3 * n], s[..., 3 * n:]
    c_data = f * c.data + s[..., :n] * g
    tc = np.tanh(c_data)
    tape = _ACTIVE_TAPE
    nzx, nh, nc = zx.node, h.node, c.node
    h_prev, c_prev = h.data, c.data
    dh = []     # the new hidden state's gradient, once its backward ran

    def backward_c(dc):
        dh_o = dh[0] if dh else np.zeros_like(dc)
        dz = np.concatenate([dc, dc, dc, dh_o], axis=-1) \
            * _lstm_slopes(s, c_prev, tc, n)
        if nzx is not None:
            nzx.accumulate(dz)
        if nh is not None:
            nh.accumulate(dz @ w_h.T)
        tape._defer(params.w, h_prev.reshape(-1, n), dz.reshape(-1, 4 * n),
                    start=e)
        if nc is not None:
            nc.accumulate(_unbroadcast(dc * f, c_prev.shape))

    def backward_h(g_h):
        dh.append(g_h)
        c_node.accumulate(g_h * o * (1.0 - tc * tc))

    c_new = _make(c_data, backward_c, "lstm_cell")
    c_node = c_new.node
    h_new = _make(o * tc, backward_h, "lstm_cell")
    return h_new, c_new


def lstm_scan(zx: Tensor, parents, h0: Tensor, c0: Tensor,
              params: LstmParams) -> Tensor:
    """`lstm_cell` over every row of ``zx`` (T, 4 * hidden), the projected
    input of `lstm_input`, one level of the ``parents`` forest at a time.

    Row t continues the state of row ``parents[t]``, which must lie below
    t, or starts from the vectors (h0, c0) where ``parents[t] == -1``.  A
    chain gives a sequence LSTM, a stack pointer the stack-LSTM.  Returns
    the (T, hidden) hidden rows, in input order.  The rows at one depth are
    a level (Looks et al. 2017), one `lstm_cell` on their ``zx`` rows and
    their parents' states from the level below: a gather, or a `narrow`
    where row j continues row j below, as in chains laid out longest
    first.  Constant initial states stay constants.
    """
    n = params.hidden_size
    if zx.data.ndim != 2 or zx.shape[1] != 4 * n:
        raise ShapeError(f"lstm_scan: rows {zx.shape} for hidden size {n}")
    if h0.shape != (n,) or c0.shape != (n,):
        raise ShapeError(f"lstm_scan: initial state {h0.shape}, {c0.shape} "
                         f"for hidden size {n}")
    steps = zx.shape[0]
    parents = np.asarray(parents, dtype=np.int64)
    if parents.shape != (steps,) or np.any(parents < -1) \
            or np.any(parents >= np.arange(steps)):
        raise ShapeError(f"lstm_scan: parents must hold one index in "
                         f"-1..t-1 per row t of {steps}")
    if not steps:
        return constant(np.zeros((0, n)), zx.dtype)
    depth = []
    for p in parents.tolist():
        depth.append(depth[p] + 1 if p >= 0 else 0)
    depth = np.array(depth, dtype=np.int64)
    order = np.argsort(depth, kind="stable")     # level by level
    first = np.concatenate([[0], np.cumsum(np.bincount(depth))])
    rank = np.empty_like(order)
    rank[order] = np.arange(steps)
    slot = rank - first[depth]                   # a row's place in its level
    parent_slot = slot[parents[order]]           # in level order
    continues = np.logical_and.reduceat(
        (parent_slot == slot[order]) | (depth[order] == 0),
        first[:-1]).tolist()
    in_order = bool((rank == np.arange(steps)).all())
    if h0.node is None:
        h = constant(np.broadcast_to(h0.data, (first[1], n)), h0.dtype)
    else:
        h = add(constant(np.zeros((first[1], n)), h0.dtype), h0)
    c = c0       # broadcast by `lstm_cell`
    levels = []
    try:
        for start, stop, continued in zip(first.tolist(),
                                          first[1:].tolist(), continues):
            if not continued:
                index = parent_slot[start:stop]
                h, c = rows(h, index), rows(c, index)
            elif stop - start < h.shape[0]:
                h, c = narrow(h, 0, 0, stop - start), \
                    narrow(c, 0, 0, stop - start)
            h, c = lstm_cell(narrow(zx, 0, start, stop) if in_order
                             else rows(zx, order[start:stop]), h, c, params)
            levels.append(h)
    except NonFiniteError as e:
        raise NonFiniteError(f"lstm_scan: {e}") from e
    hs = concat(levels) if len(levels) > 1 else levels[0]
    return hs if in_order else rows(hs, rank)


_INIT_CHUNK = 65536


def uniform_init(rng, shape, scale=0.1, dtype=np.float32):
    """Seeded uniform weights in [-scale, scale]; biases stay zero elsewhere.

    The float64 draws fill an array of ``dtype`` _INIT_CHUNK values at a
    time, so no full-size float64 array is made.  The values, and the
    generator's state after, are those of one full-size draw cast to
    ``dtype``: the draws come from the same stream in the same order.
    """
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _INIT_CHUNK):
        stop = min(start + _INIT_CHUNK, flat.size)
        flat[start:stop] = rng.uniform(-scale, scale, size=stop - start)
    return out


def zero_grads(params):
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------

_MAGIC = b"TSCKPT01"
_MAX_NDIM = 32
_READ_BLOCK = 1 << 20
_DTYPE_CODES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def save_checkpoint(path, params, metadata=None):
    """Write named parameter arrays plus a metadata record; see module doc.

    The header and each record go straight to the file (`atomic_output`)
    under a running CRC, so no copy of the records is built; an array
    already C-ordered in its little-endian dtype is written as it stands.
    """
    params = list(params)
    if len({p.name for p in params}) != len(params):
        raise CheckpointError("duplicate parameter names")
    meta = json.dumps(metadata or {}).encode("utf-8")
    crc = 0
    with atomic_output(path, binary=True) as fh:
        def write(chunk):
            nonlocal crc
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)

        write(_MAGIC + struct.pack("<I", len(meta)) + meta
              + struct.pack("<I", len(params)))
        for p in params:
            encoded = p.name.encode("utf-8")
            code = 8 if p.data.dtype == np.float64 else 4
            write(struct.pack("<H", len(encoded)) + encoded + struct.pack(
                f"<BB{p.data.ndim}I", code, p.data.ndim, *p.data.shape))
            write(np.ascontiguousarray(p.data, dtype=_DTYPE_CODES[code]))
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def load_checkpoint(path):
    """Read a checkpoint; returns (name -> array dict, metadata dict).
    The CRC is checked first, _READ_BLOCK bytes at a time; each record is
    then read (``readinto``) into its own array, so no copy is held."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(_MAGIC) + 8 or fh.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        left = size - len(_MAGIC) - 4     # the bytes between magic and CRC
        crc = zlib.crc32(_MAGIC)
        for start in range(0, left, _READ_BLOCK):
            crc = zlib.crc32(fh.read(min(_READ_BLOCK, left - start)), crc)
        if struct.unpack("<I", fh.read(4))[0] != crc:
            raise CheckpointError(f"{path}: checksum mismatch")
        fh.seek(len(_MAGIC))

        def take(n):
            nonlocal left
            if left < n:
                raise CheckpointError(f"{path}: truncated")
            left -= n
            return fh.read(n)

        def text(n):
            try:
                return take(n).decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"{path}: text is not UTF-8: {e}") from e

        meta_len = struct.unpack("<I", take(4))[0]
        try:
            metadata = json.loads(text(meta_len))
        except json.JSONDecodeError as e:
            raise CheckpointError(f"{path}: metadata is not JSON: {e}") from e
        if not isinstance(metadata, dict):
            raise CheckpointError(f"{path}: metadata is not a JSON object")
        count = struct.unpack("<I", take(4))[0]
        arrays = {}
        for _ in range(count):
            name_len = struct.unpack("<H", take(2))[0]
            name = text(name_len)
            if name in arrays:
                raise CheckpointError(f"{path}: parameter {name!r} repeated")
            code, ndim = struct.unpack("<BB", take(2))
            if code not in _DTYPE_CODES:
                raise CheckpointError(f"{path}: unknown dtype code {code}")
            if ndim > _MAX_NDIM:
                raise CheckpointError(f"{path}: parameter {name!r} has {ndim} "
                                      f"dimensions, at most {_MAX_NDIM} "
                                      f"allowed")
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            dtype = _DTYPE_CODES[code]
            # Python ints: a product of u32 dimensions must not wrap around
            nbytes = math.prod(shape) * dtype.itemsize
            if nbytes > left:
                raise CheckpointError(
                    f"{path}: parameter {name!r} of shape {shape} needs "
                    f"{nbytes} bytes, {left} left")
            arrays[name] = np.empty(shape, dtype=dtype)
            left -= nbytes
            if fh.readinto(arrays[name]) != nbytes:
                raise CheckpointError(f"{path}: truncated")
            if not np.isfinite(arrays[name]).all():
                raise CheckpointError(
                    f"{path}: parameter {name!r} holds non-finite values")
    if left:
        raise CheckpointError(
            f"{path}: {left} trailing bytes after the last record")
    return arrays, metadata
