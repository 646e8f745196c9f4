"""Reverse-mode automatic differentiation on a flat tape of 2-D float64 arrays.

The engine is deliberately small: a fixed set of primitives, each with a
hand-written backward rule, recorded on an append-only tape in evaluation
order. Values are always dense 2-D arrays of 64-bit reals; vectors are
columns, scalars are (1, 1). There is no broadcasting: shapes must conform
exactly, and a bias is broadcast by multiplying with an explicit ones row.

Column-wise batches (one sample per column) fall out of the shape rules for
free, because every primitive either acts element-wise or contracts over
rows only.

The same expression helpers (``matmul``, ``sin``, ``rows``, ...) accept
plain ndarrays and then evaluate eagerly without recording, so model code
written against them runs both taped (training) and tape-free (evaluation).

Three fused primitives collapse the blocks that run at every time step into
one node each: ``lstm_cell`` (one recurrent cell, value ``[h'; c']``; its
pre-activation is one GEMM of the packed weights ``[W U b]`` over the block
``[x; h; 1]``, see ``LstmPack``), ``affine`` (``W x + b 1'``) and
``fbsde_step`` (the coupled state/value update, value ``[x'; y']``; its
constant matrices are folded once per rollout, see ``StepFold``). Each has
one forward kernel, shared by the taped and the tape-free path, and one
hand-written backward, a pure function from (output cotangent, input values,
saved) to input cotangents (``lstm_cell_vjp``, ``affine_vjp`` with
``weight_vjp``, ``fbsde_step_vjp``). A fused node keeps what its backward
needs (gate activations, intermediate products, the step constants) in its
``aux``; only ``value`` counts as the node's output.

A fourth, ``column_map``, is the generic form: the caller supplies the
forward ``fn(x) -> (value, saved)`` and its vector-Jacobian product
``vjp(g, x, saved) -> dx``. The system drifts and the quadratic costs are
written this way, so each records one node per call.

Training does not tape its rollout. It runs it tape-free inside ``saving``,
which logs each fused call's inputs and saved arrays, and the adjoint
``fbsde.rollout_adjoint`` calls the same backward functions on them; the tape
holds only the loss head. Taping the whole rollout remains the gradient
oracle for tests and the audit.

The sigmoid is NumPy's own ``0.5 tanh(a / 2) + 0.5`` (``_sigmoid``); the
package needs no special-function library. The LSTM cell folds the ``a / 2``
into its packed weights: their sigmoid rows are stored halved, which is exact,
so one tanh covers all gate rows and the result is still ``_sigmoid``'s to the
bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, NamedTuple, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands passed to a primitive do not conform."""


class NonFiniteProbe(FloatingPointError):
    """A finite-difference probe produced a non-finite function value."""


def as_matrix(value) -> np.ndarray:
    """Coerce scalars / 1-D vectors / 2-D arrays to a float64 matrix.

    1-D input becomes a column vector; scalars become (1, 1).
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ShapeError(f"values must be at most 2-D, got shape {arr.shape}")
    return arr


class Var:
    """Handle to one tape node: (tape, index). Shape is fixed at creation."""

    __slots__ = ("tape", "idx")
    # keep numpy from consuming Var operands so __r*__ methods fire
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape._nodes[self.idx].value

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Var(idx={self.idx}, shape={self.shape})"

    # arithmetic sugar; scalars multiply via scalar-multiply, everything else
    # must conform exactly
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return smul(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __neg__(self):
        return smul(self, -1.0)


class _Node:
    __slots__ = ("op", "inputs", "value", "aux")

    def __init__(self, op: str, inputs: tuple[int, ...], value: np.ndarray, aux):
        self.op = op
        self.inputs = inputs
        self.value = value
        self.aux = aux


# public names of the primitive set, used in diagnostics and the gradient audit
PRIMITIVES = {
    "matmul": "matrix-multiply",
    "add": "add",
    "sub": "subtract",
    "mul": "element-multiply",
    "smul": "scalar-multiply",
    "tanh": "tanh",
    "sigmoid": "sigmoid",
    "sin": "sin",
    "cos": "cos",
    "sum": "sum",
    "sumsq": "sum-of-squares",
    "vstack": "concat-rows",
    "rows": "slice-rows",
    "lstm_cell": "lstm-cell",
    "affine": "affine",
    "fbsde_step": "fbsde-step",
    "column_map": "column-map",
}


def _sigmoid(a, out=None):
    """Logistic function as 0.5 tanh(a / 2) + 0.5, in place when ``out`` is given.

    NumPy ufuncs only; it cannot overflow, maps -inf and +inf to exactly 0
    and 1, propagates NaN and is within 2.3e-16 absolute of the exact value.
    The LSTM kernel, the taped primitive and the eager helper all call it,
    so they agree bit for bit.
    """
    half = np.tanh(np.multiply(a, 0.5, out=out), out=out)
    half *= 0.5
    half += 0.5
    return half


def _same_shape(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(
            f"{PRIMITIVES[op]}: operand shapes {a.shape} and {b.shape} must match"
        )


def _forward(op: str, vals: tuple[np.ndarray, ...], aux) -> np.ndarray:
    if op == "matmul":
        a, b = vals
        if a.shape[1] != b.shape[0]:
            raise ShapeError(
                f"matrix-multiply: inner dimensions {a.shape} @ {b.shape} do not conform"
            )
        return a @ b
    if op == "add":
        _same_shape(op, *vals)
        return vals[0] + vals[1]
    if op == "sub":
        _same_shape(op, *vals)
        return vals[0] - vals[1]
    if op == "mul":
        _same_shape(op, *vals)
        return vals[0] * vals[1]
    if op == "smul":
        return vals[0] * aux
    if op == "tanh":
        return np.tanh(vals[0])
    if op == "sigmoid":
        return _sigmoid(vals[0])
    if op == "sin":
        return np.sin(vals[0])
    if op == "cos":
        return np.cos(vals[0])
    if op == "sum":
        return np.sum(vals[0]).reshape(1, 1)
    if op == "sumsq":
        return np.sum(vals[0] * vals[0]).reshape(1, 1)
    if op == "vstack":
        widths = {v.shape[1] for v in vals}
        if len(widths) > 1:
            raise ShapeError(
                f"concat-rows: column counts differ: {[v.shape for v in vals]}"
            )
        return np.vstack(vals)
    if op == "rows":
        lo, hi = aux
        nrows = vals[0].shape[0]
        if not (0 <= lo < hi <= nrows):
            raise ShapeError(
                f"slice-rows: bounds [{lo}, {hi}) invalid for {vals[0].shape}"
            )
        return vals[0][lo:hi]
    raise KeyError(f"unknown primitive {op!r}")


def _acc(grads: list, idx: int, piece: np.ndarray) -> None:
    cur = grads[idx]
    grads[idx] = piece if cur is None else cur + piece


def _backward(node: _Node, g: np.ndarray, grads: list, values) -> None:
    op = node.op
    ins = node.inputs
    if op == "matmul":
        a, b = values(ins[0]), values(ins[1])
        _acc(grads, ins[0], g @ b.T)
        _acc(grads, ins[1], a.T @ g)
    elif op == "add":
        _acc(grads, ins[0], g)
        _acc(grads, ins[1], g)
    elif op == "sub":
        _acc(grads, ins[0], g)
        _acc(grads, ins[1], -g)
    elif op == "mul":
        _acc(grads, ins[0], g * values(ins[1]))
        _acc(grads, ins[1], g * values(ins[0]))
    elif op == "smul":
        _acc(grads, ins[0], g * node.aux)
    elif op == "tanh":
        _acc(grads, ins[0], g * (1.0 - node.value * node.value))
    elif op == "sigmoid":
        _acc(grads, ins[0], g * node.value * (1.0 - node.value))
    elif op == "sin":
        _acc(grads, ins[0], g * np.cos(values(ins[0])))
    elif op == "cos":
        _acc(grads, ins[0], -g * np.sin(values(ins[0])))
    elif op == "sum":
        _acc(grads, ins[0], np.full(values(ins[0]).shape, g[0, 0]))
    elif op == "sumsq":
        _acc(grads, ins[0], (2.0 * g[0, 0]) * values(ins[0]))
    elif op == "vstack":
        off = 0
        for i in ins:
            r = values(i).shape[0]
            _acc(grads, i, g[off : off + r])
            off += r
    elif op == "rows":
        lo, hi = node.aux
        full = np.zeros(values(ins[0]).shape)
        full[lo:hi] = g
        _acc(grads, ins[0], full)
    elif op in _FUSED:
        vals = tuple(values(i) for i in ins)
        if op == "lstm_cell":
            d_x, d_h, d_c, d_pre = lstm_cell_vjp(g, vals, node.aux)
            d_w = d_pre @ lstm_block(vals[3], vals[4]).T
            pieces = (*unpack_lstm(d_w, vals[3].shape[0]), d_x, d_h, d_c)
        elif op == "affine":
            d_w, d_b = weight_vjp(g, vals[1])
            pieces = (d_w, affine_vjp(g, vals), d_b)
        elif op == "fbsde_step":
            pieces = fbsde_step_vjp(g[:-1], g[-1:], vals, node.aux)
        else:
            vjp, saved = node.aux
            pieces = (vjp(g, vals[0], saved),)
        for i, piece in zip(ins, pieces):
            _acc(grads, i, piece)
    # leaf / const: nothing flows further


# ---------------------------------------------------------------------------
# fused primitives. Each forward kernel maps the input values to
# (value, saved); the taped path stores ``saved`` as the node's aux for the
# backward, the tape-free path drops it (or, inside ``saving``, logs it). The
# kernels keep the operation order of the element-wise compositions they
# replace, so tape-free results are bit-identical to those compositions.
#
# Each backward is a pure function from (output cotangent, input values,
# saved) to input cotangents. ``Tape.backward`` and the training adjoint
# (``fbsde.rollout_adjoint``) call the same ones. The weight cotangents come
# from the cotangent of the pre-activation: ``d_pre @ lstm_block(x, h).T``
# for the packed [W U b] of ``lstm_cell`` (split by ``unpack_lstm``),
# ``weight_vjp`` for ``affine``; the adjoint sums them over the time steps.


class LstmPack(NamedTuple):
    """One LSTM layer's weights packed for the one-GEMM cell on M columns;
    not differentiable.

    ``gates`` is [W U b], (4h, d + h + 1), with the sigmoid rows (input,
    forget, output) halved, so ``gates @ [x; h; 1]`` is the candidate row's
    pre-activation and half of each sigmoid row's: the argument of the tanh
    in sigma(a) = 0.5 tanh(a / 2) + 0.5. Halving is exact (barring subnormal
    weights), so the product equals 0.5 ([W U b] @ [x; h; 1]) bit for bit.
    ``wu`` is [W U] unscaled, whose transpose maps the pre-activation
    cotangent to those of x and h. ``block`` (d + h + 1, M) is where each
    cell writes its [x; h; 1]: no cell keeps its block, so one scratch array
    serves every cell of a rollout, and a pack serves one rollout at a time.
    """

    gates: np.ndarray
    wu: np.ndarray
    block: np.ndarray


def pack_lstm(W, U, b, block: np.ndarray) -> LstmPack:
    """The ``LstmPack`` of (W, U, b) with the scratch ``block``; the weights
    are copied, so the pack is stale once they change."""
    hid = U.shape[1]
    wu = np.hstack((W, U))
    gates = np.hstack((wu, b))
    gates[: 2 * hid] *= 0.5
    gates[3 * hid :] *= 0.5
    return LstmPack(gates, wu, block)


def unpack_lstm(packed, d: int):
    """Split an array laid out like [W U b] into its (W, U, b) columns;
    ``d`` is the input size."""
    return packed[:, :d], packed[:, d:-1], packed[:, -1:]


def lstm_block(x, h, out=None):
    """The block [x; h; 1] that the packed [W U b] multiplies (written into
    ``out`` when given)."""
    if out is None:
        out = np.empty((x.shape[0] + h.shape[0] + 1, x.shape[1]))
    out[: x.shape[0]] = x
    out[x.shape[0] : -1] = h
    out[-1] = 1.0
    return out


def _lstm_cell_kernel(vals, pack):
    """Gates from one GEMM ``[W U b] [x; h; 1]``; returns [h'; c'] and
    (activations, tanh c', the pack).

    ``pack`` is ``pack_lstm(W, U, b, scratch)``, built here when None. With
    the sigmoid rows of the pack already halved, one tanh covers all 4h gate
    rows and the sigmoid rows only need ``* 0.5 + 0.5``. The block goes into
    the pack's scratch and is not saved: a backward rebuilds it from x and h,
    which it has anyway, so no call keeps a copy of its inputs.
    """
    W, U, b, x, h_prev, c_prev = vals
    hid = U.shape[1]
    d, cols = x.shape
    if (W.shape != (4 * hid, d) or U.shape[0] != 4 * hid or b.shape != (4 * hid, 1)
            or h_prev.shape != (hid, cols) or c_prev.shape != h_prev.shape):
        raise ShapeError(
            f"lstm-cell: W {W.shape}, U {U.shape}, b {b.shape}, x {x.shape}, "
            f"h {h_prev.shape}, c {c_prev.shape} do not conform"
        )
    if pack is None:
        pack = pack_lstm(W, U, b, np.empty((d + hid + 1, cols)))
    elif pack.gates.shape != (4 * hid, d + hid + 1) or pack.block.shape != (d + hid + 1, cols):
        raise ShapeError(f"lstm-cell: pack {pack.gates.shape} for {pack.block.shape[1]} columns "
                         f"does not fit W {W.shape}, U {U.shape}, x {x.shape}")
    # rows (input, forget, candidate, output); activations in place
    act = pack.gates @ lstm_block(x, h_prev, pack.block)
    np.tanh(act, out=act)
    for gate in (act[: 2 * hid], act[3 * hid :]):
        gate *= 0.5
        gate += 0.5
    gate_i, gate_f = act[:hid], act[hid : 2 * hid]
    cand, gate_o = act[2 * hid : 3 * hid], act[3 * hid :]
    out = np.empty((2 * hid, cols))
    c_new = np.multiply(gate_f, c_prev, out=out[hid:])
    tanh_c = np.multiply(gate_i, cand)
    c_new += tanh_c
    np.tanh(c_new, out=tanh_c)
    np.multiply(gate_o, tanh_c, out=out[:hid])
    return out, (act, tanh_c, pack)


def lstm_cell_vjp(g, vals, saved, d_pre=None):
    """Cotangents of (x, h, c) from g = [g_h'; g_c'], and the cotangent
    ``d_pre`` of the pre-activation ``[W U b] [x; h; 1]`` (written into
    ``d_pre`` when given); ``d_pre @ lstm_block(x, h).T`` is that of [W U b]."""
    x, c_prev = vals[3], vals[5]
    act, tanh_c, pack = saved
    hid = tanh_c.shape[0]
    gate_i, gate_f = act[:hid], act[hid : 2 * hid]
    cand, gate_o = act[2 * hid : 3 * hid], act[3 * hid :]
    g_h, g_c = g[:hid], g[hid:]
    d_c = g_h * gate_o
    d_c *= 1.0 - tanh_c * tanh_c
    d_c += g_c
    # gradient at the activations, then through them to the pre-activations
    if d_pre is None:
        d_pre = np.empty_like(act)
    np.multiply(d_c, cand, out=d_pre[:hid])
    np.multiply(d_c, c_prev, out=d_pre[hid : 2 * hid])
    np.multiply(d_c, gate_i, out=d_pre[2 * hid : 3 * hid])
    np.multiply(g_h, tanh_c, out=d_pre[3 * hid :])
    slope = act * (1.0 - act)
    slope[2 * hid : 3 * hid] = 1.0 - cand * cand
    d_pre *= slope
    d_xh = pack.wu.T @ d_pre
    return d_xh[: x.shape[0]], d_xh[x.shape[0] :], d_c * gate_f, d_pre


def weight_vjp(d, x):
    """Cotangents of (W, b) in ``W x + b 1'`` from the output cotangent d."""
    return d @ x.T, d.sum(axis=1, keepdims=True)


def _affine_kernel(vals, aux):
    """``W x + b 1'``."""
    W, x, b = vals
    if W.shape[1] != x.shape[0] or b.shape != (W.shape[0], 1):
        raise ShapeError(f"affine: W {W.shape}, x {x.shape}, b {b.shape} do not conform")
    out = W @ x
    out += b
    return out, None


def affine_vjp(g, vals):
    """Cotangent of x; ``weight_vjp(g, x)`` gives those of (W, b)."""
    return vals[0].T @ g


class StepFold(NamedTuple):
    """The constant matrices of ``fbsde_step``, folded once (``fold_step``)."""

    k: np.ndarray  # (m, m); Gamma_u u* + v* = K z: Gamma_u gain [+ I / epsilon]
    q: np.ndarray  # (m, m); (K + S / 2) dt, S the generator's quadratic form
    g: np.ndarray  # (n, m); dt Sigma K
    ones: np.ndarray  # (1, m); the column-sum row


class StepConstants(NamedTuple):
    """The non-differentiable inputs of one ``fbsde_step``.

    ``inv_eps`` scales the adversary v* = z / epsilon; None leaves the
    adversary out of the drift change altogether. ``fold`` is their ``fold_step``.
    """

    dw: np.ndarray  # (m, M) unit-normal increments
    gamma_u: np.ndarray  # (m, p)
    gain: np.ndarray  # (p, m); u* = gain z
    s_mat: np.ndarray  # (m, m); generator quadratic form
    sigma: np.ndarray  # (n, m)
    dt: float
    sqdt: float
    inv_eps: float | None
    fold: StepFold | None = None


def fold_step(c: StepConstants) -> StepFold:
    """K, Q and G of ``c``; with the adversary off, K has no I / epsilon term at all."""
    k = c.gamma_u @ c.gain
    if c.inv_eps is not None:
        k += np.eye(k.shape[0]) * c.inv_eps
    return StepFold(k, (k + c.s_mat * 0.5) * c.dt, (c.sigma @ k) * c.dt, np.ones((1, len(k))))


def _fbsde_step_kernel(vals, c: StepConstants):
    """Euler step of the state and the compensated value; returns [x'; y'].

    w = Q z + dw sqrt(dt), y' = y - q dt + 1'(z * w) and
    x' = x + f dt + G z + Sigma dw sqrt(dt), with Q and G from the fold.
    """
    x, y, z, f, q = vals
    n, cols = x.shape
    m = z.shape[0]
    if (y.shape != (1, cols) or z.shape[1] != cols or f.shape != x.shape
            or q.shape != (1, cols) or c.dw.shape != z.shape or c.sigma.shape != (n, m)):
        raise ShapeError(
            f"fbsde-step: x {x.shape}, y {y.shape}, z {z.shape}, f {f.shape}, "
            f"q {q.shape}, dw {c.dw.shape}, sigma {c.sigma.shape} do not conform"
        )
    fold = c.fold if c.fold is not None else fold_step(c)
    dw_hat = c.dw * c.sqdt
    w = fold.q @ z + dw_hat
    out = np.empty((n + 1, cols))
    out[n:] = y - q * c.dt + fold.ones @ (z * w)
    out[:n] = x + f * c.dt + fold.g @ z + c.sigma @ dw_hat
    return out, (fold, w, c.dt)


def fbsde_step_vjp(g_x, g_y, vals, saved):
    """Cotangents of (x, y, z, f, q) from those of x' and y'."""
    fold, w, dt = saved
    d_z = g_y * w
    d_z += fold.q.T @ (g_y * vals[2])
    d_z += fold.g.T @ g_x
    return g_x, g_y, d_z, g_x * dt, g_y * -dt


def _column_map_kernel(vals, aux):
    """``fn(x)``, whose value must keep the column count of x."""
    fn, vjp = aux
    (x,) = vals
    out, saved = fn(x)
    if out.ndim != 2 or out.shape[1] != x.shape[1]:
        raise ShapeError(f"column-map: value {out.shape} from input {x.shape} changes the columns")
    return out, (vjp, saved)


_FUSED = {
    "lstm_cell": _lstm_cell_kernel,
    "affine": _affine_kernel,
    "fbsde_step": _fbsde_step_kernel,
    "column_map": _column_map_kernel,
}


class Tape:
    """Append-only record of primitive applications, in evaluation order.

    Node indices are a topological order by construction, so the reverse
    pass is a single deterministic backward sweep over indices.
    """

    def __init__(self):
        self._nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def value(self, idx: int) -> np.ndarray:
        return self._nodes[idx].value

    def _record(self, op: str, inputs: tuple[int, ...], value: np.ndarray, aux=None) -> Var:
        self._nodes.append(_Node(op, inputs, value, aux))
        return Var(self, len(self._nodes) - 1)

    def leaf(self, value) -> Var:
        """A differentiable input (weights, initial conditions)."""
        return self._record("leaf", (), as_matrix(value))

    def constant(self, value) -> Var:
        """A non-differentiable input (data, fixed matrices)."""
        return self._record("const", (), as_matrix(value))

    def apply(self, op: str, *inputs: Var, aux=None) -> Var:
        if op not in PRIMITIVES:
            raise KeyError(f"unknown primitive {op!r}")
        for v in inputs:
            if not isinstance(v, Var) or v.tape is not self:
                raise ValueError(f"{PRIMITIVES[op]}: inputs must be Vars of this tape")
        vals = tuple(v.value for v in inputs)
        kernel = _FUSED.get(op)
        if kernel is None:
            out = _forward(op, vals, aux)
        else:
            out, aux = kernel(vals, aux)
        return self._record(op, tuple(v.idx for v in inputs), out, aux)

    def backward(self, output: Var, wrt: Sequence[Var]) -> list[np.ndarray]:
        """Gradients of a scalar-valued node with respect to the given Vars.

        Visits each node at most once, in reverse creation order, accumulating
        additively over fan-out. Pure function of the tape: repeated calls
        return bit-identical arrays.
        """
        if output.tape is not self:
            raise ValueError("backward: output Var is not on this tape")
        if output.shape != (1, 1):
            raise ShapeError(
                f"backward: output must be scalar (1, 1), got {output.shape}"
            )
        nodes = self._nodes
        grads: list = [None] * len(nodes)
        grads[output.idx] = np.ones((1, 1))
        values = self.value
        for idx in range(output.idx, -1, -1):
            g = grads[idx]
            if g is None:
                continue
            node = nodes[idx]
            if node.op == "leaf" or node.op == "const":
                continue
            _backward(node, g, grads, values)
        out = []
        for v in wrt:
            if v.tape is not self:
                raise ValueError("backward: requested Var is not on this tape")
            g = grads[v.idx]
            out.append(np.zeros(v.shape) if g is None else g)
        return out


def _lift(tape: Tape, x) -> Var:
    if isinstance(x, Var):
        if x.tape is not tape:
            raise ValueError("operands belong to different tapes")
        return x
    return tape.constant(x)


def _tape_of(*args) -> Tape | None:
    for a in args:
        if isinstance(a, Var):
            return a.tape
    return None


# ---------------------------------------------------------------------------
# dual-mode expression helpers: operate on Vars (recording) or ndarrays (eager)


def matmul(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    return tape.apply("matmul", _lift(tape, a), _lift(tape, b))


def add(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.asarray(a) + np.asarray(b)
    return tape.apply("add", _lift(tape, a), _lift(tape, b))


def sub(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.asarray(a) - np.asarray(b)
    return tape.apply("sub", _lift(tape, a), _lift(tape, b))


def mul(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.asarray(a) * np.asarray(b)
    return tape.apply("mul", _lift(tape, a), _lift(tape, b))


def smul(x, c: float):
    if isinstance(x, Var):
        return x.tape.apply("smul", x, aux=float(c))
    return np.asarray(x) * float(c)


def tanh(x):
    if isinstance(x, Var):
        return x.tape.apply("tanh", x)
    return np.tanh(x)


def sigmoid(x):
    if isinstance(x, Var):
        return x.tape.apply("sigmoid", x)
    return _sigmoid(x)


def sin(x):
    if isinstance(x, Var):
        return x.tape.apply("sin", x)
    return np.sin(x)


def cos(x):
    if isinstance(x, Var):
        return x.tape.apply("cos", x)
    return np.cos(x)


def total(x):
    """Sum of all entries, as a (1, 1) matrix."""
    if isinstance(x, Var):
        return x.tape.apply("sum", x)
    return np.sum(np.asarray(x)).reshape(1, 1)


def sumsq(x):
    """Sum of squared entries, as a (1, 1) matrix."""
    if isinstance(x, Var):
        return x.tape.apply("sumsq", x)
    arr = np.asarray(x)
    return np.sum(arr * arr).reshape(1, 1)


def vstack(parts: Sequence):
    tape = _tape_of(*parts)
    if tape is None:
        return np.vstack([np.asarray(p) for p in parts])
    return tape.apply("vstack", *[_lift(tape, p) for p in parts])


def rows(x, lo: int, hi: int):
    if type(x) is np.ndarray:
        return x[lo:hi]
    if isinstance(x, Var):
        return x.tape.apply("rows", x, aux=(int(lo), int(hi)))
    return np.asarray(x)[lo:hi]


def colsum(x):
    """Column sums: contract an (r, c) value to (1, c) via a ones row."""
    if isinstance(x, Var):
        left = x.tape.constant(np.ones((1, x.shape[0])))
        return x.tape.apply("matmul", left, x)
    arr = np.asarray(x)
    return np.ones((1, arr.shape[0])) @ arr


_FLOAT64 = np.dtype(np.float64)  # the one native float64 dtype instance
# the list that ``saving`` fills; None outside its block. A context variable,
# like NumPy's errstate, so the block is scoped to its thread and context.
_saved_log: ContextVar[list | None] = ContextVar("saved_log", default=None)


@contextmanager
def saving():
    """Log every tape-free fused call made inside the block.

    Yields a list to which each call of ``lstm_cell``, ``affine``,
    ``fbsde_step`` or ``column_map`` on plain arrays appends
    ``(op, input values, saved)``, in call order; ``saved`` is what the
    primitive's backward needs (for ``column_map``, ``(vjp, saved)``). The
    values are the ones the calls computed anyway, kept rather than copied.
    Blocks do not nest.
    """
    if _saved_log.get() is not None:
        raise RuntimeError("saving blocks do not nest")
    log: list = []
    token = _saved_log.set(log)
    try:
        yield log
    finally:
        _saved_log.reset(token)


def _fused(op: str, args: tuple, aux=None):
    vals = args
    for a in args:
        if type(a) is not np.ndarray or a.dtype is not _FLOAT64:
            tape = _tape_of(*args)
            if tape is not None:
                return tape.apply(op, *[_lift(tape, a) for a in args], aux=aux)
            vals = tuple(np.asarray(a, dtype=np.float64) for a in args)
            break
    out, saved = _FUSED[op](vals, aux)
    log = _saved_log.get()
    if log is not None:
        log.append((op, vals, saved))
    return out


def lstm_cell(W, U, b, x, h, c, pack: LstmPack | None = None):
    """One LSTM cell: W (4h, d), U (4h, h), b (4h, 1), x (d, M), h and c (h, M).

    Gate rows are (input, forget, cell-candidate, output). Returns the
    stacked new state [h'; c'], (2h, M). ``pack`` is ``pack_lstm`` of
    (W, U, b) made once by the caller for many calls with the same weights;
    without it each call packs its own.
    """
    return _fused("lstm_cell", (W, U, b, x, h, c), pack)


def affine(W, x, b):
    """W x + b 1': a (k, 1) bias added to every column."""
    return _fused("affine", (W, x, b))


def fbsde_step(x, y, z, f, q, consts: StepConstants):
    """One coupled Euler step from state x (n, M), value y (1, M), value
    gradient z (m, M), drift f(x) (n, M) and running cost q(x) (1, M).
    Returns [x'; y'], (n + 1, M); see ``_fbsde_step_kernel``."""
    return _fused("fbsde_step", (x, y, z, f, q), consts)


def column_map(x, fn: Callable, vjp: Callable):
    """One node for a map of the (n, M) columns of x to (k, M).

    ``fn(x) -> (value, saved)`` is the forward on plain arrays and
    ``vjp(g, x, saved) -> dx`` its vector-Jacobian product; ``saved`` is
    whatever the forward computed that the product reuses. Tape-free, the
    call is ``fn(x)[0]``.
    """
    return _fused("column_map", (x,), (fn, vjp))


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_difference_check(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point: np.ndarray,
    step: float = 1e-6,
) -> float:
    """Compare an analytic gradient against central differences.

    ``f`` maps a flat parameter vector to ``(value, gradient)``; the gradient
    must be a flat vector of the same length. Returns the max over
    coordinates of ``|analytic - central| / max(1, |central|)``.
    """
    point = np.asarray(point, dtype=np.float64).ravel()
    value, analytic = f(point)
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    if not np.isfinite(value):
        raise NonFiniteProbe(f"function value {value!r} at the base point")
    if analytic.shape != point.shape:
        raise ShapeError(
            f"analytic gradient has shape {analytic.shape}, expected {point.shape}"
        )
    worst = 0.0
    for i in range(point.size):
        probe = point.copy()
        probe[i] = point[i] + step
        up, _ = f(probe)
        probe[i] = point[i] - step
        down, _ = f(probe)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NonFiniteProbe(
                f"non-finite probe value at coordinate {i}: f+={up!r}, f-={down!r}"
            )
        central = (up - down) / (2.0 * step)
        err = abs(analytic[i] - central) / max(1.0, abs(central))
        if err > worst:
            worst = err
    return worst
