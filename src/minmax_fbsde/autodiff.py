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
one node each: ``lstm_cell`` (one recurrent cell, value ``[h'; c']``),
``affine`` (``W x + b 1'``) and ``fbsde_step`` (the coupled state/value
update, value ``[x'; y']``). Each has one forward kernel, shared by the taped
and the tape-free path, and one hand-written backward. A fused node keeps
what its backward needs (gate activations, intermediate products, the step
constants) in its ``aux``; only ``value`` counts as the node's output.

A fourth, ``column_map``, is the generic form: the caller supplies the
forward ``fn(x) -> (value, saved)`` and its vector-Jacobian product
``vjp(g, x, saved) -> dx``. The system drifts and the quadratic costs are
written this way, so each records one node per call.

The sigmoid is NumPy's own ``0.5 tanh(a / 2) + 0.5`` (``_sigmoid``), so
importing the package does not load ``scipy.special``.
"""

from __future__ import annotations

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
    elif op == "lstm_cell":
        _lstm_cell_backward(node, g, grads, values)
    elif op == "affine":
        _affine_backward(node, g, grads, values)
    elif op == "fbsde_step":
        _fbsde_step_backward(node, g, grads, values)
    elif op == "column_map":
        vjp, saved = node.aux
        _acc(grads, ins[0], vjp(g, values(ins[0]), saved))
    # leaf / const: nothing flows further


# ---------------------------------------------------------------------------
# fused primitives. Each forward kernel maps the input values to
# (value, saved); the taped path stores ``saved`` as the node's aux for the
# backward, the tape-free path drops it. The kernels keep the operation order
# of the element-wise compositions they replace, so tape-free results are
# bit-identical to those compositions.


def _lstm_cell_kernel(vals, aux):
    """Gates from ``(W x + U h) + b 1'``; returns [h'; c'] and (activations, tanh c')."""
    W, U, b, x, h_prev, c_prev = vals
    hid = U.shape[1]
    if (W.shape[0] != 4 * hid or U.shape[0] != 4 * hid or b.shape != (4 * hid, 1)
            or W.shape[1] != x.shape[0] or h_prev.shape != (hid, x.shape[1])
            or c_prev.shape != h_prev.shape):
        raise ShapeError(
            f"lstm-cell: W {W.shape}, U {U.shape}, b {b.shape}, x {x.shape}, "
            f"h {h_prev.shape}, c {c_prev.shape} do not conform"
        )
    act = W @ x
    act += U @ h_prev
    act += b
    # rows (input, forget, candidate, output); activations in place
    _sigmoid(act[: 2 * hid], out=act[: 2 * hid])
    np.tanh(act[2 * hid : 3 * hid], out=act[2 * hid : 3 * hid])
    _sigmoid(act[3 * hid :], out=act[3 * hid :])
    gate_i, gate_f = act[:hid], act[hid : 2 * hid]
    cand, gate_o = act[2 * hid : 3 * hid], act[3 * hid :]
    out = np.empty((2 * hid, x.shape[1]))
    c_new = np.multiply(gate_f, c_prev, out=out[hid:])
    c_new += gate_i * cand
    tanh_c = np.tanh(c_new)
    np.multiply(gate_o, tanh_c, out=out[:hid])
    return out, (act, tanh_c)


def _lstm_cell_backward(node, g, grads, values) -> None:
    i_w, i_u, i_b, i_x, i_h, i_c = node.inputs
    act, tanh_c = node.aux
    hid = tanh_c.shape[0]
    gate_i, gate_f = act[:hid], act[hid : 2 * hid]
    cand, gate_o = act[2 * hid : 3 * hid], act[3 * hid :]
    g_h, g_c = g[:hid], g[hid:]
    d_c = g_h * gate_o
    d_c *= 1.0 - tanh_c * tanh_c
    d_c += g_c
    # gradient at the activations, then through them to the pre-activations
    d_pre = np.empty_like(act)
    np.multiply(d_c, cand, out=d_pre[:hid])
    np.multiply(d_c, values(i_c), out=d_pre[hid : 2 * hid])
    np.multiply(d_c, gate_i, out=d_pre[2 * hid : 3 * hid])
    np.multiply(g_h, tanh_c, out=d_pre[3 * hid :])
    slope = act * (1.0 - act)
    slope[2 * hid : 3 * hid] = 1.0 - cand * cand
    d_pre *= slope
    _acc(grads, i_w, d_pre @ values(i_x).T)
    _acc(grads, i_u, d_pre @ values(i_h).T)
    _acc(grads, i_b, d_pre.sum(axis=1, keepdims=True))
    _acc(grads, i_x, values(i_w).T @ d_pre)
    _acc(grads, i_h, values(i_u).T @ d_pre)
    _acc(grads, i_c, d_c * gate_f)


def _affine_kernel(vals, aux):
    """``W x + b 1'``."""
    W, x, b = vals
    if W.shape[1] != x.shape[0] or b.shape != (W.shape[0], 1):
        raise ShapeError(f"affine: W {W.shape}, x {x.shape}, b {b.shape} do not conform")
    out = W @ x
    out += b
    return out, None


def _affine_backward(node, g, grads, values) -> None:
    i_w, i_x, i_b = node.inputs
    _acc(grads, i_w, g @ values(i_x).T)
    _acc(grads, i_x, values(i_w).T @ g)
    _acc(grads, i_b, g.sum(axis=1, keepdims=True))


class StepConstants(NamedTuple):
    """The non-differentiable inputs of one ``fbsde_step``.

    ``inv_eps`` scales the adversary v* = z / epsilon; None leaves the
    adversary out of the drift change altogether.
    """

    dw: np.ndarray  # (m, M) unit-normal increments
    gamma_u: np.ndarray  # (m, p)
    gain: np.ndarray  # (p, m); u* = gain z
    s_mat: np.ndarray  # (m, m); generator quadratic form
    sigma: np.ndarray  # (n, m)
    dt: float
    sqdt: float
    inv_eps: float | None


def _fbsde_step_kernel(vals, c: StepConstants):
    """Euler step of the state and the compensated value; returns [x'; y'].

    k = Gamma_u u* + v*, h = q - 0.5 z'S z, and
    y' = y + (z'k - h) dt + z'dw sqrt(dt),
    x' = x + f dt + Sigma (k dt + dw sqrt(dt)).
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
    k = c.gamma_u @ (c.gain @ z)
    if c.inv_eps is not None:
        k += z * c.inv_eps
    ones = np.ones((1, m))
    s_z = c.s_mat @ z
    h_gen = q - (ones @ (z * s_z)) * 0.5
    z_k = ones @ (z * k)
    z_dw = ones @ (z * c.dw)
    out = np.empty((n + 1, cols))
    out[n:] = y + ((z_k - h_gen) * c.dt + z_dw * c.sqdt)
    out[:n] = x + (f * c.dt + c.sigma @ (k * c.dt + c.dw * c.sqdt))
    return out, (c, k, s_z)


def _fbsde_step_backward(node, g, grads, values) -> None:
    i_x, i_y, i_z, i_f, i_q = node.inputs
    c, k, s_z = node.aux
    n = g.shape[0] - 1
    g_x, g_y = g[:n], g[n:]
    z = values(i_z)
    a = g_y * c.dt
    half_a = 0.5 * a
    d_k = a * z + c.sigma.T @ (g_x * c.dt)
    d_z = a * k + half_a * s_z + c.s_mat.T @ (half_a * z) + (g_y * c.sqdt) * c.dw
    d_z += c.gain.T @ (c.gamma_u.T @ d_k)
    if c.inv_eps is not None:
        d_z += c.inv_eps * d_k
    _acc(grads, i_x, g_x)
    _acc(grads, i_y, g_y)
    _acc(grads, i_z, d_z)
    _acc(grads, i_f, g_x * c.dt)
    _acc(grads, i_q, -a)


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


def _fused(op: str, args: tuple, aux=None):
    tape = _tape_of(*args)
    if tape is None:
        return _FUSED[op](tuple(np.asarray(a, dtype=np.float64) for a in args), aux)[0]
    return tape.apply(op, *[_lift(tape, a) for a in args], aux=aux)


def lstm_cell(W, U, b, x, h, c):
    """One LSTM cell: W (4h, d), U (4h, h), b (4h, 1), x (d, M), h and c (h, M).

    Gate rows are (input, forget, cell-candidate, output). Returns the
    stacked new state [h'; c'], (2h, M).
    """
    return _fused("lstm_cell", (W, U, b, x, h, c))


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
