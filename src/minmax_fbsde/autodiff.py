"""Reverse-mode automatic differentiation on a flat tape of 2-D float64 arrays.

The engine is deliberately small: a fixed set of primitives recorded on an
append-only tape in evaluation order. Values are always dense 2-D arrays of
64-bit reals; vectors are columns, scalars are (1, 1). There is no
broadcasting: shapes must conform exactly; ``affine`` adds a (k, 1) bias to
every column.

Column-wise batches (one sample per column) fall out of the shape rules for
free, because every primitive either acts element-wise or contracts over
rows only.

A primitive is one value, ``Primitive(name, kernel, vjp)``: the forward
``kernel(vals, aux) -> (value, saved)`` and the hand-written backward
``vjp(g, vals, saved)``, which returns the cotangents of the input values in
order. ``Tape`` records and differentiates any primitive through these two
alone, and ``call`` runs one on its arguments, taped when any is a ``Var``
and eagerly on arrays otherwise. ``PRIMITIVES`` holds the eight the solver
runs: the loss head's ``add``, ``sub``, ``smul`` and ``sumsq``, and four
fused ones.

Three fused primitives collapse the blocks that run at every time step into
one node each: ``lstm_cell`` (one recurrent cell, value ``[h'; c']``; its
pre-activation is one GEMM of the packed weights ``[W U b]`` over the block
``[x; h; 1]``, see ``LstmPack``), ``affine`` (``W x + b 1'``) and
``fbsde_step`` (the coupled state/value update, value ``[x'; y']``; the
caller folds its constant matrices once per rollout with ``fold_step``). A
fused node keeps what its backward needs (gate activations, intermediate
products, the fold) as its ``saved``; only ``value`` counts as the node's
output. What is cheap to rebuild is not kept: the cell saves c', a view of
its own value, and its backward rebuilds tanh c' with the same ``np.tanh``,
as it rebuilds the block [x; h; 1] from its inputs. A fourth,
``column_map``, is the generic form: the caller supplies the forward
``fn(x) -> (value, saved)`` and its vector-Jacobian product
``vjp(g, x, saved) -> dx``. The system drifts and the quadratic
costs are written this way, so each records one node per call.

Training does not tape its rollout. It runs it inside ``saving``, which
logs each tape-free call's primitive, inputs and saved arrays, and the
adjoint ``fbsde.rollout_adjoint`` calls the fused primitives' backward
functions (``lstm_cell_vjp``, ``affine_vjp`` with ``weight_vjp``,
``fbsde_step_vjp``) on them; the tape holds only the loss head. The gradient
audit (``gradcheck``) takes the same log entry of one call and checks the
primitive's ``vjp`` on it. The tests' gradient oracle, ``taped_gradients``
in ``tests/reference.py``, records a whole rollout from these primitives and
``column_map`` row splits.

The one sigmoid is the LSTM cell's, NumPy's own ``0.5 tanh(a / 2) + 0.5``;
the package needs no special-function library. The cell folds the ``a / 2``
into its packed weights: their sigmoid rows are stored halved, which is exact,
so one tanh covers all gate rows.
"""

from __future__ import annotations

import math
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


class Primitive(NamedTuple):
    """One operation the tape can record: ``kernel(vals, aux) -> (value,
    saved)`` computes the value from the input values and the caller's
    non-differentiable ``aux``, keeping in ``saved`` what the backward needs;
    ``vjp(g, vals, saved)`` returns the cotangents of ``vals``, in order,
    from the output cotangent ``g``. ``name`` is its public name."""

    name: str
    kernel: Callable
    vjp: Callable


class _Node:
    __slots__ = ("prim", "inputs", "value", "saved")

    def __init__(self, prim: Primitive | None, inputs: tuple[int, ...], value: np.ndarray, saved):
        self.prim = prim  # None for a leaf
        self.inputs = inputs
        self.value = value
        self.saved = saved


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

    def _record(self, prim, inputs: tuple[int, ...], value: np.ndarray, saved=None) -> Var:
        self._nodes.append(_Node(prim, inputs, value, saved))
        return Var(self, len(self._nodes) - 1)

    def leaf(self, value) -> Var:
        """An input: weights and initial conditions, or data and fixed matrices."""
        return self._record(None, (), as_matrix(value))

    def apply(self, prim: Primitive, *inputs: Var, aux=None) -> Var:
        """Record ``prim`` on Vars of this tape; ``aux`` goes to its kernel."""
        for v in inputs:
            if not isinstance(v, Var) or v.tape is not self:
                raise ValueError(f"{prim.name}: inputs must be Vars of this tape")
        value, saved = prim.kernel(tuple(v.value for v in inputs), aux)
        return self._record(prim, tuple(v.idx for v in inputs), value, saved)

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
        for idx in range(output.idx, -1, -1):
            g = grads[idx]
            node = nodes[idx]
            if g is None or node.prim is None:  # unreached, or a leaf
                continue
            vals = tuple(nodes[i].value for i in node.inputs)
            for i, piece in zip(node.inputs, node.prim.vjp(g, vals, node.saved)):
                cur = grads[i]
                grads[i] = piece if cur is None else cur + piece
        out = []
        for v in wrt:
            if v.tape is not self:
                raise ValueError("backward: requested Var is not on this tape")
            g = grads[v.idx]
            out.append(np.zeros(v.shape) if g is None else g)
        return out


_FLOAT64 = np.dtype(np.float64)  # the one native float64 dtype instance
# the list that ``saving`` fills; None outside its block. A context variable,
# like NumPy's errstate, so the block is scoped to its thread and context.
_saved_log: ContextVar[list | None] = ContextVar("saved_log", default=None)


@contextmanager
def saving():
    """Log every tape-free primitive call made inside the block.

    Yields a list to which each ``call`` on plain arrays appends
    ``(primitive, input values, saved)``, in call order; ``saved`` is what
    the primitive's ``vjp`` needs (for ``column_map``, ``(vjp, saved)``).
    The values are the ones the calls computed anyway, kept rather than
    copied. Blocks do not nest.
    """
    if _saved_log.get() is not None:
        raise RuntimeError("saving blocks do not nest")
    log: list = []
    token = _saved_log.set(log)
    try:
        yield log
    finally:
        _saved_log.reset(token)


def call(prim: Primitive, args: tuple, aux=None):
    """``prim`` on ``args``. When any argument is a ``Var``, the call is
    recorded on its tape (the arguments that are not Vars become leaves)
    and returns a ``Var``; otherwise the kernel runs on the float64 arrays,
    the call is logged inside ``saving``, and the value is returned."""
    vals = args
    for a in args:
        if type(a) is not np.ndarray or a.dtype is not _FLOAT64:
            tape = next((v.tape for v in args if isinstance(v, Var)), None)
            if tape is not None:
                return tape.apply(prim, *[v if isinstance(v, Var) else tape.leaf(v)
                                          for v in args], aux=aux)
            vals = tuple(np.asarray(v, dtype=np.float64) for v in args)
            break
    value, saved = prim.kernel(vals, aux)
    log = _saved_log.get()
    if log is not None:
        log.append((prim, vals, saved))
    return value


# ---------------------------------------------------------------------------
# elementary primitives: the loss head


def _binary(name: str, fn: Callable, vjp: Callable) -> Primitive:
    """An element-wise primitive of two operands of one shape."""
    def kernel(vals, aux):
        a, b = vals
        if a.shape != b.shape:
            raise ShapeError(f"{name}: operand shapes {a.shape} and {b.shape} must match")
        return fn(a, b), None

    return Primitive(name, kernel, vjp)


ADD = _binary("add", np.add, lambda g, vals, _: (g, g))
SUB = _binary("subtract", np.subtract, lambda g, vals, _: (g, -g))
SMUL = Primitive("scalar-multiply", lambda vals, c: (vals[0] * c, c),
                 lambda g, vals, c: (g * c,))
SUMSQ = Primitive("sum-of-squares", lambda vals, _: (np.sum(vals[0] * vals[0]).reshape(1, 1), None),
                  lambda g, vals, _: ((2.0 * g[0, 0]) * vals[0],))


def add(a, b):
    return call(ADD, (a, b))


def sub(a, b):
    return call(SUB, (a, b))


def smul(x, c: float):
    return call(SMUL, (x,), float(c))


def sumsq(x):
    """Sum of squared entries, as a (1, 1) matrix."""
    return call(SUMSQ, (x,))


# ---------------------------------------------------------------------------
# fused primitives. Each forward kernel maps the input values to
# (value, saved); the taped path stores ``saved`` on the node for the
# backward, the tape-free path drops it (or, inside ``saving``, logs it). The
# kernels keep the operation order of the element-wise compositions they
# replace, so tape-free results are bit-identical to those compositions.
#
# Each backward is a pure function from (output cotangent, input values,
# saved) to input cotangents. The training adjoint (``fbsde.rollout_adjoint``)
# calls them directly; each primitive's ``vjp`` calls the same ones and adds
# the weight cotangents, which come from the cotangent of the
# pre-activation: ``d_pre @ lstm_block(x, h).T`` for the packed [W U b] of
# ``lstm_cell`` (split by ``unpack_lstm``), ``weight_vjp`` for ``affine``; the
# adjoint sums them over the time steps.


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
    cell writes its [x; h; 1]: ``pack_lstm`` writes its ones row once, so a
    cell writes only x and h. No cell keeps its block, so one scratch array
    serves every cell of a rollout, and a pack serves one rollout at a time.
    """

    gates: np.ndarray
    wu: np.ndarray
    block: np.ndarray


def pack_lstm(W, U, b, block: np.ndarray) -> LstmPack:
    """The ``LstmPack`` of (W, U, b) with the scratch ``block``, whose ones
    row this writes; the weights are copied, so the pack is stale once they
    change."""
    hid = U.shape[1]
    wu = np.hstack((W, U))
    gates = np.hstack((wu, b))
    gates[: 2 * hid] *= 0.5
    gates[3 * hid :] *= 0.5
    block[-1] = 1.0
    return LstmPack(gates, wu, block)


def unpack_lstm(packed, d: int):
    """Split an array laid out like [W U b] into its (W, U, b) columns;
    ``d`` is the input size."""
    return packed[:, :d], packed[:, d:-1], packed[:, -1:]


def lstm_block(x, h, out=None):
    """The block [x; h; 1] that the packed [W U b] multiplies. ``out`` is a
    pack's ``block``, whose ones row is already written, so only x and h go
    into it; without it a new block is made."""
    if out is None:
        out = np.empty((x.shape[0] + h.shape[0] + 1, x.shape[1]))
        out[-1] = 1.0
    out[: x.shape[0]] = x
    out[x.shape[0] : -1] = h
    return out


def _lstm_cell_kernel(vals, pack):
    """Gates from one GEMM ``[W U b] [x; h; 1]``; returns [h'; c'] and
    (activations, c', the pack), c' a view of that value.

    ``pack`` is ``pack_lstm(W, U, b, scratch)``, built here when None. With
    the sigmoid rows of the pack already halved, one tanh covers all 4h gate
    rows and the sigmoid rows only need ``* 0.5 + 0.5``. The block goes into
    the pack's scratch and is not saved: a backward rebuilds it from x and h,
    which it has anyway, so no call keeps a copy of its inputs. Nor is
    tanh c' saved: a backward rebuilds it from c' with the same ``np.tanh``,
    bit for bit.
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
    h_new, c_new = out[:hid], out[hid:]
    np.multiply(gate_f, c_prev, out=c_new)
    c_new += np.multiply(gate_i, cand, out=h_new)
    np.tanh(c_new, out=h_new)
    h_new *= gate_o
    return out, (act, c_new, pack)


def lstm_vjp_scratch(hid: int, cols: int) -> tuple:
    """The arrays that ``lstm_cell_vjp`` writes for a cell of ``hid`` units
    on ``cols`` columns: tanh c', the cotangent of c', the activations' slope
    and the pre-activation cotangent."""
    return (np.empty((hid, cols)), np.empty((hid, cols)),
            np.empty((4 * hid, cols)), np.empty((4 * hid, cols)))


def lstm_cell_vjp(g_h, g_c, vals, saved, scratch=None):
    """Cotangents of (x, h, c) from those of h' and c', and the cotangent
    ``d_pre`` of the pre-activation ``[W U b] [x; h; 1]``;
    ``d_pre @ lstm_block(x, h).T`` is that of [W U b].

    tanh c' is rebuilt from the saved c'. ``scratch`` is
    ``lstm_vjp_scratch`` of the cell's size, made here when None; a caller
    that passes one reuses it at every call, and the returned ``d_pre`` is
    its last array."""
    x, c_prev = vals[3], vals[5]
    act, c_new, pack = saved
    hid = c_new.shape[0]
    if scratch is None:
        scratch = lstm_vjp_scratch(hid, c_new.shape[1])
    tanh_c, d_c, slope, d_pre = scratch
    gate_i, gate_f = act[:hid], act[hid : 2 * hid]
    cand, gate_o = act[2 * hid : 3 * hid], act[3 * hid :]
    np.tanh(c_new, out=tanh_c)
    np.multiply(g_h, tanh_c, out=d_pre[3 * hid :])
    np.multiply(g_h, gate_o, out=d_c)
    tanh_c *= tanh_c
    d_c *= np.subtract(1.0, tanh_c, out=tanh_c)
    d_c += g_c
    # gradient at the activations, then through them to the pre-activations:
    # sigma (1 - sigma) on the sigmoid rows, 1 - tanh^2 on the candidate's
    np.multiply(d_c, cand, out=d_pre[:hid])
    np.multiply(d_c, c_prev, out=d_pre[hid : 2 * hid])
    np.multiply(d_c, gate_i, out=d_pre[2 * hid : 3 * hid])
    for rows in (slice(0, 2 * hid), slice(3 * hid, 4 * hid)):
        np.subtract(1.0, act[rows], out=slope[rows])
        np.multiply(act[rows], slope[rows], out=slope[rows])
    cand_slope = np.multiply(cand, cand, out=slope[2 * hid : 3 * hid])
    np.subtract(1.0, cand_slope, out=cand_slope)
    d_pre *= slope
    d_xh = pack.wu.T @ d_pre
    return d_xh[: x.shape[0]], d_xh[x.shape[0] :], d_c * gate_f, d_pre


def _lstm_cell_cotangents(g, vals, saved):
    """Cotangents of (W, U, b, x, h, c): ``lstm_cell_vjp``'s and, from its
    pre-activation cotangent, the packed [W U b]'s split into its columns."""
    hid = vals[4].shape[0]
    d_x, d_h, d_c, d_pre = lstm_cell_vjp(g[:hid], g[hid:], vals, saved)
    d_w = d_pre @ lstm_block(vals[3], vals[4]).T
    return (*unpack_lstm(d_w, vals[3].shape[0]), d_x, d_h, d_c)


LSTM_CELL = Primitive("lstm-cell", _lstm_cell_kernel, _lstm_cell_cotangents)


def lstm_cell(W, U, b, x, h, c, pack: LstmPack | None = None):
    """One LSTM cell: W (4h, d), U (4h, h), b (4h, 1), x (d, M), h and c (h, M).

    Gate rows are (input, forget, cell-candidate, output). Returns the
    stacked new state [h'; c'], (2h, M). ``pack`` is ``pack_lstm`` of
    (W, U, b) made once by the caller for many calls with the same weights;
    without it each call packs its own.
    """
    return call(LSTM_CELL, (W, U, b, x, h, c), pack)


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


def _affine_cotangents(g, vals, saved):
    """Cotangents of (W, x, b)."""
    d_w, d_b = weight_vjp(g, vals[1])
    return d_w, affine_vjp(g, vals), d_b


AFFINE = Primitive("affine", _affine_kernel, _affine_cotangents)


def affine(W, x, b):
    """W x + b 1': a (k, 1) bias added to every column."""
    return call(AFFINE, (W, x, b))


class StepFold(NamedTuple):
    """The constants of ``fbsde_step``, folded once per rollout (``fold_step``)."""

    q: np.ndarray  # (m, m); (K + S / 2) dt, S the generator's quadratic form
    g: np.ndarray  # (n, m); dt Sigma K
    sigma: np.ndarray  # (n, m)
    ones: np.ndarray  # (1, m); the column-sum row
    dt: float
    sqdt: float


def fold_step(gamma_u, gain, s_mat, sigma, dt: float, inv_eps: float | None) -> StepFold:
    """Q and G of the step with u* = gain z, generator quadratic form S and
    time step dt, from K with Gamma_u u* + v* = K z: Gamma_u gain, plus
    I / epsilon when the adversary v* = z inv_eps acts (``inv_eps`` None
    leaves it out of K altogether)."""
    k = gamma_u @ gain
    if inv_eps is not None:
        k += np.eye(k.shape[0]) * inv_eps
    return StepFold((k + s_mat * 0.5) * dt, (sigma @ k) * dt, sigma, np.ones((1, len(k))), dt,
                    math.sqrt(dt) if dt > 0 else 0.0)


def _fbsde_step_kernel(vals, aux):
    """Euler step of the state and the compensated value; returns [x'; y'].

    ``aux`` is (fold, dw), dw the (m, M) unit-normal increments.
    w = Q z + dw sqrt(dt), y' = y - q dt + 1'(z * w) and
    x' = x + f dt + G z + Sigma dw sqrt(dt), with Q and G from the fold.
    """
    fold, dw = aux
    x, y, z, f, q = vals
    n, cols = x.shape
    m = z.shape[0]
    if (y.shape != (1, cols) or z.shape[1] != cols or f.shape != x.shape
            or q.shape != (1, cols) or dw.shape != z.shape or fold.sigma.shape != (n, m)):
        raise ShapeError(
            f"fbsde-step: x {x.shape}, y {y.shape}, z {z.shape}, f {f.shape}, "
            f"q {q.shape}, dw {dw.shape}, sigma {fold.sigma.shape} do not conform"
        )
    dw_hat = dw * fold.sqdt
    w = fold.q @ z + dw_hat
    out = np.empty((n + 1, cols))
    out[n:] = y - q * fold.dt + fold.ones @ (z * w)
    out[:n] = x + f * fold.dt + fold.g @ z + fold.sigma @ dw_hat
    return out, (fold, w)


def fbsde_step_vjp(g_x, g_y, vals, saved):
    """Cotangents of (x, y, z, f, q) from those of x' and y'."""
    fold, w = saved
    d_z = g_y * w
    d_z += fold.q.T @ (g_y * vals[2])
    d_z += fold.g.T @ g_x
    return g_x, g_y, d_z, g_x * fold.dt, g_y * -fold.dt


FBSDE_STEP = Primitive("fbsde-step", _fbsde_step_kernel,
                       lambda g, vals, saved: fbsde_step_vjp(g[:-1], g[-1:], vals, saved))


def fbsde_step(x, y, z, f, q, fold: StepFold, dw):
    """One coupled Euler step from state x (n, M), value y (1, M), value
    gradient z (m, M), drift f(x) (n, M) and running cost q(x) (1, M), with
    the rollout's ``fold_step`` and the increments dw (m, M).
    Returns [x'; y'], (n + 1, M); see ``_fbsde_step_kernel``."""
    return call(FBSDE_STEP, (x, y, z, f, q), (fold, dw))


def _column_map_kernel(vals, aux):
    """``fn(x)``, whose value must keep the column count of x."""
    fn, vjp = aux
    (x,) = vals
    out, saved = fn(x)
    if out.ndim != 2 or out.shape[1] != x.shape[1]:
        raise ShapeError(f"column-map: value {out.shape} from input {x.shape} changes the columns")
    return out, (vjp, saved)


# ``saved`` is the caller's (vjp, saved)
COLUMN_MAP = Primitive("column-map", _column_map_kernel,
                       lambda g, vals, saved: (saved[0](g, vals[0], saved[1]),))


def column_map(x, fn: Callable, vjp: Callable):
    """One node for a map of the (n, M) columns of x to (k, M).

    ``fn(x) -> (value, saved)`` is the forward on plain arrays and
    ``vjp(g, x, saved) -> dx`` its vector-Jacobian product; ``saved`` is
    whatever the forward computed that the product reuses. Tape-free, the
    call is ``fn(x)[0]``.
    """
    return call(COLUMN_MAP, (x,), (fn, vjp))


# the primitive set, in the order of the gradient audit
PRIMITIVES = (ADD, SUB, SMUL, SUMSQ, LSTM_CELL, AFFINE, FBSDE_STEP, COLUMN_MAP)


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
