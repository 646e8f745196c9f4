"""Two-layer LSTM stack with an affine read-out, plus Adam.

Parameters are held in small dataclasses whose fields may be either plain
ndarrays (evaluation) or tape Vars (training); the forward functions are
written against the dual-mode expression helpers so one implementation
serves both paths. In a ``training.ParamStore`` the arrays are views of one
flat float64 vector, and Adam updates that vector and its two moment
vectors as wholes.

Gate layout inside each fused (4h, .) parameter block is
(input, forget, cell-candidate, output), in that row order.

A tape-free rollout first calls ``pack_net``: each layer's [W U b] becomes
one (4h, d + h + 1) array with the sigmoid rows halved (``autodiff.LstmPack``),
so every cell is one GEMM over [x; h; 1] and one tanh over all gate rows. The
packs are copies that a weight update makes stale, so they live for one
rollout and never in a ``ParamStore``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import autodiff as ad


class NonFiniteGradient(FloatingPointError):
    """An optimizer step saw a non-finite gradient; nothing was updated."""


def xavier_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform on [-a, a] with a = sqrt(6 / (rows + cols))."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


@dataclass
class LstmLayerParams:
    """Fused gate parameters: W (4h, d), U (4h, h), b (4h, 1), and
    optionally their ``autodiff.LstmPack`` (see ``pack_net``)."""

    W: Any
    U: Any
    b: Any
    pack: ad.LstmPack | None = None

    @property
    def hidden_size(self) -> int:
        return self.U.shape[1]


@dataclass
class NetParams:
    """Two stacked LSTM layers and an affine map from the top hidden state."""

    layer1: LstmLayerParams
    layer2: LstmLayerParams
    out_w: Any  # (out_dim, h)
    out_b: Any  # (out_dim, 1)

    def arrays(self) -> list:
        """The eight weight arrays, in the order of the flat parameter vector."""
        return [self.layer1.W, self.layer1.U, self.layer1.b,
                self.layer2.W, self.layer2.U, self.layer2.b, self.out_w, self.out_b]

    @classmethod
    def of(cls, arrays) -> "NetParams":
        """The inverse of ``arrays``."""
        a = list(arrays)
        return cls(LstmLayerParams(*a[0:3]), LstmLayerParams(*a[3:6]), a[6], a[7])


def init_net(
    input_dim: int,
    hidden_size: int,
    output_dim: int,
    rng: np.random.Generator,
    forget_bias: float = 1.0,
) -> NetParams:
    """Xavier-uniform weights, zero biases except the forget-gate block."""

    def bias(h: int) -> np.ndarray:
        b = np.zeros((4 * h, 1))
        b[h : 2 * h] = forget_bias
        return b

    h = hidden_size
    return NetParams(
        layer1=LstmLayerParams(
            W=xavier_init(4 * h, input_dim, rng),
            U=xavier_init(4 * h, h, rng),
            b=bias(h),
        ),
        layer2=LstmLayerParams(
            W=xavier_init(4 * h, h, rng),
            U=xavier_init(4 * h, h, rng),
            b=bias(h),
        ),
        out_w=xavier_init(output_dim, h, rng),
        out_b=np.zeros((output_dim, 1)),
    )


def pack_net(net: NetParams, cols: int) -> NetParams:
    """``net`` with each LSTM layer's weights packed once for a tape-free
    rollout of ``cols`` columns; the arrays themselves are shared, not copied.
    The layers run one after the other, so their blocks [x; h; 1] share one
    scratch array."""
    layers = (net.layer1, net.layer2)
    rows = [layer.W.shape[1] + layer.hidden_size + 1 for layer in layers]
    scratch = np.empty((max(rows), cols))
    layer1, layer2 = (LstmLayerParams(l.W, l.U, l.b, ad.pack_lstm(l.W, l.U, l.b, scratch[:r]))
                      for l, r in zip(layers, rows))
    return NetParams(layer1, layer2, net.out_w, net.out_b)


def lstm_cell_forward(layer: LstmLayerParams, x, h_prev, c_prev):
    """One cell update; x is (d, M), states are (h, M). Returns (h, c)."""
    h = layer.hidden_size
    state = ad.lstm_cell(layer.W, layer.U, layer.b, x, h_prev, c_prev, layer.pack)
    return ad.rows(state, 0, h), ad.rows(state, h, 2 * h)


def zero_state(net: NetParams, batch: int) -> tuple:
    h1 = net.layer1.hidden_size
    h2 = net.layer2.hidden_size
    return (
        (np.zeros((h1, batch)), np.zeros((h1, batch))),
        (np.zeros((h2, batch)), np.zeros((h2, batch))),
    )


def lstm_stack_forward(net: NetParams, x, state=None):
    """Both layers plus the read-out. Returns (output, new_state).

    ``state`` is ((h1, c1), (h2, c2)); None starts from zeros. The hidden
    state after step n depends only on inputs up to n.
    """
    if state is None:
        state = zero_state(net, x.shape[1] if isinstance(x, ad.Var) else np.asarray(x).shape[1])
    (h1, c1), (h2, c2) = state
    h1n, c1n = lstm_cell_forward(net.layer1, x, h1, c1)
    h2n, c2n = lstm_cell_forward(net.layer2, h1n, h2, c2)
    out = ad.affine(net.out_w, h2n, net.out_b)
    return out, ((h1n, c1n), (h2n, c2n))


@dataclass
class AdamState:
    """Adam's settings, step count and first/second moment vectors, laid out
    like the flat parameter vector they update."""

    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0

    @classmethod
    def zeros(cls, size: int, **settings) -> "AdamState":
        return cls(np.zeros(size), np.zeros(size), **settings)


def _owner(a: np.ndarray) -> np.ndarray:
    return a.base if isinstance(a.base, np.ndarray) else a


def _flat_vector(arrays) -> np.ndarray:
    """The float64 vector that ``arrays`` tile as consecutive views, in order."""
    owner, start, size = _owner(arrays[0]), arrays[0].ctypes.data, 0
    for a in arrays:
        if not (_owner(a) is owner and a.ctypes.data == start + 8 * size and a.flags.c_contiguous
                and a.dtype == owner.dtype == np.float64 and owner.flags.c_contiguous):
            raise ValueError("parameters and gradients must be consecutive views of one float64 vector")
        size += a.size
    offset = (start - owner.ctypes.data) // 8
    return owner.reshape(-1)[offset : offset + size]


def adam_step(state: AdamState, named_params, grads: dict) -> None:
    """Bias-corrected Adam update, in place on the flat vector that the
    parameter views tile, with the gradient views' vector as its gradient.

    The gradient is validated finite before anything mutates, so a bad step
    leaves parameters and moments untouched.
    """
    theta = _flat_vector([p for _, p in named_params])
    g = _flat_vector([grads[name] for name, _ in named_params])
    if not theta.size == g.size == state.m.size == state.v.size:
        raise ValueError(f"Adam's moments hold {state.m.size} entries, the parameters {theta.size} "
                         f"and the gradient {g.size}")
    finite = np.isfinite(g)
    if not finite.all():
        ends = np.cumsum([p.size for _, p in named_params])
        name = named_params[int(np.searchsorted(ends, np.argmin(finite), side="right"))][0]
        raise NonFiniteGradient(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * (g * g)
    theta -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
