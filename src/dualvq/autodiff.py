"""Dense float64 tensors with reverse-mode differentiation.

The engine covers exactly the operations the autoencoder stack needs:
elementwise arithmetic with numpy-style broadcasting, matrix products,
strided 2-d convolution and its transpose, layer normalisation, softmax,
``attention`` (softmax(q·kᵀ·scale)·v as one node), pointwise activations,
reductions, and the reconstruction losses. Values are float64 throughout.
The backward pass visits nodes in exact reverse insertion order, so two
runs from the same seed produce bit-identical values and gradients.

Gradients accumulate into ``.grad`` on leaf tensors; calling ``backward``
twice without zeroing in between adds the two passes together (documented
contract; the training loop zeroes explicitly between passes).
``backward(loss, wrt=...)`` fills only the gradients that ``wrt`` needs.

Convolution. Every conv op (conv2d forward, input and kernel gradient,
conv_transpose2d forward and backward) at every stride runs through one
primitive: a stride-1 correlation on a flat grid (``_correlate``, and
``_correlate_grad_taps`` for its kernel gradient).

- The input is padded once into a flat channels-last buffer of shape
  (B·Hg·Wg + slack, C). Output cell p of tap (i, j) reads input cell
  p + i·Wg + j, so each tap reads one contiguous slice of the buffer. The
  GEMMs run over the whole padded-width grid, batch included, and the
  junk cells past each row and image are cropped afterwards.
- A correlation whose input or output side has at most ``THIN_CHANNELS``
  (3) channels expands that thin side over the k² taps, at most 27 rows,
  within each row block, and runs one GEMM with a deep inner dimension:
  k² GEMMs with an inner or outer dimension of 1-3 run far below BLAS
  speed. The kernel gradient does the same for a thin output side only.
  Otherwise one GEMM runs per kernel tap: slice @ tap for the correlation,
  slice^T @ g for its kernel gradient.
- Stride s > 1 becomes stride 1 through space-to-depth. The padded input
  folds s×s blocks into channels, giving (C·s², ⌈H/s⌉, ⌈W/s⌉). The kernel
  becomes (O, C·s², ⌈k/s⌉, ⌈k/s⌉), zero where s·a + r ≥ k. The kernel
  gradient maps back by depth-to-space.
- The input gradient (and conv_transpose2d's forward) is the stride-1
  correlation of the output gradient, padded by k' − 1, with the flipped,
  transposed space-to-depth kernel, followed by depth-to-space and a crop.

No (B, C·kh·kw, H·W) column tensor is built. Each temporary is a grid
about the size of the padded input or output, a channels-first copy of a
thin side, or one row block of about ``CORRELATE_BLOCK_BYTES``. The
reduction order is fixed by the shapes, so reruns are bit-identical.

Both conv ops fuse an optional (1,O,1,1) ``bias`` and activation into
their node, whose values and gradients equal, bit for bit, those of the
unfused chain conv, ``+ bias``, activation.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import erf, expit


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class NonFiniteError(RuntimeError):
    """Raised when a NaN or Inf surfaces where only finite values are allowed."""


_node_ids = itertools.count()

# ids of the tensors a restricted backward pass fills; None outside one
_wanted: set[int] | None = None

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """A dense float64 array plus an optional slot in a backward graph."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward_fn", "_nid")

    def __init__(self, data, requires_grad=False, op="leaf", _parents=(), _backward_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        if _backward_fn is None and not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"non-finite values in tensor '{op}'")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.op = op
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._nid = next(_node_ids)

    # -- introspection -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)

    def sum(self, axis=None):
        return reduce_sum(self, axis=axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis=axis)


def as_tensor(x) -> Tensor:
    """Wrap scalars / ndarrays as constant tensors; pass Tensor through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _make(data, parents, backward_fn, op):
    requires = any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(data, requires_grad=False, op=op, _parents=(), _backward_fn=False)
    return Tensor(data, requires_grad=True, op=op, _parents=tuple(parents), _backward_fn=backward_fn)


def _wants(t: Tensor) -> bool:
    """Whether the running backward pass fills ``t.grad``."""
    return t.requires_grad and (_wanted is None or id(t) in _wanted)


def _accumulate(t: Tensor, g: np.ndarray):
    """Add ``g`` to ``t.grad``. A first gradient that is already a writeable
    C-contiguous float64 array is kept as it is, so gradients may share
    memory: no backward function writes into a gradient it received or
    passed on, and a later contribution makes a new array."""
    if not _wants(t):
        return
    if t.grad is not None:
        t.grad = np.asarray(t.grad + g)   # numpy gives 0-d sums back as scalars
    elif type(g) is np.ndarray and g.dtype == np.float64 and g.flags.c_contiguous and g.flags.writeable:
        t.grad = g
    else:
        t.grad = np.array(g, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum-reduce a gradient back to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _reachable(root: Tensor):
    seen = {id(root)}
    out = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
                stack.append(p)
    return out


def backward(loss: Tensor, wrt=None):
    """Populate gradients of everything ``loss`` depends on.

    ``loss`` must be a scalar. Intermediate gradients are rebuilt from
    scratch on every call; leaf gradients accumulate across calls.

    With ``wrt`` (a sequence of tensors) only nodes whose value depends on
    one of them get a gradient. Every node adding to such a gradient depends
    on it too and runs in full-pass order, so the bits match a full pass.
    """
    global _wanted
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("backward() on a tensor that does not require grad")
    nodes = _reachable(loss)
    for n in nodes:
        if n._parents:
            n.grad = None
    nodes.sort(key=lambda n: n._nid, reverse=True)
    wanted = None
    if wrt is not None:
        wanted = {id(t) for t in wrt}
        for n in reversed(nodes):  # parents are inserted before their children
            if any(id(p) in wanted for p in n._parents):
                wanted.add(id(n))
    loss.grad = np.ones_like(loss.data)
    _wanted = wanted
    try:
        for n in nodes:
            if n._backward_fn is not None and n._backward_fn is not False and n.grad is not None:
                n._backward_fn(n.grad)
    finally:
        _wanted = None


def first_nonfinite(root: Tensor) -> Tensor | None:
    """Earliest-inserted node under ``root`` holding a NaN/Inf, if any."""
    nodes = sorted(_reachable(root), key=lambda n: n._nid)
    for n in nodes:
        if not np.all(np.isfinite(n.data)):
            return n
    return None


# -- elementwise arithmetic -----------------------------------------------


def _broadcast_check(a, b, op):
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b, "add")
    out_data = a.data + b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b, "sub")
    out_data = a.data - b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b, "mul")
    out_data = a.data * b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bw, "mul")


def neg(a) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), bw, "neg")


# -- linear algebra --------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product. 2-d operands or stacked operands with identical leading dims."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading dims must match, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, got {a.shape} and {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def bw(g):
        _accumulate(a, np.matmul(g, b.data.swapaxes(-1, -2)))
        _accumulate(b, np.matmul(a.data.swapaxes(-1, -2), g))

    return _make(out_data, (a, b), bw, "matmul")


# -- convolution -----------------------------------------------------------

# bytes of temporaries per row block of a correlation: the tap loop's running
# sum, or a thin path's expanded rows or partial sums. Blocks this size keep
# them, their addends and the rows they read in a core's L2 cache.
CORRELATE_BLOCK_BYTES = 1 << 18

# a correlation side with at most this many channels is thin: it is expanded
# over the kernel taps (at most 27 rows for a 3x3 kernel) rather than looped
# over them
THIN_CHANNELS = 3


def _conv_extent(extent, k, stride, pad, what):
    span = extent + 2 * pad - k
    if span < 0 or span % stride != 0:
        raise ShapeError(
            f"conv2d: non-integral output {what}: (({extent} + 2*{pad} - {k}) / {stride}) + 1"
        )
    return span // stride + 1


def _phases(s, pad):
    """(r, src, dst) per phase r of a stride-s space-to-depth: samples src,
    src + s, ... of an axis padded by ``pad`` land in cells dst, dst + 1, ...
    of phase r."""
    for r in range(s):
        src = (r - pad) % s
        yield r, src, (src + pad) // s


def _to_grid(x, s, pad, hg, wg, reach):
    """Pad (B,C,H,W) by ``pad`` = (top, left) zeros, fold s×s blocks into
    channels and lay it out channels-last in a flat (B·hg·wg + slack, s·s·C)
    buffer, where the slack lets a ``reach`` = (kh, kw) kernel's last tap read
    past the final cell."""
    b, c = x.shape[:2]
    slack = (reach[0] - 1) * wg + reach[1] - 1
    buf = np.zeros((b * hg * wg + slack, s * s * c))
    grid = buf[: b * hg * wg].reshape(b, hg, wg, s, s, c)
    for r1, y0, m1 in _phases(s, pad[0]):
        for r2, x0, m2 in _phases(s, pad[1]):
            part = x[:, :, y0::s, x0::s].transpose(0, 2, 3, 1)
            grid[:, m1 : m1 + part.shape[1], m2 : m2 + part.shape[2], r1, r2] = part
    return buf


def _from_grid(grid, s, pad, h, w):
    """Inverse of ``_to_grid`` on a (B, hg, wg, s·s·C) grid: unfold channels
    into s×s blocks, crop ``pad`` and return the (B, C, h, w) array."""
    b, hg, wg, cs = grid.shape
    c = cs // (s * s)
    grid = grid.reshape(b, hg, wg, s, s, c)
    out = np.empty((b, c, h, w))
    for r1, y0, m1 in _phases(s, pad):
        for r2, x0, m2 in _phases(s, pad):
            part = out[:, :, y0::s, x0::s]
            part[...] = grid[:, m1 : m1 + part.shape[2], m2 : m2 + part.shape[3], r1, r2].transpose(0, 3, 1, 2)
    return out


def _kernel_taps(w, s):
    """(O,C,kh,kw) kernel -> (⌈kh/s⌉, ⌈kw/s⌉, s·s·C, O) taps over a stride-s
    space-to-depth grid, zero where s·a + r ≥ k."""
    o, c, kh, kw = w.shape
    ah, aw = -(-kh // s), -(-kw // s)
    wp = np.zeros((o, c, ah * s, aw * s))
    wp[:, :, :kh, :kw] = w
    taps = wp.reshape(o, c, ah, s, aw, s).transpose(2, 4, 3, 5, 1, 0).reshape(ah, aw, s * s * c, o)
    return np.ascontiguousarray(taps)    # at s = 1 the reshape is a strided view


def _kernel_from_taps(taps, s, kh, kw):
    """Inverse of ``_kernel_taps``: depth-to-space back to (O, C, kh, kw)."""
    ah, aw, cs, o = taps.shape
    c = cs // (s * s)
    k = taps.reshape(ah, aw, s, s, c, o).transpose(5, 4, 0, 2, 1, 3).reshape(o, c, ah * s, aw * s)
    return k[:, :, :kh, :kw]


def _tap_shifts(ah, aw, wg):
    """Row offset i·wg + j of each tap (i, j) of a stride-1 correlation on a
    flat grid of row width ``wg``, in tap order: output cell p reads input
    cell p + i·wg + j, so a tap sees the contiguous rows buf[shift :][:n]."""
    return [i * wg + j for i in range(ah) for j in range(aw)]


def _block_rows(width):
    """Rows per block when each row holds ``width`` float64 temporaries."""
    return max(1, CORRELATE_BLOCK_BYTES // (8 * width))


def _expand(cols, shifts, lo, m):
    """A thin side expanded over the taps for rows lo..lo+m, filled from its
    channels-first copy ``cols`` (C, rows) as a transpose: row t·C + c of the
    (taps·C, m) block is cols[c, lo + shifts[t] :][:m]."""
    c = cols.shape[0]
    out = np.empty((len(shifts) * c, m))
    for t, sh in enumerate(shifts):
        out[t * c : (t + 1) * c] = cols[:, lo + sh : lo + sh + m]
    return out


def _correlate(buf, taps, n, wg):
    """out[p] = Σ_ij buf[p + i·wg + j] @ taps[i, j] for p < n; returns (n, O).

    Rows go in blocks of about CORRELATE_BLOCK_BYTES of temporaries:
    - thin input (C ≤ THIN_CHANNELS): the block's input rows expanded over
      the taps, (taps·C, rows), then one GEMM with a taps·C deep inner
      dimension. Extra memory: a (C, n + reach) copy of the input and one
      block.
    - thin output (O ≤ THIN_CHANNELS): one GEMM into taps-major partial sums
      (taps·O, rows + reach) over the block's rows plus the kernel's reach
      (i·wg + j of the last tap), then k² shifted adds. Extra memory: one
      block, plus taps·O·reach values.
    - otherwise one GEMM per tap, summed in tap order; the running sum is the
      output block itself, plus one addend."""
    ah, aw, c, o = taps.shape
    shifts = _tap_shifts(ah, aw, wg)
    out = np.empty((n, o))
    if c <= THIN_CHANNELS:
        cols = np.ascontiguousarray(buf.T)
        w = taps.reshape(-1, o)
        block = _block_rows(len(shifts) * c)
        for lo in range(0, n, block):
            m = min(block, n - lo)
            np.matmul(_expand(cols, shifts, lo, m).T, w, out=out[lo : lo + m])
        return out
    if o <= THIN_CHANNELS:
        w = taps.reshape(-1, c, o).swapaxes(1, 2).reshape(-1, c)     # (taps·O, C)
        reach = shifts[-1]
        block = _block_rows(len(shifts) * o)
        for lo in range(0, n, block):
            m = min(block, n - lo)
            part = w @ buf[lo : lo + m + reach].T     # (taps·O, m + reach)
            acc = part[:o, :m].copy()
            for t, sh in enumerate(shifts[1:], 1):
                acc += part[t * o : (t + 1) * o, sh : sh + m]
            out[lo : lo + m] = acc.T
        return out
    flat = taps.reshape(-1, c, o)
    block = _block_rows(o)
    tmp = np.empty((min(block, n), o))
    for lo in range(0, n, block):
        m = min(block, n - lo)
        acc = out[lo : lo + m]
        np.matmul(buf[lo : lo + m], flat[0], out=acc)
        for t, sh in enumerate(shifts[1:], 1):
            acc += np.matmul(buf[lo + sh : lo + sh + m], flat[t], out=tmp[:m])
    return out


def _correlate_grad_taps(buf, g, ah, aw, wg):
    """Gradient of ``_correlate`` w.r.t. its taps, for an output gradient
    ``g`` (n, O) that is zero on cells outside the valid output.

    Each tap is one GEMM over all rows, slice^T @ g, unless the output is
    thin (O ≤ THIN_CHANNELS). Then g, zero-padded by the kernel's reach at
    both ends, is expanded over the taps a row block at a time, as in
    ``_correlate``, and each block runs one (taps·O, rows) @ buf (rows, C)
    GEMM over the n + reach input rows; the blocks are summed in row order.
    Extra memory: the padded (O, n + 2·reach) copy of g and one block of
    CORRELATE_BLOCK_BYTES."""
    n, o = g.shape
    c = buf.shape[1]
    shifts = _tap_shifts(ah, aw, wg)
    if o > THIN_CHANNELS:
        out = np.empty((len(shifts), c, o))
        for t, sh in enumerate(shifts):
            np.matmul(buf[sh : sh + n].T, g, out=out[t])
        return out.reshape(ah, aw, c, o)
    # input row q meets g[q - shift] at each tap: expand g, zero-padded by
    # the reach on both sides, over the n + reach input rows
    reach = shifts[-1]
    cols = np.zeros((o, n + 2 * reach))
    cols[:, reach : reach + n] = g.T
    shifts = [reach - sh for sh in shifts]
    block = _block_rows(len(shifts) * o)
    acc = np.zeros((len(shifts) * o, c))
    for lo in range(0, n + reach, block):
        m = min(block, n + reach - lo)
        acc += _expand(cols, shifts, lo, m) @ buf[lo : lo + m]
    return acc.reshape(ah, aw, o, c).swapaxes(2, 3)


def _conv_forward(x, w, stride, pad):
    b, _, h, ww = x.shape
    o, _, kh, kw = w.shape
    oh = _conv_extent(h, kh, stride, pad, "height")
    ow = _conv_extent(ww, kw, stride, pad, "width")
    taps = _kernel_taps(w, stride)
    ah, aw = taps.shape[:2]
    hg, wg = oh + ah - 1, ow + aw - 1
    buf = _to_grid(x, stride, (pad, pad), hg, wg, (ah, aw))
    out = _correlate(buf, taps, b * hg * wg, wg)
    return _from_grid(out.reshape(b, hg, wg, o), 1, 0, oh, ow)


def _conv_grad_w(x, g, stride, pad, kh, kw):
    oh, ow = g.shape[2:]
    ah, aw = -(-kh // stride), -(-kw // stride)
    hg, wg = oh + ah - 1, ow + aw - 1
    buf = _to_grid(x, stride, (pad, pad), hg, wg, (ah, aw))
    g_grid = _to_grid(g, 1, (0, 0), hg, wg, (1, 1))    # zero on the junk cells
    return _kernel_from_taps(_correlate_grad_taps(buf, g_grid, ah, aw, wg), stride, kh, kw)


def _conv_grad_x(g, w, stride, pad, h, ww):
    b, _, oh, ow = g.shape
    taps = _kernel_taps(w, stride)
    ah, aw = taps.shape[:2]
    flipped = np.ascontiguousarray(taps[::-1, ::-1].swapaxes(2, 3))
    hg, wg = oh + 2 * (ah - 1), ow + 2 * (aw - 1)
    buf = _to_grid(g, 1, (ah - 1, aw - 1), hg, wg, (ah, aw))
    out = _correlate(buf, flipped, b * hg * wg, wg)
    return _from_grid(out.reshape(b, hg, wg, -1), stride, pad, h, ww)


# forward and gradient, from the output y, of each activation: the fused
# conv layers and the standalone ops share these expressions
_ACTIVATIONS = {
    None: (lambda x: x, lambda g, y: g),
    "relu": (lambda x: np.maximum(x, 0.0), lambda g, y: g * (y > 0.0)),
    "leaky_relu": (lambda x: np.where(x > 0.0, x, 0.2 * x),
                   lambda g, y: g * np.where(y > 0.0, 1.0, 0.2)),
    "sigmoid": (expit, lambda g, y: g * y * (1.0 - y)),
}


def _conv_node(out, x, w, bias, act, op, grad_x, grad_w):
    """Add ``bias`` to the conv result ``out`` in place, apply ``act`` and
    make the node whose backward runs ``grad_x``/``grad_w``."""
    parents = (x, w)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (1, out.shape[1], 1, 1):
            raise ShapeError(f"{op}: bias must be (1,{out.shape[1]},1,1), got {bias.shape}")
        out += bias.data
        parents += (bias,)
    fwd, act_grad = _ACTIVATIONS[act]
    y = fwd(out)

    def bw(g):
        g = act_grad(g, y)
        if bias is not None and _wants(bias):
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        if _wants(x):
            _accumulate(x, grad_x(g))
        if _wants(w):
            _accumulate(w, grad_w(g))

    return _make(y, parents, bw, op)


def conv2d(x, w, stride=1, pad=0, *, bias=None, act=None) -> Tensor:
    """Strided 2-d cross-correlation of (B,C,H,W) with kernels (O,C,kh,kw), then
    ``+ bias`` (1,O,1,1) and ``act`` (None, relu, leaky_relu or sigmoid)."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d input and kernel, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv2d: channel mismatch, input {x.shape} vs kernel {w.shape}")
    out_data = _conv_forward(x.data, w.data, stride, pad)
    return _conv_node(out_data, x, w, bias, act, "conv2d",
                      lambda g: _conv_grad_x(g, w.data, stride, pad, *x.shape[2:]),
                      lambda g: _conv_grad_w(x.data, g, stride, pad, *w.shape[2:]))


def conv_transpose2d(x, w, stride=1, pad=0, *, bias=None, act=None) -> Tensor:
    """Adjoint of conv2d with the same kernel, stride and padding, plus
    ``bias`` and ``act`` as in conv2d.

    Maps (B,O,h,w) back to (B,C,H,W) where conv2d(·, w, stride, pad) maps
    (B,C,H,W) to (B,O,h,w); kernels keep the conv2d layout (O,C,kh,kw).
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv_transpose2d: need 4-d input and kernel, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"conv_transpose2d: channel mismatch, input {x.shape} vs kernel {w.shape}")
    o, c, kh, kw = w.shape
    h_out = (x.shape[2] - 1) * stride - 2 * pad + kh
    w_out = (x.shape[3] - 1) * stride - 2 * pad + kw
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"conv_transpose2d: output extent {h_out}x{w_out} not positive")
    out_data = _conv_grad_x(x.data, w.data, stride, pad, h_out, w_out)
    return _conv_node(out_data, x, w, bias, act, "conv_transpose2d",
                      lambda g: _conv_forward(g, w.data, stride, pad),
                      lambda g: _conv_grad_w(g, x.data, stride, pad, kh, kw))


# -- normalisation and attention pieces -------------------------------------


def layernorm(x, gain, bias, eps=1e-5) -> Tensor:
    """Zero-mean unit-variance over the last dim, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layernorm: last dim {d} but gain {gain.shape}, bias {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=lead))
        _accumulate(bias, g.sum(axis=lead))
        dxhat = g * gain.data
        gx = (inv / d) * (
            d * dxhat
            - dxhat.sum(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
        )
        _accumulate(x, gx)

    return _make(out_data, (x, gain, bias), bw, "layernorm")


def _softmax_inplace(s):
    """Max-subtracted softmax over the last dim, written into ``s``."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _softmax_grad(g, y):
    """y · (g − Σ g·y) over the last dim: the input gradient of a softmax
    with output ``y``, as one new array."""
    gx = g * y
    np.subtract(g, gx.sum(axis=-1, keepdims=True), out=gx)
    gx *= y
    return gx


def softmax(x) -> Tensor:
    """Max-subtracted softmax over the last dim."""
    x = as_tensor(x)
    y = _softmax_inplace(np.array(x.data))

    def bw(g):
        _accumulate(x, _softmax_grad(g, y))

    return _make(y, (x,), bw, "softmax")


def attention(q, k, v, scale) -> Tensor:
    """softmax(q·kᵀ·scale)·v over stacked heads, (H,T,dh) queries against
    (H,S,dh) keys and (H,S,dv) values, as one node. Its values and
    gradients equal, bit for bit, those of the chain matmul, mul by
    ``scale``, softmax, matmul."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if not q.ndim == k.ndim == v.ndim == 3 or k.shape[::2] != q.shape[::2] or v.shape[:2] != k.shape[:2]:
        raise ShapeError(f"attention: need (H,T,dh), (H,S,dh), (H,S,dv), got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    kt = k.data.swapaxes(-1, -2)
    y = np.matmul(q.data, kt)
    y *= scale
    _softmax_inplace(y)

    def bw(g):
        g_v = np.matmul(y.swapaxes(-1, -2), g)
        gs = _softmax_grad(np.matmul(g, v.data.swapaxes(-1, -2)), y)
        gs *= scale
        _accumulate(q, np.matmul(gs, kt.swapaxes(-1, -2)))
        _accumulate(k, np.swapaxes(np.matmul(q.data.swapaxes(-1, -2), gs), -1, -2))
        _accumulate(v, g_v)

    return _make(np.matmul(y, v.data), (q, k, v), bw, "attention")


# -- pointwise activations ---------------------------------------------------


def _pointwise(x, act) -> Tensor:
    x = as_tensor(x)
    fwd, act_grad = _ACTIVATIONS[act]
    y = fwd(x.data)

    def bw(g):
        _accumulate(x, act_grad(g, y))

    return _make(y, (x,), bw, act)


def relu(x) -> Tensor:
    return _pointwise(x, "relu")


def leaky_relu(x) -> Tensor:
    """Slope 0.2 below zero."""
    return _pointwise(x, "leaky_relu")


def gelu(x) -> Tensor:
    """Exact erf-based gelu."""
    x = as_tensor(x)
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out_data = x.data * phi

    def bw(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        _accumulate(x, g * (phi + x.data * pdf))

    return _make(out_data, (x,), bw, "gelu")


def sigmoid(x) -> Tensor:
    return _pointwise(x, "sigmoid")


# -- reductions and losses ---------------------------------------------------


def _norm_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted({a % ndim for a in axis}))


def reduce_sum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    ax = _norm_axis(axis, x.ndim)
    out_data = x.data.sum(axis=ax)

    def bw(g):
        gk = np.expand_dims(g, ax) if ax else g
        _accumulate(x, np.broadcast_to(gk, x.data.shape))

    return _make(out_data, (x,), bw, "sum")


def reduce_mean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    ax = _norm_axis(axis, x.ndim)
    count = 1
    for a in ax:
        count *= x.data.shape[a]
    out_data = x.data.mean(axis=ax)

    def bw(g):
        gk = np.expand_dims(g, ax) if ax else g
        _accumulate(x, np.broadcast_to(gk, x.data.shape) / count)

    return _make(out_data, (x,), bw, "mean")


def l1_loss(a, b) -> Tensor:
    """Mean absolute difference over all elements."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"l1_loss: shapes differ, {a.shape} vs {b.shape}")
    diff = a.data - b.data
    n = diff.size

    def bw(g):
        s = np.sign(diff) * (float(g) / n)
        _accumulate(a, s)
        _accumulate(b, -s)

    return _make(np.abs(diff).mean(), (a, b), bw, "l1_loss")


def mse_loss(a, b) -> Tensor:
    """Mean squared difference over all elements."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mse_loss: shapes differ, {a.shape} vs {b.shape}")
    diff = a.data - b.data
    n = diff.size

    def bw(g):
        s = diff * (2.0 * float(g) / n)
        _accumulate(a, s)
        _accumulate(b, -s)

    return _make((diff * diff).mean(), (a, b), bw, "mse_loss")


# -- structural ops ----------------------------------------------------------


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    orig = x.data.shape
    out_data = x.data.reshape(shape)

    def bw(g):
        _accumulate(x, g.reshape(orig))

    return _make(out_data, (x,), bw, "reshape")


def swapaxes(x, a, b) -> Tensor:
    x = as_tensor(x)
    out_data = np.swapaxes(x.data, a, b)

    def bw(g):
        _accumulate(x, np.swapaxes(g, a, b))

    return _make(out_data, (x,), bw, "swapaxes")


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return _make(out_data, tuple(tensors), bw, "concat")


def narrow(x, axis, start, length) -> Tensor:
    """Contiguous slice along one axis; gradient scatters back into place."""
    x = as_tensor(x)
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(f"narrow: [{start}:{start + length}) out of range for axis {axis} of {x.shape}")
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out_data = x.data[sl]

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[sl] = g
        _accumulate(x, gx)

    return _make(out_data, (x,), bw, "narrow")


def gather_rows(x, indices) -> Tensor:
    """Select rows of a (K, d) tensor; gradient scatter-adds by index."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    if x.ndim != 2:
        raise ShapeError(f"gather_rows: need a 2-d table, got {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"gather_rows: index out of range for table with {x.shape[0]} rows")
    out_data = x.data[idx]

    def bw(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        _accumulate(x, gx)

    return _make(out_data, (x,), bw, "gather_rows")


def straight_through(features, quantized) -> Tensor:
    """Forward the quantized values, route the whole gradient to ``features``.

    ``quantized`` contributes no graph edge here; train it through a
    separate distance term.
    """
    features, quantized = as_tensor(features), as_tensor(quantized)
    if features.shape != quantized.shape:
        raise ShapeError(f"straight_through: shapes differ, {features.shape} vs {quantized.shape}")

    def bw(g):
        _accumulate(features, g)

    return _make(quantized.data, (features,), bw, "straight_through")


def stop_gradient(x) -> Tensor:
    """Forward identity with zero gradient (detached constant)."""
    x = as_tensor(x)
    return Tensor(x.data, requires_grad=False, op="stop_gradient", _parents=(), _backward_fn=False)
