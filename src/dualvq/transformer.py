"""Lightweight transformer encoder that refines a codebook.

The K code vectors are the token sequence; there is no positional encoding
because a codebook is an unordered set. Blocks are pre-normalisation:
attention and feed-forward branches read a layernormed copy and add their
output back. ``TransformerParams`` takes its sizes as plain arguments;
``model.init_model`` passes ``split_global`` and the ``tf_*`` fields of
``TrainConfig``, which the config path has already checked, and ``TF_FF_DIM``.

Residual output projections (attention out-projection and the second
feed-forward matrix) carry no bias and initialise to zero, so a fresh
transformer is exactly the identity map. Zeroing the remaining branch
parameters as well (``zero_residual``) makes every transformer gradient
vanish identically, which keeps the refinement an exact no-op under
training; that is the degenerate configuration the dual quantizer
compares against its transformer-free mode.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, Tensor, add, attention, gelu, layernorm, matmul


class TransformerParams:
    """Ordered parameter set for a ``layers``-deep stack over ``dim``-wide
    tokens with ``heads`` attention heads and ``ff_dim`` feed-forward units."""

    def __init__(self, dim: int, layers: int, heads: int, ff_dim: int,
                 rng: np.random.Generator, zero_residual: bool = False):
        if min(dim, layers, heads, ff_dim) < 1 or dim % heads != 0:
            raise ValueError(f"transformer needs positive sizes and heads dividing dim, got "
                             f"dim={dim}, layers={layers}, heads={heads}, ff_dim={ff_dim}")
        self.dim, self.layers, self.heads = dim, layers, heads

        def draw(rows, cols):
            if zero_residual:
                return np.zeros((rows, cols))
            return rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols))

        self.tensors: dict[str, Tensor] = {}
        for i in range(layers):
            p = f"layer{i}."
            self._add(p + "ln1_g", np.ones(dim))
            self._add(p + "ln1_b", np.zeros(dim))
            self._add(p + "wq", draw(dim, dim))
            self._add(p + "wk", draw(dim, dim))
            self._add(p + "wv", draw(dim, dim))
            self._add(p + "wo", np.zeros((dim, dim)))
            self._add(p + "ln2_g", np.ones(dim))
            self._add(p + "ln2_b", np.zeros(dim))
            self._add(p + "w1", draw(dim, ff_dim))
            self._add(p + "b1", np.zeros(ff_dim))
            self._add(p + "w2", np.zeros((ff_dim, dim)))

    def _add(self, name, arr):
        self.tensors[name] = Tensor(arr, requires_grad=True, op=f"tf.{name}")

    def named(self):
        return self.tensors.items()

    def __getitem__(self, name) -> Tensor:
        return self.tensors[name]


def _self_attention(x: Tensor, params: TransformerParams, layer: int) -> Tensor:
    k_tokens = x.shape[0]
    d, heads = params.dim, params.heads
    dh = d // heads
    p = f"layer{layer}."
    q = matmul(x, params[p + "wq"]).reshape(k_tokens, heads, dh).swapaxes(0, 1)
    k = matmul(x, params[p + "wk"]).reshape(k_tokens, heads, dh).swapaxes(0, 1)
    v = matmul(x, params[p + "wv"]).reshape(k_tokens, heads, dh).swapaxes(0, 1)
    mixed = attention(q, k, v, 1.0 / np.sqrt(dh)).swapaxes(0, 1).reshape(k_tokens, d)
    return matmul(mixed, params[p + "wo"])


def refine(entries: Tensor, params: TransformerParams) -> Tensor:
    """Run the encoder stack over the K entry tokens; returns (K, d)."""
    if entries.ndim != 2 or entries.shape[1] != params.dim:
        raise ShapeError(f"refine: entries {entries.shape} do not match dim {params.dim}")
    x = entries
    for i in range(params.layers):
        p = f"layer{i}."
        h = layernorm(x, params[p + "ln1_g"], params[p + "ln1_b"])
        x = add(x, _self_attention(h, params, i))
        h = layernorm(x, params[p + "ln2_g"], params[p + "ln2_b"])
        ff = matmul(gelu(add(matmul(h, params[p + "w1"]), params[p + "b1"])), params[p + "w2"])
        x = add(x, ff)
    return x
