"""Lightweight transformer encoder that refines a codebook.

The K code vectors are the token sequence; there is no positional encoding
because a codebook is an unordered set. Blocks are pre-normalisation:
attention and feed-forward branches read a layernormed copy and add their
output back.

Residual output projections (attention out-projection and the second
feed-forward matrix) carry no bias and initialise to zero, so a fresh
transformer is exactly the identity map. Zeroing the remaining branch
parameters as well (``zero_residual``) makes every transformer gradient
vanish identically, which keeps the refinement an exact no-op under
training; that is the degenerate configuration the dual quantizer
compares against its transformer-free mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, add, gelu, layernorm, matmul, mul, softmax


@dataclass
class TransformerConfig:
    layers: int = 2
    heads: int = 2
    ff_dim: int = 64
    embed_dim: int = 4

    def validate(self):
        for name in ("layers", "heads", "ff_dim", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"transformer {name} must be positive, got {getattr(self, name)}")
        if self.embed_dim % self.heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )


class TransformerParams:
    """Ordered parameter set for the encoder stack."""

    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator | None = None,
                 zero_residual: bool = False):
        cfg.validate()
        self.cfg = cfg
        d, ff = cfg.embed_dim, cfg.ff_dim

        def draw(rows, cols):
            if zero_residual or rng is None:
                return np.zeros((rows, cols))
            return rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols))

        self.tensors: dict[str, Tensor] = {}
        for i in range(cfg.layers):
            p = f"layer{i}."
            self._add(p + "ln1_g", np.ones(d))
            self._add(p + "ln1_b", np.zeros(d))
            self._add(p + "wq", draw(d, d))
            self._add(p + "wk", draw(d, d))
            self._add(p + "wv", draw(d, d))
            self._add(p + "wo", np.zeros((d, d)))
            self._add(p + "ln2_g", np.ones(d))
            self._add(p + "ln2_b", np.zeros(d))
            self._add(p + "w1", draw(d, ff))
            self._add(p + "b1", np.zeros(ff))
            self._add(p + "w2", np.zeros((ff, d)))

    def _add(self, name, arr):
        self.tensors[name] = Tensor(arr, requires_grad=True, op=f"tf.{name}")

    def named(self):
        return self.tensors.items()

    def __getitem__(self, name) -> Tensor:
        return self.tensors[name]


def _self_attention(x: Tensor, params: TransformerParams, layer: int) -> Tensor:
    cfg = params.cfg
    k_tokens = x.shape[0]
    d, heads = cfg.embed_dim, cfg.heads
    dh = d // heads
    p = f"layer{layer}."
    q = matmul(x, params[p + "wq"]).reshape(k_tokens, heads, dh).swapaxes(0, 1)
    k = matmul(x, params[p + "wk"]).reshape(k_tokens, heads, dh).swapaxes(0, 1)
    v = matmul(x, params[p + "wv"]).reshape(k_tokens, heads, dh).swapaxes(0, 1)
    scores = mul(matmul(q, k.swapaxes(1, 2)), 1.0 / np.sqrt(dh))
    attn = softmax(scores)
    mixed = matmul(attn, v).swapaxes(0, 1).reshape(k_tokens, d)
    return matmul(mixed, params[p + "wo"])


def refine(entries: Tensor, params: TransformerParams) -> Tensor:
    """Run the encoder stack over the K entry tokens; returns (K, d)."""
    cfg = params.cfg
    if entries.ndim != 2 or entries.shape[1] != cfg.embed_dim:
        raise ShapeError(
            f"refine: entries {entries.shape} do not match embed_dim {cfg.embed_dim}"
        )
    x = entries
    for i in range(cfg.layers):
        p = f"layer{i}."
        h = layernorm(x, params[p + "ln1_g"], params[p + "ln1_b"])
        x = add(x, _self_attention(h, params, i))
        h = layernorm(x, params[p + "ln2_g"], params[p + "ln2_b"])
        ff = matmul(gelu(add(matmul(h, params[p + "w1"]), params[p + "b1"])), params[p + "w2"])
        x = add(x, ff)
    return x
