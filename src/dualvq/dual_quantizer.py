"""The dual quantization mechanism.

The latent block splits channel-wise into a global half and a local half.
The global half quantizes against transformer-refined code vectors, the
local half against its raw codebook, and the two quantized halves
concatenate back in the original channel order. Each half contributes a
codebook term and a commitment term; the total quantization loss is their
sum. A single-codebook mode covers the deterministic baseline.

Both states expose ``codebooks()``, their codebooks by name (``"global"``
and ``"local"``, or just ``"global"`` for the baseline) in the order their
quantization results come back. Code that only walks the codebooks (usage
reports, checkpoint counters, window resets, export) loops over it;
``model.quantize_latents`` is the one place that picks a quantizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, concat, narrow, reshape
from .codebook import Codebook, QuantizationResult, quantize_st
from .transformer import TransformerParams, refine


@dataclass
class DualQuantizerState:
    global_cb: Codebook
    local_cb: Codebook
    tf_params: TransformerParams | None   # None runs the global half deterministically
    split_global: int
    split_local: int
    beta: float = 0.25

    def codebooks(self) -> dict[str, Codebook]:
        return {"global": self.global_cb, "local": self.local_cb}

    def named_params(self):
        yield "global_cb", self.global_cb.entries
        yield "local_cb", self.local_cb.entries
        if self.tf_params is not None:
            for name, t in self.tf_params.named():
                yield f"tf.{name}", t


@dataclass
class SingleQuantizerState:
    """Deterministic one-codebook baseline over the full channel width."""

    cb: Codebook
    beta: float = 0.25

    def codebooks(self) -> dict[str, Codebook]:
        return {"global": self.cb}

    def named_params(self):
        yield "global_cb", self.cb.entries


def split_channels(z: Tensor, split_global: int) -> tuple[Tensor, Tensor]:
    """Split (B,C,H,W) into the leading global channels and the rest."""
    if z.ndim != 4:
        raise ShapeError(f"split_channels: need (B,C,H,W), got {z.shape}")
    c = z.shape[1]
    if not 0 < split_global < c:
        raise ShapeError(f"split_channels: split {split_global} out of range for C={c}")
    return narrow(z, 1, 0, split_global), narrow(z, 1, split_global, c - split_global)


def channels_to_rows(z: Tensor) -> Tensor:
    """(B,C,H,W) -> (B*H*W, C) feature rows."""
    b, c, h, w = z.shape
    return reshape(z.swapaxes(1, 2).swapaxes(2, 3), (b * h * w, c))


def rows_to_channels(rows: Tensor, b: int, h: int, w: int) -> Tensor:
    c = rows.shape[1]
    return reshape(rows, (b, h, w, c)).swapaxes(2, 3).swapaxes(1, 2)


def quantize_dual(z: Tensor, state: DualQuantizerState,
                  update_usage: bool = True) -> tuple[Tensor, QuantizationResult, QuantizationResult]:
    """Quantize both halves and concatenate them back channel-wise."""
    b, c, h, w = z.shape
    if state.split_global + state.split_local != c:
        raise ShapeError(
            f"quantize_dual: split {state.split_global}+{state.split_local} != C={c}"
        )
    zg, zl = split_channels(z, state.split_global)
    fg = channels_to_rows(zg)
    fl = channels_to_rows(zl)
    # the refined table is this step's lookup; the raw entries stay the parameters
    table = None if state.tf_params is None else refine(state.global_cb.entries, state.tf_params)
    res_g = quantize_st(fg, state.global_cb, beta=state.beta, entries=table,
                        update_usage=update_usage)
    res_l = quantize_st(fl, state.local_cb, beta=state.beta, update_usage=update_usage)
    zq_g = rows_to_channels(res_g.z_q, b, h, w)
    zq_l = rows_to_channels(res_l.z_q, b, h, w)
    z_q = concat([zq_g, zq_l], axis=1)
    return z_q, res_g, res_l


def quantize_single(z: Tensor, state: SingleQuantizerState,
                    update_usage: bool = True) -> tuple[Tensor, QuantizationResult]:
    """Whole-width deterministic quantization (the collapse-prone baseline)."""
    b, c, h, w = z.shape
    rows = channels_to_rows(z)
    res = quantize_st(rows, state.cb, beta=state.beta, update_usage=update_usage)
    return rows_to_channels(res.z_q, b, h, w), res


def quant_loss_total(results) -> Tensor:
    """Sum of codebook and commitment terms across quantization results."""
    total = None
    for r in results:
        part = r.codebook_term + r.commitment_term
        total = part if total is None else total + part
    return total
