"""The dual quantization mechanism, as an ordered list of heads.

A head is a codebook over the next ``codebook.dim`` latent channels, plus
an optional refiner: a transformer that turns the raw entries into the
lookup table. ``quantize_dual`` peels the channels off head by head,
quantizes each slice against its table, and concatenates the quantized
slices back in the original channel order. Each head contributes a
codebook term and a commitment term; the total quantization loss is their
sum.

The dual quantizer is a refined ``"global"`` head followed by a plain
``"local"`` head. The deterministic baseline is one ``"global"`` head over
every latent channel. ``codebooks()`` gives the codebooks by head name, in
the order the quantization results come back, so code that only walks the
codebooks (usage reports, checkpoint counters, window resets, export)
loops over it; ``usage_columns`` lays usage out as the logs' columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import ShapeError, Tensor, concat, narrow, reshape
from .codebook import Codebook, QuantizationResult, quantize_st, usage_stats
from .transformer import TransformerParams, refine


@dataclass
class Head:
    name: str
    codebook: Codebook
    refiner: TransformerParams | None = None   # None quantizes against the raw entries


@dataclass
class QuantizerState:
    heads: list[Head]

    # read by the benchmark's checks on dual checkpoints
    global_cb = property(lambda self: self.heads[0].codebook)
    local_cb = property(lambda self: self.heads[1].codebook)
    tf_params = property(lambda self: self.heads[0].refiner)
    split_global = property(lambda self: self.heads[0].codebook.dim)

    def codebooks(self) -> dict[str, Codebook]:
        return {head.name: head.codebook for head in self.heads}

    def named_params(self):
        for head in self.heads:
            yield f"{head.name}_cb", head.codebook.entries
        for head in self.heads:
            if head.refiner is not None:
                for name, t in head.refiner.named():
                    yield f"tf.{name}", t


def usage_columns(state: QuantizerState) -> dict[str, float]:
    """``perplexity_g/l`` and ``active_g/l`` of the global and local codebooks as
    the logs report them; the single baseline has no local one and reports zeros."""
    cbs = state.codebooks()
    (pg, ag), (pl, al) = (usage_stats(cbs[n]) if n in cbs else (0.0, 0.0) for n in ("global", "local"))
    return {"perplexity_g": pg, "perplexity_l": pl, "active_g": ag, "active_l": al}


def split_channels(z: Tensor, width: int) -> tuple[Tensor, Tensor]:
    """Split (B,C,H,W) into the leading ``width`` channels and the rest."""
    if z.ndim != 4:
        raise ShapeError(f"split_channels: need (B,C,H,W), got {z.shape}")
    c = z.shape[1]
    if not 0 < width < c:
        raise ShapeError(f"split_channels: split {width} out of range for C={c}")
    return narrow(z, 1, 0, width), narrow(z, 1, width, c - width)


def channels_to_rows(z: Tensor) -> Tensor:
    """(B,C,H,W) -> (B*H*W, C) feature rows."""
    b, c, h, w = z.shape
    return reshape(z.swapaxes(1, 2).swapaxes(2, 3), (b * h * w, c))


def rows_to_channels(rows: Tensor, b: int, h: int, w: int) -> Tensor:
    c = rows.shape[1]
    return reshape(rows, (b, h, w, c)).swapaxes(2, 3).swapaxes(1, 2)


def lookup_tables(state: QuantizerState) -> list[Tensor | None]:
    """Each head's lookup table: None for a raw head, ``refine(entries, refiner)``
    for a refined one. No image enters a table, so one serves every batch."""
    return [None if head.refiner is None else refine(head.codebook.entries, head.refiner)
            for head in state.heads]


def quantize_dual(z: Tensor, state: QuantizerState, update_usage: bool = True,
                  tables: list | None = None) -> tuple[Tensor, list[QuantizationResult]]:
    """Quantize each head's channels against ``tables`` (``lookup_tables`` when
    None) and concatenate them back channel-wise; returns (z_q, results in head order)."""
    b, c, h, w = z.shape
    widths = [head.codebook.dim for head in state.heads]
    if sum(widths) != c:
        raise ShapeError(f"quantize_dual: head widths {'+'.join(map(str, widths))} != C={c}")
    parts, results = [], []
    for head, table in zip(state.heads, lookup_tables(state) if tables is None else tables, strict=True):
        part = z
        if head is not state.heads[-1]:
            part, z = split_channels(z, head.codebook.dim)
        res = quantize_st(channels_to_rows(part), head.codebook, entries=table, update_usage=update_usage)
        results.append(res)
        parts.append(rows_to_channels(res.z_q, b, h, w))
    return (parts[0] if len(parts) == 1 else concat(parts, axis=1)), results


def quant_loss_total(results) -> Tensor:
    """Sum of codebook and commitment terms across quantization results."""
    total = None
    for r in results:
        part = r.codebook_term + r.commitment_term
        total = part if total is None else total + part
    return total
