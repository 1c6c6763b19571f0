"""Single-codebook quantization: nearest-entry assignment, the
straight-through pass, the two stop-gradient distance terms, and usage
accounting.

Distances are squared Euclidean. The nearest-entry search screens, then
scores exactly: one GEMM per row block ranks the entries by
‖e‖² − 2·f·e, every entry whose rank lies within a rigorous float64 error
bound of the row's lowest rank is a candidate, and only the candidates get
their distance from explicit differences, summed as a full (rows, K, d)
scan sums it. So the result is that scan's: exact ties stay exact and
break toward the lowest index. A row the screen cannot bound (a non-finite
feature, entry or rank) gets the full scan. Loss terms use the mean over
every element of the feature block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ShapeError, Tensor, as_tensor, gather_rows, mse_loss, stop_gradient,
                       straight_through)

BETA = 0.25   # weight of the commitment term
# elements of the (rows, K) rank block nearest_indices screens at once (4 MiB)
NEAREST_BLOCK_ELEMS = 1 << 19
_UNIT = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).smallest_subnormal


class Codebook:
    """K learnable code vectors of dimension d plus two uint64[K] assignment
    histograms, the only usage state: every total, perplexity and active
    fraction is derived from them.

    ``window_counts`` reset at epoch boundaries; ``counts`` accumulate for
    the life of the run and feed the final utilization report.
    """

    def __init__(self, n_entries: int, dim: int, rng: np.random.Generator | None = None,
                 entries: np.ndarray | None = None):
        if n_entries < 1 or dim < 1:
            raise ValueError(f"codebook needs K >= 1 and d >= 1, got K={n_entries}, d={dim}")
        if entries is not None:
            entries = np.asarray(entries, dtype=np.float64)
            if entries.shape != (n_entries, dim):
                raise ShapeError(f"entries shape {entries.shape} != ({n_entries}, {dim})")
        else:
            entries = rng.uniform(-1.0 / n_entries, 1.0 / n_entries, size=(n_entries, dim))
        self.entries = Tensor(entries, requires_grad=True, op="codebook")
        self.n_entries = n_entries
        self.dim = dim
        self.counts = np.zeros(n_entries, dtype=np.uint64)
        self.window_counts = np.zeros(n_entries, dtype=np.uint64)

    def record(self, indices: np.ndarray):
        binned = np.bincount(indices, minlength=self.n_entries).astype(np.uint64)
        self.counts += binned
        self.window_counts += binned

    def reset_window(self):
        self.window_counts[:] = 0


@dataclass
class QuantizationResult:
    z_q: Tensor                 # (N, d); forward = selected entries, backward = pass-through
    indices: np.ndarray         # (N,) int64
    codebook_term: Tensor       # scalar
    commitment_term: Tensor     # scalar


def _scan(f, e):
    """Lowest-index argmin of the explicit-difference distances, over
    (rows, K, d) blocks of at most NEAREST_BLOCK_ELEMS elements."""
    rows = max(1, NEAREST_BLOCK_ELEMS // e.size)
    out = np.empty(f.shape[0], dtype=np.int64)
    for lo in range(0, f.shape[0], rows):
        diff = f[lo : lo + rows, None, :] - e[None, :, :]
        out[lo : lo + rows] = np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)
    return out


def _screened(f, e):
    """``_scan(f, e)`` for one row block, scoring only the screen's candidates."""
    sq_e = np.einsum("kd,kd->k", e, e)
    rank = f @ (-2.0 * e).T
    rank += sq_e
    # The rank and the explicit distance each err from their true values by
    # at most γ_{d+2}·(‖f‖ + max‖e‖)² plus d underflows (Higham, Accuracy and
    # Stability of Numerical Algorithms, §3.1), so the distance argmin ranks
    # within twice their sum of the lowest rank; the factor 4 and d + 4 also
    # cover rounding the bound itself.
    d = e.shape[1]
    norms = np.sqrt(np.einsum("nd,nd->n", f, f)) + np.sqrt(sq_e.max())
    bound = rank.min(axis=1) + 4 * (d + 4) * (_UNIT * norms**2 + _TINY)
    bound[~np.isfinite(bound)] = np.nan   # no bound, no candidate
    r, c = np.nonzero(rank <= bound[:, None])
    if len(r) * d > NEAREST_BLOCK_ELEMS:  # so many near-ties that scanning costs less memory
        return _scan(f, e)
    diff = f[r, None, :] - e[c, None, :]
    rank.fill(np.inf)
    rank[r, c] = np.einsum("nkd,nkd->nk", diff, diff)[:, 0]
    idx = rank.argmin(axis=1)
    unscreened = ~np.isfinite(rank[np.arange(len(idx)), idx])
    if unscreened.any():
        idx[unscreened] = _scan(f[unscreened], e)
    return idx


def nearest_indices(features, entries) -> np.ndarray:
    """Index of the closest entry per feature row; ties go to the lowest index.

    Equal, on every input, to ``_scan``, the full explicit-difference scan.
    Rows are screened in blocks of at most NEAREST_BLOCK_ELEMS rank
    elements, so memory stays bounded as N and K grow; each row's result
    does not depend on the block it falls in."""
    f = features.data if isinstance(features, Tensor) else np.asarray(features, dtype=np.float64)
    e = entries.data if isinstance(entries, Tensor) else np.asarray(entries, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] < 1:
        raise ValueError(f"codebook entries must be a non-empty (K, d) table, got {e.shape}")
    if f.ndim != 2 or f.shape[1] != e.shape[1]:
        raise ShapeError(f"feature dim mismatch: features {f.shape} vs entries {e.shape}")
    rows = max(1, NEAREST_BLOCK_ELEMS // e.shape[0])
    out = np.empty(f.shape[0], dtype=np.int64)
    with np.errstate(invalid="ignore", over="ignore"):   # non-finite rows go to _scan
        for lo in range(0, f.shape[0], rows):
            out[lo : lo + rows] = _screened(f[lo : lo + rows], e)
    return out


def vq_terms(features: Tensor, z_q_values: Tensor, beta: float) -> tuple[Tensor, Tensor]:
    """The two stop-gradient distance terms.

    codebook_term pulls the quantized values toward frozen features;
    commitment_term (weighted by beta) pulls features toward frozen
    quantized values.
    """
    features, z_q_values = as_tensor(features), as_tensor(z_q_values)
    if features.shape != z_q_values.shape:
        raise ShapeError(f"vq_terms: shapes differ, {features.shape} vs {z_q_values.shape}")
    codebook_term = mse_loss(stop_gradient(features), z_q_values)
    commitment_term = beta * mse_loss(stop_gradient(z_q_values), features)
    return codebook_term, commitment_term


def quantize_st(features: Tensor, cb: Codebook, entries: Tensor | None = None,
                update_usage: bool = True) -> QuantizationResult:
    """Quantize feature rows against a codebook with a straight-through backward.

    ``entries`` overrides the lookup table (e.g. refined entries) while the
    codebook still owns the learnable parameters and the usage counters.
    The decoder-path gradient on ``z_q`` lands on ``features`` unchanged;
    entries train only through ``codebook_term``; the commitment term is
    weighted by ``BETA``.
    """
    table = cb.entries if entries is None else entries
    if features.shape[-1] != cb.dim:
        raise ShapeError(f"feature dim {features.shape} does not match codebook dim {cb.dim}")
    idx = nearest_indices(features, table)
    selected = gather_rows(table, idx)
    z_q = straight_through(features, selected)
    codebook_term, commitment_term = vq_terms(features, selected, BETA)
    if update_usage:
        cb.record(idx)
    return QuantizationResult(z_q=z_q, indices=idx, codebook_term=codebook_term,
                              commitment_term=commitment_term)


def usage_stats(cb: Codebook) -> tuple[float, float]:
    """(perplexity, active_fraction) of the cumulative assignment histogram.

    Perplexity is exp of the assignment entropy (0 when nothing was
    assigned); active_fraction is the share of entries used at least once.
    """
    active = float(np.count_nonzero(cb.counts)) / cb.n_entries
    total = int(cb.counts.sum())
    if total == 0:
        return 0.0, active
    p = cb.counts.astype(np.float64) / total
    nz = p[p > 0]
    entropy = -(nz * np.log(nz)).sum()
    return float(np.exp(entropy)), active

