"""Reconstruction metrics, the codebook-utilization report (every figure
derived from each codebook's cumulative counts), and a closed-form
Gaussian Fréchet distance on fixed image features.

``image_features`` is one fixed random feature map: each non-overlapping
4x4 patch is projected by a Gaussian matrix drawn from a constant seed,
then passed through ReLU. It has no trained weights, so every model is
measured in the same space, but it is NOT Inception-FID and its values are
not comparable to Inception-based numbers. Evaluation computes the
distance on the joint span of the two feature sets (``joint_basis``), an
orthonormal basis Q of both sets' centred rows and their mean difference.
The mean difference and the range of each covariance lie in span(Q), so
projecting the features onto Q leaves the means' distance, both traces
and tr((C1 C2)^1/2) unchanged in exact arithmetic, while the eigenproblems
shrink from F x F to at most (2n + 1) x (2n + 1) for n images a set.

Images are assumed to live in [0, 1]; PSNR uses peak 1.0 and
returns +inf for identical inputs (serialized as the string "inf").
"""

from __future__ import annotations

import json

import numpy as np

from . import tensor_io
from .codebook import usage_stats


def _check_same_shape(x, x_hat, what):
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"{what}: shapes differ, {x.shape} vs {x_hat.shape}")
    return x, x_hat


def psnr(x, x_hat) -> float:
    """10*log10(1 / MSE) in dB (peak 1.0); +inf when the images coincide."""
    x, x_hat = _check_same_shape(x, x_hat, "psnr")
    mse = float(((x - x_hat) ** 2).mean())
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def l1_metric(x, x_hat) -> float:
    x, x_hat = _check_same_shape(x, x_hat, "l1_metric")
    return float(np.abs(x - x_hat).mean())


def l2_metric(x, x_hat) -> float:
    x, x_hat = _check_same_shape(x, x_hat, "l2_metric")
    return float(((x - x_hat) ** 2).mean())


def compression_ratio(input_shape, latent_hw) -> float:
    """Input element count over latent token count (256x256x3 -> 16x16 gives 768)."""
    n_in = 1
    for v in input_shape:
        n_in *= v
    h, w = latent_hw
    return n_in / (h * w)


# -- fixed image features and the Gaussian Fréchet distance -----------------------

FEATURE_PATCH = 4        # pixels per side of a feature patch
FEATURE_WIDTH = 16       # features per patch
FEATURE_SEED = 2002      # of the projection; no run seed reaches it


def image_features(images) -> np.ndarray:
    """(n, F) features of (n, C, H, W) images: every non-overlapping
    FEATURE_PATCH-square patch, flattened channel-major, times one fixed
    Gaussian (C·16, FEATURE_WIDTH) matrix of variance 1 / (C·16), through
    ReLU. Rows and columns past the last whole patch are dropped; F is
    FEATURE_WIDTH per patch (1024 at 32x32), 0 for an image smaller than one."""
    x = np.asarray(images, dtype=np.float64)
    n, c, h, w = x.shape
    p = FEATURE_PATCH
    gh, gw = h // p, w // p
    patches = x[:, :, :gh * p, :gw * p].reshape(n, c, gh, p, gw, p).transpose(0, 2, 4, 1, 3, 5)
    fan_in = c * p * p
    proj = np.random.default_rng(FEATURE_SEED).normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, FEATURE_WIDTH))
    return np.maximum(patches.reshape(n, gh * gw, fan_in) @ proj, 0.0).reshape(n, -1)


def _sym_floor(cov):
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    return (cov + cov.T) / 2.0


def _psd_sqrt(m):
    w, u = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.T


def frechet_gaussian(mu1, cov1, mu2, cov2) -> float:
    """Squared Fréchet distance between two Gaussians.

    Covariances are symmetrized with eigenvalues floored at zero; the cross
    term uses the eigendecomposition of the symmetrized product
    sqrt(C1) C2 sqrt(C1), whose trace equals tr((C1 C2)^1/2).
    """
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=np.float64))
    mu2 = np.atleast_1d(np.asarray(mu2, dtype=np.float64))
    c1 = _sym_floor(cov1)
    c2 = _sym_floor(cov2)
    if mu1.shape != mu2.shape or c1.shape != c2.shape or c1.shape[0] != mu1.shape[0]:
        raise ValueError(
            f"frechet_gaussian: dimension mismatch mu {mu1.shape}/{mu2.shape} "
            f"cov {c1.shape}/{c2.shape}"
        )
    a = _psd_sqrt(c1)
    inner = _sym_floor(a @ c2 @ a)
    w = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    tr_sqrt = float(np.sqrt(w).sum())
    d2 = float(((mu1 - mu2) ** 2).sum() + np.trace(c1) + np.trace(c2) - 2.0 * tr_sqrt)
    return max(d2, 0.0)


def joint_basis(f1, f2) -> np.ndarray:
    """(d, r) orthonormal basis, r <= n1 + n2 + 1, whose span holds every
    centred row of the (n, d) features ``f1`` and ``f2`` and the difference
    of their means; when r reaches d it is a basis of the whole space."""
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    m1 = f1.mean(axis=0)
    m2 = f2.mean(axis=0)
    q, _ = np.linalg.qr(np.concatenate([f1 - m1, f2 - m2, (m1 - m2)[None]]).T)
    return q


def gaussian_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of row-wise feature vectors."""
    features = np.asarray(features, dtype=np.float64)
    mu = features.mean(axis=0)
    centered = features - mu
    cov = centered.T @ centered / max(features.shape[0] - 1, 1)
    return mu, cov


# -- utilization reporting --------------------------------------------------------


def emit_utilization(codebooks: dict, step: int, config_hash: str,
                     path_stem: str) -> tuple[str, str]:
    """Write ``<stem>.json`` (per codebook: size, total, perplexity, active
    fraction and the cumulative histogram, all derived from ``counts``) and
    ``<stem>.csv`` (one row per entry); returns both paths."""
    json_path = f"{path_stem}.json"
    csv_path = f"{path_stem}.csv"
    series = []
    lines = ["codebook,entry_id,count"]
    for name, cb in codebooks.items():
        perp, active = usage_stats(cb)
        counts = cb.counts.tolist()
        series.append({"name": name, "n_entries": cb.n_entries, "total_assignments": sum(counts),
                       "perplexity": perp, "active_fraction": active, "counts": counts})
        lines += [f"{name},{k},{c}" for k, c in enumerate(counts)]
    blob = {"step": step, "config_hash": config_hash, "series": series}
    tensor_io.atomic_write_bytes(json_path, json.dumps(blob, indent=1).encode())
    tensor_io.atomic_write_bytes(csv_path, ("\n".join(lines) + "\n").encode())
    return json_path, csv_path


def sanitize_for_json(obj):
    """Replace non-finite floats with strings so files stay strict JSON."""
    if isinstance(obj, dict):
        return {k: sanitize_for_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_for_json(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        if np.isnan(v):
            return "nan"
        return v
    if isinstance(obj, np.integer):
        return int(obj)
    return obj
