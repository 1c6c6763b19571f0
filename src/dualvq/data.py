"""Datasets: a deterministic procedural image generator, binary-PPM
ingestion, the fixed 80/10/10 split (``split_rows``), and the seeded batch
stream.

Synthetic images cycle through three shape classes (rectangle, circle,
linear gradient) drawn over lightly textured backgrounds, so class counts
stay within one of n/3. Every image derives from its own seeded stream:
the same (seed, n, size) always yields bit-identical sets.
"""

from __future__ import annotations

import os

import numpy as np

from .rng import component_rng

SHAPE_KINDS = ("rectangle", "circle", "gradient")
SPLITS = ("train", "val", "test")


def _background(rng, size):
    base = rng.uniform(0.15, 0.85, size=3)
    img = np.broadcast_to(base[:, None, None], (3, size, size)).copy()
    img += rng.normal(0.0, 0.03, size=(3, size, size))
    return img


def _draw_rectangle(rng, img, size):
    x0, y0 = rng.integers(0, size // 2, size=2)
    x1 = int(rng.integers(x0 + size // 4, size))
    y1 = int(rng.integers(y0 + size // 4, size))
    color = rng.uniform(0.0, 1.0, size=3)
    img[:, y0:y1, x0:x1] = color[:, None, None]


def _draw_circle(rng, img, size):
    cy, cx = rng.uniform(size * 0.25, size * 0.75, size=2)
    radius = rng.uniform(size * 0.15, size * 0.35)
    color = rng.uniform(0.0, 1.0, size=3)
    yy, xx = np.mgrid[0:size, 0:size]
    mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2
    for c in range(3):
        img[c][mask] = color[c]


def _draw_gradient(rng, img, size):
    theta = rng.uniform(0, 2 * np.pi)
    ca, cb = rng.uniform(0.0, 1.0, size=(2, 3))
    yy, xx = np.mgrid[0:size, 0:size]
    t = (np.cos(theta) * xx + np.sin(theta) * yy)
    t = (t - t.min()) / max(t.max() - t.min(), 1e-9)
    img[:] = ca[:, None, None] * (1 - t) + cb[:, None, None] * t
    img += rng.normal(0.0, 0.02, size=(3, size, size))


_DRAWERS = {"rectangle": _draw_rectangle, "circle": _draw_circle, "gradient": _draw_gradient}


def synth_dataset(seed: int, n: int, size: int, split: str | None = None) -> np.ndarray:
    """(n, 3, size, size) float64 images in [0, 1]; class-balanced by index.
    With a ``split``, only that split's rows, bit-identical to slicing the
    whole set, since image i is drawn from its own stream."""
    rows = range(n) if split is None else split_rows(n, split)
    images = np.empty((len(rows), 3, size, size), dtype=np.float64)
    for j, i in enumerate(rows):
        rng = component_rng(seed, "synth", i)
        kind = SHAPE_KINDS[i % 3]
        img = _background(rng, size)
        _DRAWERS[kind](rng, img, size)
        images[j] = np.clip(img, 0.0, 1.0)
    return images


def split_rows(n: int, split: str) -> range:
    """Rows of one split of an n-image set under the fixed 80/10/10 rule:
    train first, then val, then test, by position."""
    n_train = int(n * 0.8)
    n_val = int(n * 0.1)
    bounds = {"train": (0, n_train), "val": (n_train, n_train + n_val), "test": (n_train + n_val, n)}
    return range(*bounds[split])


def split_dataset(images: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 80/10/10 split by position."""
    n = images.shape[0]
    return tuple(images[r.start : r.stop] for r in (split_rows(n, s) for s in SPLITS))


def batch_indices(seed: int, n_train: int, batch: int, step: int) -> np.ndarray:
    """Training batch for a given step: a window into the concatenation of
    per-epoch shuffles. Pure function of (seed, step), so resumed runs see
    the identical stream."""
    if batch > n_train:
        raise ValueError(f"batch {batch} larger than training set {n_train}")
    pos = step * batch
    out = np.empty(batch, dtype=np.int64)
    filled = 0
    while filled < batch:
        epoch, offset = divmod(pos + filled, n_train)
        perm = component_rng(seed, "shuffle", epoch).permutation(n_train)
        take = min(batch - filled, n_train - offset)
        out[filled : filled + take] = perm[offset : offset + take]
        filled += take
    return out


def epoch_of_step(n_train: int, batch: int, step: int) -> int:
    return (step * batch) // n_train


# -- binary PPM (P6) ingestion ---------------------------------------------------


def save_ppm(path: str, image: np.ndarray):
    """Write one (3, H, W) image in [0, 1] as an 8-bit binary PPM."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"save_ppm: need (3, H, W), got {image.shape}")
    h, w = image.shape[1], image.shape[2]
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    header = f"P6\n{w} {h}\n255\n".encode()
    from .tensor_io import atomic_write_bytes

    atomic_write_bytes(path, header + pixels.transpose(1, 2, 0).tobytes())


def load_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(blob):
            raise ValueError(f"{path}: truncated PPM header ({len(fields)} of 4 fields)")
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM (magic {fields[0]!r})")
    try:
        w, h, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise ValueError(f"{path}: PPM header fields {fields[1:]} are not all integers") from None
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    raw = np.frombuffer(blob[pos : pos + 3 * w * h], dtype=np.uint8)
    if raw.size != 3 * w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return raw.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def ppm_names(dirpath: str) -> list[str]:
    """The .ppm file names directly under a directory, sorted: the images of
    a ``ppm_dir`` dataset, in order."""
    return sorted(f for f in os.listdir(dirpath) if f.lower().endswith(".ppm"))


def load_ppm_dir(dirpath: str, size: int, split: str | None = None) -> np.ndarray:
    """Load every .ppm under a directory (sorted by name) as one array, or
    with a ``split`` only the files of that split."""
    names = ppm_names(dirpath)
    if not names:
        raise ValueError(f"no .ppm files under {dirpath}")
    if split is not None:
        rows = split_rows(len(names), split)
        if not rows:
            raise ValueError(f"{dirpath}: {len(names)} .ppm files leave the {split} split empty")
        names = names[rows.start : rows.stop]
    images = []
    for name in names:
        img = load_ppm(os.path.join(dirpath, name))
        if img.shape[1] != size or img.shape[2] != size:
            raise ValueError(f"{name}: expected {size}x{size}, got {img.shape[1]}x{img.shape[2]}")
        images.append(img)
    return np.stack(images)


def build_dataset(spec: dict, image_size: int, split: str | None = None) -> np.ndarray:
    """Materialize a dataset spec that ``config`` has filled in and checked:
    kind "synthetic" with its "seed" and "n", or kind "ppm_dir" with its "path".

    Without ``split`` this is the whole set. With one of ``SPLITS`` it is
    only that split's images, bit-identical to
    ``split_dataset(build_dataset(spec, image_size))[SPLITS.index(split)]``,
    and only those images are synthesized or read.
    """
    if spec["kind"] == "synthetic":
        return synth_dataset(spec["seed"], spec["n"], image_size, split)
    return load_ppm_dir(spec["path"], image_size, split)
