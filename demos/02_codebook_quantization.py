"""Single-codebook quantization mechanics: nearest-entry lookup, the
straight-through backward, the two loss terms, and usage statistics.

Run:  python3 demos/02_codebook_quantization.py
"""

import numpy as np

from dualvq.autodiff import Tensor, backward
from dualvq.codebook import Codebook, nearest_indices, quantize_st, usage_stats

rng = np.random.default_rng(1)

cb = Codebook(8, 2, rng=rng)
features = Tensor(rng.normal(size=(16, 2)) * 0.05, requires_grad=True)

idx = nearest_indices(features, cb.entries)
print("assignments:", idx.tolist())

res = quantize_st(features, cb)
print("z_q rows equal selected entries exactly:",
      np.array_equal(res.z_q.data, cb.entries.data[res.indices]))
print(f"codebook term   {res.codebook_term.item():.6f}")
print(f"commitment term {res.commitment_term.item():.6f}")

# The straight-through estimator hands the decoder-path gradient to the
# features unchanged; entries train only through the codebook term.
downstream = Tensor(rng.normal(size=(16, 2)))
backward((res.z_q * downstream).sum())
print("feature grad == downstream grad:", np.array_equal(features.grad, downstream.data))
print("entries untouched by decoder path:", cb.entries.grad is None)

features.zero_grad()
backward(res.codebook_term)
used = np.unique(res.indices)
print("entries with gradient:", sorted(int(k) for k in np.nonzero(cb.entries.grad.any(axis=1))[0]))
print("entries actually used:", sorted(int(k) for k in used))

perplexity, active = usage_stats(cb)
print(f"perplexity {perplexity:.2f} of K={cb.n_entries}, active fraction {active:.2f}")
