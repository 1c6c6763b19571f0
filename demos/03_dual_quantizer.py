"""The dual mechanism: channel split, transformer refinement of the global
codebook, deterministic local lookup, and concatenation.

Run:  python3 demos/03_dual_quantizer.py
"""

import numpy as np

from dualvq.autodiff import Tensor, backward
from dualvq.codebook import Codebook
from dualvq.dual_quantizer import DualQuantizerState, quantize_dual, split_channels
from dualvq.rng import component_rng
from dualvq.transformer import TransformerParams, refine

rng = np.random.default_rng(2)

# Latent block: 2 images, 8 channels, 4x4 spatial.
z = Tensor(rng.normal(size=(2, 8, 4, 4)) * 0.1, requires_grad=True)
zg, zl = split_channels(z, 4)
print("split shapes:", zg.shape, zl.shape)

tf = TransformerParams(4, 2, 2, 32, rng=component_rng(2, "tf"))
state = DualQuantizerState(
    global_cb=Codebook(16, 4, rng=component_rng(2, "cb_g")),
    local_cb=Codebook(16, 4, rng=component_rng(2, "cb_l")),
    tf_params=tf, split_global=4, split_local=4, beta=0.25,
)

# Fresh transformers start as the identity (zero-initialised residual
# output projections), so refinement is a no-op until training moves it.
refined = refine(state.global_cb.entries, tf)
print("fresh transformer refines to identity:",
      np.array_equal(refined.data, state.global_cb.entries.data))

z_q, res_g, res_l = quantize_dual(z, state)
print("quantized shape matches input:", z_q.shape == z.shape)
print(f"global terms: codebook {res_g.codebook_term.item():.5f}, "
      f"commitment {res_g.commitment_term.item():.5f}")
print(f"local terms:  codebook {res_l.codebook_term.item():.5f}, "
      f"commitment {res_l.commitment_term.item():.5f}")

# Once the transformer is live (nonzero output projections), every global
# entry receives gradient through attention mixing, even unused ones;
# that is the mechanism that fights codebook collapse.
for name, t in tf.named():
    if name.endswith("wo") or name.endswith("w2"):
        t.data = rng.normal(size=t.shape) * 0.1
z_q, res_g, res_l = quantize_dual(Tensor(z.data), state, update_usage=False)
backward(res_g.codebook_term + res_g.commitment_term)
touched = int((np.abs(state.global_cb.entries.grad) > 0).any(axis=1).sum())
used = len(np.unique(res_g.indices))
print(f"entries used this step: {used}/16; entries receiving gradient: {touched}/16")
