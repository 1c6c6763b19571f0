"""Tour of the tensor engine: building graphs, gradients, and checking
them against finite differences.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from dualvq.autodiff import Tensor, backward, conv2d, l1_loss, matmul, relu

rng = np.random.default_rng(0)

# A tensor marked requires_grad collects gradients on backward().
x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

loss = relu(matmul(x, w)).sum()
backward(loss)
print("loss:", loss.item())
print("grad shapes:", x.grad.shape, w.grad.shape)

# Gradients match central finite differences.
h = 1e-5
i, j = 1, 2
keep = x.data[i, j]
x.data[i, j] = keep + h
hi = relu(matmul(Tensor(x.data), Tensor(w.data))).sum().item()
x.data[i, j] = keep - h
lo = relu(matmul(Tensor(x.data), Tensor(w.data))).sum().item()
x.data[i, j] = keep
fd = (hi - lo) / (2 * h)
print(f"analytic dx[{i},{j}] = {x.grad[i, j]:.10f}")
print(f"numeric  dx[{i},{j}] = {fd:.10f}")

# Convolution with full gradients; the same engine carries the whole model.
# A 4x4 kernel at stride 2, pad 1 (the encoder's down-conv) halves 8x8 to 4x4.
img = Tensor(rng.normal(size=(1, 3, 8, 8)), requires_grad=True)
kernel = Tensor(rng.normal(size=(4, 3, 4, 4)) * 0.2, requires_grad=True)
feat = conv2d(img, kernel, stride=2, pad=1)
print("conv output shape:", feat.shape)

target = Tensor(np.zeros(feat.shape))
backward(l1_loss(feat, target))
print("conv kernel grad norm:", float(np.linalg.norm(kernel.grad)))

# Determinism: rebuilding the same graph gives bit-identical results.
def build():
    a = Tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)
    out = relu(a * 2.0 + 0.3).mean()
    backward(out)
    return out.item(), a.grad.copy()

v1, g1 = build()
v2, g2 = build()
print("bit-identical reruns:", v1 == v2 and np.array_equal(g1, g2))
