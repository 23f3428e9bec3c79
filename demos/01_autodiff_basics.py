"""Tour of the autodiff tape: building ops, reverse sweep, gradient checking.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from deformreg import Tape, Tensor3, grad_check

# A tape records dense 3D tensor ops; backward() walks it in reverse, once,
# dropping what it no longer needs (parameters and the loss keep their values).
rng = np.random.default_rng(0)
tape = Tape()
x = tape.input(Tensor3(rng.uniform(0.2, 0.8, (6, 6, 6, 1))), parameter=True)
y = tape.input(Tensor3(rng.uniform(0.2, 0.8, (6, 6, 6, 1))))

# loss = mean box-filtered squared difference
diff = tape.sub(x, y)
smoothed = tape.box_filter(tape.square(diff), radius=1)
loss = tape.mean(smoothed)
print(f"forward value: {loss.value.item():.6f}")

grads = tape.backward(loss)
g = grads[x.id].data
print(f"gradient shape {g.shape}, |g| mean {np.abs(g).mean():.2e}")

# Pooling halves each axis (odd trailing slices become partial blocks).
tape2 = Tape()
img = tape2.input(Tensor3(rng.uniform(0, 1, (9, 9, 9, 1))))
pooled = tape2.avg_pool2(img)
print(f"avg_pool2: {img.value.dims} -> {pooled.value.dims}")

# Trilinear sampling reads the image at x + u(x) for each node x of the
# displacement u's grid, and is differentiable in both the image and u.
tape3 = Tape()
image = tape3.input(Tensor3(rng.uniform(0, 1, (8, 8, 8, 1))))
u = tape3.input(Tensor3(rng.uniform(-0.05, 0.05, (4, 4, 4, 3))), parameter=True)
sampled = tape3.trilinear_sample(image, u)
sloss = tape3.mean(tape3.square(sampled))
sgrads = tape3.backward(sloss)
print(f"d(loss)/d(u) max |.|: {np.abs(sgrads[u.id].data).max():.3e}")


# grad_check compares the analytic gradient against central differences.
def f(x0):
    t = Tape()
    p = t.input(x0, parameter=True)
    value = t.sum(t.sqrt(t.add_const(t.square(p), 0.5)))
    return value.value.item(), t.backward(value)[p.id]


err = grad_check(f, Tensor3(rng.uniform(-1, 1, (5, 5, 5, 1))), h=1e-5)
print(f"grad_check max relative error: {err:.2e}")
