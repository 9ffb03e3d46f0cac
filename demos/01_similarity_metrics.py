"""Tour of the representation-similarity metrics on synthetic matrices.

Shows the invariances that make CKA useful for comparing layers of
different widths: rotations, isotropic scaling, and translations all leave
it unchanged, while genuinely different subspaces score low. Also
demonstrates the streaming estimator agreeing with the full-batch one.
"""
import numpy as np

from rslab import (
    class_cka_decomposition,
    linear_cka,
    mean_cca,
    online_cka,
    procrustes_similarity,
    svcca,
)

rng = np.random.default_rng(0)

n = 512
shared = rng.normal(size=(n, 12))
x = shared @ rng.normal(size=(12, 40)) + 0.5 * rng.normal(size=(n, 40))
y = shared @ rng.normal(size=(12, 24)) + 0.5 * rng.normal(size=(n, 24))
unrelated = rng.normal(size=(n, 24))

print("two views of one latent code vs an unrelated matrix")
print(f"  linear CKA   related={linear_cka(x, y):.3f}  unrelated={linear_cka(x, unrelated):.3f}")
print(f"  mean CCA     related={mean_cca(x, y):.3f}  unrelated={mean_cca(x, unrelated):.3f}")
print(f"  SVCCA(0.99)  related={svcca(x, y):.3f}  unrelated={svcca(x, unrelated):.3f}")
print(f"  Procrustes   related={procrustes_similarity(x, y):.3f}"
      f"  unrelated={procrustes_similarity(x, unrelated):.3f}")

q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
print("\ninvariances (all should be 1 / 2 for self-similarity):")
print(f"  CKA(x, x Q)        = {linear_cka(x, x @ q):.6f}")
print(f"  CKA(x, 1000 x)     = {linear_cka(x, 1000 * x):.6f}")
print(f"  CKA(x + c, x)      = {linear_cka(x + rng.normal(size=(1, 40)), x):.6f}")
print(f"  Procrustes(x, x Q) = {procrustes_similarity(x, x @ q):.6f}")

print("\nstreaming CKA vs full-batch unbiased CKA:")
full = online_cka(x, y, batch=n, passes=1)  # one batch: the full-data estimator
for batch in (32, 64, 128):
    est = online_cka(x, y, batch=batch, passes=3, seed=0)
    print(f"  batch={batch:4d}: online={est:.4f}  full={full:.4f}  |diff|={abs(est - full):.4f}")

labels = rng.integers(0, 4, n)
intra, inter = class_cka_decomposition(x, y, labels)
print("\nclass-conditional split of CKA (same-class vs cross-class Gram mass):")
print(f"  intra={intra:.4f}  inter={inter:.4f}  sum={intra + inter:.4f}"
      f"  (= CKA {linear_cka(x, y):.4f})")
