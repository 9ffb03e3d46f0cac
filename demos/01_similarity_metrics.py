"""Tour of the representation-similarity metrics on synthetic matrices.

Shows the invariances that make CKA useful for comparing layers of
different widths: rotations, isotropic scaling, and translations all leave
it unchanged, while genuinely different subspaces score low. Also
demonstrates the streaming estimator agreeing with the full-batch one.
Every score goes through `MetricKind(name).evaluate`.
"""
import numpy as np

from rslab import MetricKind
from rslab.simmetrics import METRIC_NAMES

rng = np.random.default_rng(0)

n = 512
shared = rng.normal(size=(n, 12))
x = shared @ rng.normal(size=(12, 40)) + 0.5 * rng.normal(size=(n, 40))
y = shared @ rng.normal(size=(12, 24)) + 0.5 * rng.normal(size=(n, 24))
unrelated = rng.normal(size=(n, 24))

print("two views of one latent code vs an unrelated matrix (default parameters)")
for name in METRIC_NAMES:
    metric = MetricKind(name)
    print(f"  {name:<11} related={metric.evaluate(x, y):.3f}"
          f"  unrelated={metric.evaluate(x, unrelated):.3f}")

cka, procrustes = MetricKind("linear_cka"), MetricKind("procrustes")
q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
print("\ninvariances (all should be 1 / 2 for self-similarity):")
print(f"  CKA(x, x Q)        = {cka.evaluate(x, x @ q):.6f}")
print(f"  CKA(x, 1000 x)     = {cka.evaluate(x, 1000 * x):.6f}")
print(f"  CKA(x + c, x)      = {cka.evaluate(x + rng.normal(size=(1, 40)), x):.6f}")
print(f"  Procrustes(x, x Q) = {procrustes.evaluate(x, x @ q):.6f}")

print("\nstreaming CKA vs full-batch unbiased CKA:")
# one batch: the full-data estimator
full = MetricKind("online_cka", batch=n, passes=1).evaluate(x, y)
for batch in (32, 64, 128):
    est = MetricKind("online_cka", batch=batch, passes=3, seed=0).evaluate(x, y)
    print(f"  batch={batch:4d}: online={est:.4f}  full={full:.4f}  |diff|={abs(est - full):.4f}")
