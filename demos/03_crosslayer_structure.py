"""Cross-layer similarity structure of standard vs adversarially trained nets.

The paper claims that the block structure of cross-layer similarity (runs
of distant layers that stay highly similar) disappears in adversarially
robust nets. This demo measures the long-range score, the mean similarity
over layer pairs at least one residual stage apart, for one standard and
one PGD-trained net, and prints which of the two scored higher; at desk
scale the sign depends on the seed. The heatmaps are written as PPM images
you can open with any viewer.
"""
import os

import numpy as np

from rslab import (
    DatasetSpec,
    ThreatModel,
    TrainingConfig,
    make_network,
    make_synthetic_dataset,
    train,
)
from rslab.activations import record_activations
from rslab.nets import Batch
from rslab.ppm import write_heatmap
from rslab.simmetrics import MetricKind, block_structure_score, crosslayer_matrix

OUT = os.path.join(os.path.dirname(__file__), "out_crosslayer")
os.makedirs(OUT, exist_ok=True)

spec = DatasetSpec(n_train=1000, n_val=300)
data = make_synthetic_dataset(spec, seed=0)
probe = Batch(data.val.inputs[:256], data.val.labels[:256])
threat = ThreatModel("linf", 0.1, steps=10)

metric = MetricKind.linear_cka()
scores = {}
for method in ("standard", "advpgd"):
    net = make_network("miniresnet", (1, 16, 16), classes=4, seed=0)
    cfg = TrainingConfig(
        method=method, threat=threat if method == "advpgd" else None,
        epochs=15, probe_size=128,
    )
    net, _ = train(net, data, cfg)
    aset = record_activations(net, probe, model_id=method)
    grid = crosslayer_matrix(aset, aset, metric)
    scores[method] = block_structure_score(grid, min_lag=5)
    path = os.path.join(OUT, f"heatmap_{method}.ppm")
    write_heatmap(path, grid.values, 0.0, 1.0)
    print(f"{method:9s}: long-range score = {scores[method]:.3f}  ({path})")

diff = scores["advpgd"] - scores["standard"]
print(f"\nadversarial minus standard long-range score: {diff:+.3f}")
if diff < 0:
    print("the standard net keeps distant layers more similar, as the paper claims")
else:
    print("the adversarially trained net keeps distant layers at least as similar,"
          " against the paper's claim")
