"""Cross-layer similarity structure of standard vs adversarially trained nets.

The paper claims that the block structure of cross-layer similarity (runs
of distant layers that stay highly similar) disappears in adversarially
robust nets. This demo trains one standard and one PGD-trained net into run
directories, runs the `crosslayer` experiment on each run's final benign
probe dump, and prints the long-range score (the mean similarity over layer
pairs at least one residual stage apart) and which of the two scored
higher; at desk scale the sign depends on the seed. The experiment writes
each heatmap as a PPM image you can open with any viewer.
"""
import os

from rslab import (
    DatasetSpec,
    ThreatModel,
    TrainingConfig,
    make_network,
    make_synthetic_dataset,
    train,
)
from rslab.experiments import ExperimentSpec, run_crosslayer

OUT = os.path.join(os.path.dirname(__file__), "out_crosslayer")
spec = DatasetSpec(n_train=1000, n_val=300)
data = make_synthetic_dataset(spec, seed=0)
threat = ThreatModel("linf", 0.1, steps=10)

scores = {}
for method in ("standard", "advpgd"):
    net = make_network("miniresnet", (1, 16, 16), classes=4, seed=0)
    run = os.path.join(OUT, method)
    cfg = TrainingConfig(
        method=method, threat=threat if method == "advpgd" else None,
        epochs=15, probe_size=256,
    )
    train(net, data, cfg, out_dir=run, model_id=method)
    out = os.path.join(OUT, f"crosslayer_{method}")
    _, scores[method] = run_crosslayer(
        ExperimentSpec(kind="crosslayer", runs=(run,), min_lag=5), out
    )
    path = os.path.join(out, "heatmap_crosslayer.ppm")
    print(f"{method:9s}: long-range score = {scores[method]:.3f}  ({path})")

diff = scores["advpgd"] - scores["standard"]
print(f"\nadversarial minus standard long-range score: {diff:+.3f}")
if diff < 0:
    print("the standard net keeps distant layers more similar, as the paper claims")
else:
    print("the adversarially trained net keeps distant layers at least as similar,"
          " against the paper's claim")
