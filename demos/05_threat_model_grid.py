"""Do different attack constraints teach networks similar representations?

Trains one small net per threat family into its own run directory, then
runs the `threatgrid` experiment, which measures the mean cross-layer
similarity between every pair of trained nets on their shared benign probe
(the runs share a seed, so they draw the same probe). Norm-ball attacks
(linf, l2) are expected to land close together and structured attacks like
snow further away.
"""
import itertools
import os

from rslab import (
    DatasetSpec,
    ThreatModel,
    TrainingConfig,
    make_network,
    make_synthetic_dataset,
    train,
)
from rslab.experiments import ExperimentSpec, run_threatgrid

OUT = os.path.join(os.path.dirname(__file__), "out_threatgrid")
spec = DatasetSpec(n_train=800, n_val=240)
data = make_synthetic_dataset(spec, seed=0)

threats = {
    "linf": ThreatModel("linf", 0.1, steps=10),
    "l2": ThreatModel("l2", 1.0, steps=10),
    "snow": ThreatModel("snow", 0.5, steps=10),
}

runs = []
for name, threat in threats.items():
    net = make_network("miniresnet", (1, 16, 16), classes=4, seed=0)
    cfg = TrainingConfig(method="advpgd", threat=threat, epochs=12, probe_size=200)
    runs.append(os.path.join(OUT, name))
    _, trace = train(net, data, cfg, out_dir=runs[-1], model_id=name)
    print(f"trained {name:5s}: benign={trace.entries[-1].benign_acc:.3f} "
          f"robust={trace.entries[-1].robust_acc:.3f}")

_, means = run_threatgrid(
    ExperimentSpec(kind="threatgrid", runs=tuple(runs)), os.path.join(OUT, "threatgrid")
)
print("\nmean cross-layer similarity between robust nets:")
for a, b in itertools.combinations(threats, 2):
    print(f"  {a:5s} vs {b:5s}: {means[f'{a}|{b}']:.3f}")
