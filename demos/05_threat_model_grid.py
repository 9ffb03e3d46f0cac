"""Do different attack constraints teach networks similar representations?

Trains one small net per threat family, then measures mean cross-layer
similarity between every pair of trained nets on the same benign probe.
Norm-ball attacks (linf, l2) land close together; structured attacks like
snow sit further away.
"""
import itertools
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
from rslab.simmetrics import MetricKind, crosslayer_matrix

spec = DatasetSpec(n_train=800, n_val=240)
data = make_synthetic_dataset(spec, seed=0)
probe = Batch(data.val.inputs[:200], data.val.labels[:200])
metric = MetricKind.linear_cka()

threats = {
    "linf": ThreatModel("linf", 0.1, steps=10),
    "l2": ThreatModel("l2", 1.0, steps=10),
    "snow": ThreatModel("snow", 0.5, steps=10),
}

sets = {}
for name, threat in threats.items():
    net = make_network("miniresnet", (1, 16, 16), classes=4, seed=0)
    cfg = TrainingConfig(method="advpgd", threat=threat, epochs=12, probe_size=128)
    net, trace = train(net, data, cfg)
    sets[name] = record_activations(net, probe, model_id=name)
    print(f"trained {name:5s}: benign={trace.entries[-1].benign_acc:.3f} "
          f"robust={trace.entries[-1].robust_acc:.3f}")

print("\nmean cross-layer similarity between robust nets:")
for a, b in itertools.combinations(sets, 2):
    grid = crosslayer_matrix(sets[a], sets[b], metric)
    print(f"  {a:5s} vs {b:5s}: {grid.values.mean():.3f}")
