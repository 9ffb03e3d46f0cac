"""Where adversarial inputs bend the network, and when layers converge.

Two of the paper's claims are checked here against this demo's own numbers.

Part 1, divergence: benign and adversarial representations of the same
probe diverge with depth, and an adversarially trained net keeps them more
aligned than a standard one. For one standard and one PGD-trained net it
prints the per-layer similarity of clean and attacked activations, compares
the mean over the first third of the layers with the final layer, and
compares the two nets' final layers.

Part 2, evolution: the paper finds that overfitting during robust training
largely impacts deeper layers, so earlier stages should reach their final
representation sooner. For the PGD-trained net it prints each stage's
similarity to its own final epoch and the first epoch at which each stage
reaches 0.9, and says which stage got there first.

At this desk budget either claim may fail to show; the verdicts say so.
"""
import json
import os

from rslab import (
    DatasetSpec,
    ThreatModel,
    TrainingConfig,
    make_network,
    make_synthetic_dataset,
    train,
)
from rslab.experiments import ExperimentSpec, run_divergence, run_evolution

OUT = os.path.join(os.path.dirname(__file__), "out_evolution")
spec = DatasetSpec(n_train=1000, n_val=300)
data = make_synthetic_dataset(spec, seed=0)
threat = ThreatModel("linf", 0.1, steps=10)

runs = {}
for method in ("standard", "advpgd"):
    net = make_network("miniresnet", (1, 16, 16), classes=4, seed=0)
    runs[method] = os.path.join(OUT, method)
    cfg = TrainingConfig(
        method=method, threat=threat if method == "advpgd" else None,
        epochs=16, checkpoint_every=2, probe_size=128,
        eval_threat=ThreatModel("linf", 0.1, steps=20),
    )
    train(net, data, cfg, out_dir=runs[method], model_id=method)

print("benign-vs-adversarial similarity by depth (layer 0 -> logits):")
final = {}
for method, run in runs.items():
    curve, summary = run_divergence(
        ExperimentSpec(kind="divergence", runs=(run,)), os.path.join(OUT, f"divergence_{method}")
    )
    first, final[method] = summary["first_third_mean"], summary["final_layer"]
    verdict = "diverges with depth" if final[method] < first else "does not diverge with depth"
    print(f"  {method:9s}: " + " ".join(f"{v:.2f}" for v in curve))
    print(f"  {'':9s}  first-third mean {first:.3f}, final layer {final[method]:.3f}: {verdict}")
if final["advpgd"] > final["standard"]:
    print("the PGD-trained net keeps its final layer more aligned, as the paper claims")
else:
    print("the standard net keeps its final layer at least as aligned, against the paper's claim")

print("\nsimilarity of each stage to its final representation, per epoch:")
stages = {6: "stage1", 12: "stage2", 18: "stage3"}
evolution_dir = os.path.join(OUT, "evolution")
epochs, series, _ = run_evolution(
    ExperimentSpec(kind="evolution", runs=(runs["advpgd"],), taps=tuple(stages)), evolution_dir
)
with open(os.path.join(evolution_dir, "summary.json")) as fh:
    reach09 = json.load(fh)["reach_09_epoch"]
reach = {label: reach09[str(tap)] for tap, label in stages.items()}
print("  epoch:   " + " ".join(f"{e:5d}" for e in epochs))
for tap, label in stages.items():
    print(f"  {label}:  " + " ".join(f"{v:5.2f}" for v in series[tap]))
print("first epoch at 0.9: " + ", ".join(f"{s} {e}" for s, e in reach.items()))
order = [reach[s] if reach[s] is not None else epochs[-1] + 1 for s in stages.values()]
first = [s for s, e in zip(stages.values(), order) if e == min(order)]
if len(first) == len(stages):
    print("all stages reach 0.9 together; this run does not separate them")
elif order == sorted(order):
    print(f"{' and '.join(first)} reached 0.9 first and deeper stages later, as the paper claims")
else:
    print(f"{' and '.join(first)} reached 0.9 first; a deeper stage settles before an"
          " earlier one, against the paper's claim")
