"""Train a small network two ways and attack both.

The paper counts a loss of benign accuracy among the pitfalls of robust
training: an adversarially trained net is expected to gain robust accuracy
at some cost in benign accuracy. This demo trains one standard and one
PGD-trained net, and prints the trade its own numbers show, next to chance
level; at this desk budget the PGD-trained net may learn nothing. The five
threat families are then compared on the standard net at their default
desk budgets.
"""
import numpy as np

from rslab import (
    Batch,
    DatasetSpec,
    ThreatModel,
    TrainingConfig,
    evaluate_accuracy,
    make_network,
    make_synthetic_dataset,
    train,
)

spec = DatasetSpec(n_train=1000, n_val=300)
data = make_synthetic_dataset(spec, seed=0)
threat = ThreatModel("linf", 0.1, steps=10)
eval_threat = ThreatModel("linf", 0.1, steps=20)
EPOCHS = 15

print(f"dataset: {spec.classes} classes, {spec.size}x{spec.size}, "
      f"{data.train.n} train / {data.val.n} val\n")

nets = {}
acc = {}
for method in ("standard", "advpgd"):
    net = make_network("miniresnet", (1, spec.size, spec.size),
                       classes=spec.classes, seed=0)
    cfg = TrainingConfig(
        method=method, threat=threat if method == "advpgd" else None,
        epochs=EPOCHS, probe_size=128, val_adv_subset=128,
        eval_threat=eval_threat,
    )
    net, trace = train(net, data, cfg)
    last = trace.entries[-1]
    nets[method] = net
    acc[method] = (last.benign_acc, last.robust_acc)
    print(f"{method:9s}: benign={last.benign_acc:.3f}  robust={last.robust_acc:.3f}")

d_benign = acc["advpgd"][0] - acc["standard"][0]
d_robust = acc["advpgd"][1] - acc["standard"][1]
print(f"\nadversarial minus standard: benign {d_benign:+.3f}, robust {d_robust:+.3f}"
      f" (chance {1 / spec.classes:.3f})")
if acc["advpgd"][0] <= 1 / spec.classes:
    print("the adversarially trained net is no better than chance on benign inputs")
elif d_robust > 0 and d_benign < 0:
    print("adversarial training traded benign accuracy for robustness, as the paper describes")
elif d_robust > 0:
    print("adversarial training gained robustness at no benign cost, unlike the paper's claim")
else:
    print("adversarial training gained no robust accuracy at this budget")

print("\nstandard net under each threat family (benign acc "
      f"{evaluate_accuracy(nets['standard'], data.val)[0]:.3f}):")
sub = Batch(data.val.inputs[:200], data.val.labels[:200])
for kind, eps in (("linf", 0.1), ("l2", 1.0), ("jpeg", 0.1),
                  ("gabor", 0.2), ("snow", 0.5)):
    t = ThreatModel(kind, eps, steps=20)
    _, robust = evaluate_accuracy(nets["standard"], sub, t, seed=0)
    print(f"  {kind:6s} eps={eps:<5}: robust accuracy {robust:.3f}")
