"""rslab: a desk-scale laboratory for comparing internal representations of
standard and adversarially trained networks.

Train small networks (standard, PGD-adversarial, TRADES), generate
adversarial examples under five threat models, record layer activations to
a compact binary format, and compare representations with CKA, streaming
CKA, CCA/SVCCA, and Orthogonal Procrustes similarity.
"""

from .activations import (
    ActivationRecord,
    ActivationSet,
    read_dump,
    record_activations,
    write_dump,
)
from .errors import (
    ConfigError,
    NumericalError,
    RslabError,
    ShapeError,
    ValidationError,
)
from .nets import (
    AvgPool,
    Batch,
    Conv2d,
    Dense,
    Flatten,
    NetworkGraph,
    Relu,
    ResidualAdd,
    forward,
    init_params,
    input_grad,
    load_checkpoint,
    loss_and_grad,
    make_network,
    save_checkpoint,
)
from .numerics import center_columns, svd_truncate
from .simmetrics import (
    MetricKind,
    SimilarityMatrix,
    block_structure_score,
    crosslayer_matrix,
)
from .threats import AdversarialBatch, ThreatModel, evaluate_accuracy, generate
from .training import (
    Dataset,
    DatasetSpec,
    EpochTrace,
    TrainingConfig,
    load_dataset,
    make_synthetic_dataset,
    save_dataset,
    train,
)

__version__ = "0.1.0"
