"""Activation-dump data model and the RSAM binary file format.

A dump holds one matrix per tapped layer, recorded over a fixed probe set,
together with per-point class labels and a JSON manifest. Records stay
float32 from the tap to the metric: `record_activations` keeps the float32
taps `nets.forward` returns, `write_dump` writes them without a copy, and
each metric widens a layer to float64 once, in `MetricKind.prepare`. A
recording therefore holds exactly what its dump reloads.

`read_dump` checks the whole file once and then keeps, per record, only
where its payload lies; a record's payload is read from the file, as a
read-only float32 array, each time its `matrix` is read, and nothing of it
is cached. An analysis thus holds its prepared layers and the raw layers in
use at that moment, not the dump. The file must stay unchanged while its
set is in use: a read after the file was rewritten, truncated or replaced
raises FormatError.

The manifest is the one place a dump states its input condition
(`{"kind": "benign"}`, or `{"kind": "adversarial", "threat": ..., "epsilon":
...}`), its model, epoch and seed, and the digest of the clean probe it was
recorded on, so a benign and an adversarial dump of one probe pair up;
`require_same_probe` is the rule every comparison of dumps passes through.

RSAM v2 is a `container` file (magic "RSAM"; the manifest is its trailer)
whose body is, little-endian:

    per record:
        name | u32 layer_index | u64 n | u64 p | f32[n*p] row-major payload
    u64 label_count (= n) | i32[n] labels

A file of any other version, v1 included, is rejected with VersionError and
must be recorded again.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from . import container, nets
from .errors import (
    AlignmentError,
    ManifestError,
    ProbeMismatchError,
    ShapeError,
    ValidationError,
)

MAGIC = b"RSAM"
VERSION = 2


class ActivationRecord:
    """One layer's n x p activation matrix, float32 or float64.

    `matrix` is given as an array, kept as given, without a cast or a copy,
    when it is float32 or float64 and made float64 otherwise; or, from
    `read_dump`, as the `container.Extent` of a dump's payload, which the
    record reads from the file each time `matrix` is read. `n` and `p` come
    from the stored shape, so neither reads the file.
    """

    def __init__(self, layer_name: str, layer_index: int, matrix):
        if not isinstance(matrix, container.Extent):
            m = np.asarray(matrix)
            matrix = m if m.dtype == np.float32 else np.asarray(m, dtype=np.float64)
        if len(matrix.shape) != 2 or 0 in matrix.shape:
            raise ShapeError(f"record {layer_name!r} matrix must be nonempty 2-d")
        if layer_index < 0:
            raise ValidationError("layer_index must be >= 0")
        self.layer_name = layer_name
        self.layer_index = layer_index
        self._stored = matrix

    @property
    def matrix(self) -> np.ndarray:  # (n, p) float32 or float64
        m = self._stored
        return m.read() if isinstance(m, container.Extent) else m

    @property
    def n(self) -> int:
        return self._stored.shape[0]

    @property
    def p(self) -> int:
        return self._stored.shape[1]


@dataclass
class ActivationSet:
    """Ordered per-layer records over one probe set, with labels and manifest."""

    records: list
    labels: np.ndarray  # (n,) int
    manifest: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.records:
            raise ValidationError("activation set must contain records")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.records[0].n
        for r in self.records:
            if r.n != n:
                raise AlignmentError(
                    f"record {r.layer_name!r} has {r.n} rows, expected {n}"
                )
        idx = [r.layer_index for r in self.records]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValidationError("layer_index must be strictly increasing")
        if self.labels.ndim != 1 or len(self.labels) != n:
            raise AlignmentError("labels length must equal probe size")
        if len(self.labels) and self.labels.min() < 0:
            raise ValidationError("labels must be >= 0")

    @property
    def n(self) -> int:
        return self.records[0].n

    @property
    def layer_names(self) -> list:
        return [r.layer_name for r in self.records]


def probe_digest(inputs: np.ndarray, labels: np.ndarray) -> str:
    """Stable digest of a probe batch, for detecting probe drift across dumps."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(inputs, dtype=np.float32).tobytes())
    h.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def require_same_probe(*sets: ActivationSet) -> None:
    """Raise ProbeMismatchError unless all sets share n and the probe digest;
    a missing digest is a value of its own, which pairs only with itself."""
    probes = sorted({(s.n, str(s.manifest.get("probe_digest"))) for s in sets})
    if len(probes) > 1:
        raise ProbeMismatchError(
            f"dumps were recorded on different probes (n, digest): {probes}; "
            "record both checkpoints with the same --data and --limit"
        )


def write_dump(aset: ActivationSet, path) -> None:
    """Serialize an ActivationSet to an RSAM file."""
    body = []
    for r in aset.records:
        body.append(container.pack_name(r.layer_name))
        body.append(struct.pack("<IQQ", r.layer_index, r.n, r.p))
        body.append(np.ascontiguousarray(r.matrix, dtype="<f4"))
    body.append(struct.pack("<Q", aset.n))
    body.append(np.ascontiguousarray(aset.labels, dtype="<i4"))
    manifest = dict(aset.manifest)
    manifest.setdefault("n", aset.n)
    manifest["layers"] = aset.layer_names
    container.write(path, MAGIC, VERSION, len(aset.records), body, manifest)


def read_dump(path) -> ActivationSet:
    """Read an RSAM file back into an ActivationSet.

    Every check runs here, on the whole file, payloads included. Each record
    then keeps only where its payload lies, and reads it from the file, as a
    read-only float32 array checked finite again, each time its `matrix` is
    read. The file must stay unchanged while the set is in use; a read after
    it was rewritten, truncated or replaced raises FormatError. The shape
    invariants are `ActivationRecord`'s and `ActivationSet`'s; a violation
    of one raises ManifestError.
    """
    rd = container.Reader(path, MAGIC, VERSION)
    records = []
    for _ in range(rd.count):
        name = rd.name()
        layer_index, n, p = rd.unpack("<IQQ")
        records.append((name, layer_index, rd.extent("<f4", (n, p))))
    (label_count,) = rd.unpack("<Q")
    labels = rd.array("<i4", (label_count,)).astype(np.int64)
    manifest = rd.trailer()
    declared = manifest.get("layers")
    if declared is not None and declared != [name for name, _, _ in records]:
        raise ManifestError(f"{path}: manifest layer list disagrees with the record names")
    try:
        recs = [ActivationRecord(*r) for r in records]
        return ActivationSet(recs, labels, manifest)
    except ValidationError as exc:
        raise ManifestError(f"{path}: records violate set invariants: {exc}") from exc


def record_activations(
    net,
    probe,
    attack=None,
    model_id: str = "",
    epoch: int | str = "final",
    seed: int = 0,
) -> ActivationSet:
    """Record one matrix per tap point of `net` over the probe `nets.Batch`.

    With no `attack` the dump holds the benign probe. Given the
    `threats.AdversarialBatch` that `generate` returned for `probe`, it holds
    the perturbed inputs, and the manifest names the threat. Either way the
    manifest digests the clean probe, so the two dumps of one probe pair up.
    Spatial activations (c, h, w) flatten channel-major into the columns.
    The records are the float32 taps themselves, what a dump written to disk
    reloads, so recordings are bit-stable across a write/read cycle.
    """
    if attack is None:
        inputs, condition = probe.inputs, {"kind": "benign"}
    else:
        inputs = attack.perturbed
        condition = {
            "kind": "adversarial",
            "threat": attack.threat.kind,
            "epsilon": float(attack.threat.epsilon),
        }
    _, tapped = nets.forward(net, inputs, taps=net.taps)
    names = nets.layer_names(net)
    records = [ActivationRecord(names[i], i, tapped[i]) for i in net.taps]
    manifest = {
        "model_id": model_id,
        "seed": seed,
        "n": probe.n,
        "condition": condition,
        "epoch": epoch,
        "probe_digest": probe_digest(probe.inputs, probe.labels),
    }
    return ActivationSet(records, probe.labels, manifest)
