"""Activation-dump data model and the RSAM binary file format.

A dump holds one matrix per tapped layer, recorded over a fixed probe set,
together with per-point class labels and a JSON manifest. The payload is
32-bit on disk and widened to float64 on load; metric tolerances account for
the precision loss.

The manifest is the one place a dump states its input condition
(`{"kind": "benign"}`, or `{"kind": "adversarial", "threat": ..., "epsilon":
...}`), its model, epoch and seed, and the digest of the clean probe it was
recorded on, so a benign and an adversarial dump of one probe pair up.

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
    FormatError,
    ManifestError,
    ShapeError,
    TruncatedError,
    ValidationError,
)

MAGIC = b"RSAM"
VERSION = 2


@dataclass
class ActivationRecord:
    """One layer's n x p activation matrix."""

    layer_name: str
    layer_index: int
    matrix: np.ndarray  # (n, p) float64

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.size == 0:
            raise ShapeError(
                f"record {self.layer_name!r} matrix must be nonempty 2-d"
            )
        if self.layer_index < 0:
            raise ValidationError("layer_index must be >= 0")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]


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


def write_dump(aset: ActivationSet, path) -> None:
    """Serialize an ActivationSet to an RSAM file."""
    body = []
    for r in aset.records:
        body.append(container.pack_name(r.layer_name))
        body.append(struct.pack("<IQQ", r.layer_index, r.n, r.p))
        body.append(np.ascontiguousarray(r.matrix, dtype="<f4").tobytes())
    body.append(struct.pack("<Q", aset.n))
    body.append(np.ascontiguousarray(aset.labels, dtype="<i4").tobytes())
    manifest = dict(aset.manifest)
    manifest.setdefault("n", aset.n)
    manifest["layers"] = aset.layer_names
    container.write(path, MAGIC, VERSION, len(aset.records), body, manifest)


def read_dump(path) -> ActivationSet:
    """Read an RSAM file back into an ActivationSet (payload widened to f64)."""
    rd = container.Reader(path, MAGIC, VERSION)
    if rd.count == 0:
        raise ManifestError("record count is zero")
    records = []
    expected_n = None
    for _ in range(rd.count):
        name = rd.name()
        layer_index, n, p = rd.unpack("<IQQ")
        if n == 0 or p == 0:
            raise TruncatedError(f"record {name!r} declares empty {n}x{p} matrix")
        mat = rd.array("<f4", (n, p)).astype(np.float64)
        if expected_n is None:
            expected_n = n
        elif n != expected_n:
            raise ManifestError(f"record {name!r} has n={n}, expected {expected_n}")
        records.append((name, layer_index, mat))
    (label_count,) = rd.unpack("<Q")
    if label_count != expected_n:
        raise ManifestError(
            f"label count {label_count} disagrees with record rows {expected_n}"
        )
    labels = rd.array("<i4", (label_count,)).astype(np.int64)
    manifest = rd.trailer()
    declared = manifest.get("layers")
    if declared is not None and declared != [name for name, _, _ in records]:
        raise ManifestError("manifest layer list disagrees with the record names")
    try:
        recs = [ActivationRecord(*r) for r in records]
        return ActivationSet(recs, labels, manifest)
    except FormatError:
        raise
    except ValidationError as exc:
        raise ManifestError(f"records violate set invariants: {exc}") from exc


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
    The tapped matrices are rounded through float32, matching what a dump
    written to disk would reload, so recordings are bit-stable across a
    write/read cycle.
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
    records = [
        ActivationRecord(names[i], i, tapped[i].astype(np.float32).astype(np.float64))
        for i in net.taps
    ]
    manifest = {
        "model_id": model_id,
        "seed": seed,
        "n": probe.n,
        "condition": condition,
        "epoch": epoch,
        "probe_digest": probe_digest(probe.inputs, probe.labels),
    }
    return ActivationSet(records, probe.labels, manifest)
