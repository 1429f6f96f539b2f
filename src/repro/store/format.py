"""Checksummed binary record format for persisted model snapshots.

A published model is a costly artifact -- the MAP fit over the early-stage
prior spends real simulator hours per late-stage sample -- so the on-disk
encoding must make corruption *detectable*, not merely unlikely.  Every
record is a single self-describing blob::

    offset 0   magic      b"RBMF"
    offset 4   crc32      (uint32 LE) of every byte from offset 8 onward
    offset 8   version    (uint32 LE) format version, currently 2
    offset 12  header_len (uint32 LE) byte length of the JSON header
    offset 16  header     canonical JSON (sorted keys, no whitespace)
    ...        arrays     raw C-order buffers, concatenated in header order

The CRC covers the format version, the header, and every array byte, so a
single flipped byte anywhere in the record is caught: a flip inside the
covered region changes the computed CRC, a flip in the stored CRC breaks
the comparison, and a flip in the magic fails the signature check.  The
property suite (``tests/test_store_properties.py``) asserts exactly this
over every byte offset.

Version 2 carries the basis multi-index set as one int array in the
payload (:meth:`repro.basis.OrthonormalBasis.index_array`), so the
header holds only scalars and array descriptors and its size does not
grow with the number of basis functions.  There is no version 1 reader:
a version 1 blob fails as ``unsupported format version 1``.

Arrays round-trip *bitwise*: dtype (including byte order), shape, and the
raw buffer are preserved, so NaN payloads, negative zeros, and subnormals
come back identical.  Scalar floats (``eta``, ``published_at``) ride in
the JSON header -- ``json`` emits the shortest round-tripping repr, so
they too are exact.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from ..basis import OrthonormalBasis

__all__ = [
    "CorruptRecordError",
    "FORMAT_VERSION",
    "MAGIC",
    "ModelRecord",
    "decode_record",
    "encode_record",
    "record_crc",
]

MAGIC = b"RBMF"
FORMAT_VERSION = 2

#: Fixed-size prefix: magic, crc32, format version, header length.
_PREFIX = struct.Struct("<4sIII")


class CorruptRecordError(Exception):
    """A persisted record failed its structural or checksum validation."""


def _views_bytes(value: np.ndarray) -> bool:
    """True when ``value``'s memory belongs to an immutable ``bytes`` object."""
    base = value
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    return isinstance(base, bytes)


def _frozen_array(value: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """A read-only C-contiguous array that no caller can change.

    A C-contiguous view of a ``bytes`` object -- what :func:`decode_record`
    slices from a checked blob -- can never change, so it is kept as is;
    any other array is copied.
    """
    if value is None:
        return None
    if (
        isinstance(value, np.ndarray)
        and value.flags.c_contiguous
        and _views_bytes(value)
    ):
        return value
    out = np.ascontiguousarray(value)
    if out is value:
        out = value.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ModelRecord:
    """One persisted model snapshot -- everything recovery needs to serve.

    The required fields mirror :class:`repro.serving.ModelVersion` (name,
    version, key, model, timestamp) plus the basis *structure* -- the digest
    alone identifies a basis but cannot rebuild one, and a recovered
    registry must evaluate predictions, not just compare keys.  The
    structure is ``basis_index_array``, the ``(M, L, 2)`` int array of
    :meth:`repro.basis.OrthonormalBasis.index_array`; :meth:`basis`
    rebuilds the basis from it and checks it against ``basis_digest``.  The
    optional fields capture the fitter context: the prior configuration and
    hyper-parameter that produced the coefficients, and -- for sequential
    (streaming) fits -- the accumulated samples and the dual Cholesky
    factor, so :class:`repro.bmf.SequentialBmf` can resume border-updating
    exactly where the dead process stopped.
    """

    name: str
    version: int
    key: str
    published_at: float
    basis_digest: str
    basis_num_vars: int
    basis_index_array: np.ndarray
    coefficients: np.ndarray
    prior_name: Optional[str] = None
    prior_mean: Optional[np.ndarray] = None
    prior_scale: Optional[np.ndarray] = None
    eta: Optional[float] = None
    chol_lower: Optional[np.ndarray] = None
    chol_prior_index: Optional[int] = None
    train_x: Optional[np.ndarray] = None
    train_f: Optional[np.ndarray] = None

    #: Field names serialized as raw array buffers (order = payload order).
    ARRAY_FIELDS = (
        "basis_index_array",
        "coefficients",
        "prior_mean",
        "prior_scale",
        "chol_lower",
        "train_x",
        "train_f",
    )

    def __post_init__(self):
        if not self.name:
            raise ValueError("record name must be non-empty")
        if self.version < 1:
            raise ValueError(f"version must be >= 1, got {self.version}")
        if self.coefficients is None:
            raise ValueError("record must carry a coefficient array")
        indices = self.basis_index_array
        if (
            not isinstance(indices, np.ndarray)
            or indices.dtype.kind not in "iu"
            or indices.ndim != 3
            or indices.shape[2] != 2
        ):
            raise ValueError(
                "basis_index_array must be an int array of shape (M, L, 2)"
            )
        for field_name in self.ARRAY_FIELDS:
            object.__setattr__(
                self, field_name, _frozen_array(getattr(self, field_name))
            )

    def basis(
        self, known: Optional[Dict[str, "OrthonormalBasis"]] = None
    ) -> "OrthonormalBasis":
        """Rebuild the :class:`~repro.basis.OrthonormalBasis` structure.

        Raises :class:`CorruptRecordError` when the stored structure is
        not a valid index set or does not hash to ``basis_digest``.
        ``known`` maps digests to bases already rebuilt: a digest found
        there is returned as is, and a fresh rebuild is added to it, so
        every version published on one basis shares one basis object.
        """
        if known is not None:
            basis = known.get(self.basis_digest)
            if basis is not None:
                return basis
        from ..basis import OrthonormalBasis

        array = self.basis_index_array
        widths = np.count_nonzero(array[:, :, 1], axis=1).tolist()
        indices = [
            tuple(map(tuple, row[:width]))
            for row, width in zip(array.tolist(), widths)
        ]
        try:
            basis = OrthonormalBasis(self.basis_num_vars, indices)
        except ValueError as exc:
            raise CorruptRecordError(f"invalid basis structure: {exc}") from exc
        if basis.cache_token() != self.basis_digest:
            raise CorruptRecordError(
                f"basis structure hashes to {basis.cache_token()}, "
                f"not the recorded digest {self.basis_digest}"
            )
        if known is not None:
            known[self.basis_digest] = basis
        return basis

    def prior(self):
        """Rebuild the prior config, or ``None`` when none was recorded.

        The prior gets its own copies of the arrays, so a fitter that keeps
        it does not keep a decoded record's whole blob alive.
        """
        from ..bmf.priors import GaussianCoefficientPrior

        if self.prior_mean is None or self.prior_scale is None:
            return None
        return GaussianCoefficientPrior(
            self.prior_mean.copy(),
            self.prior_scale.copy(),
            self.prior_name or "custom",
        )

    def equals_bitwise(self, other: "ModelRecord") -> bool:
        """Field-by-field bitwise equality (array buffers compared as bytes)."""
        if not isinstance(other, ModelRecord):
            return False
        for field in fields(self):
            mine = getattr(self, field.name)
            theirs = getattr(other, field.name)
            if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
                if mine is None or theirs is None:
                    return False
                if mine.dtype != theirs.dtype or mine.shape != theirs.shape:
                    return False
                if mine.tobytes() != theirs.tobytes():
                    return False
            elif mine != theirs:
                return False
        return True


def _array_descriptors(
    record: ModelRecord,
) -> Tuple[List[Dict[str, Any]], List[np.ndarray]]:
    """Payload descriptors plus the arrays whose buffers form the payload.

    A record's arrays are read-only and C-contiguous, so each one's buffer
    is exactly its payload bytes and is written without another copy.
    """
    descriptors: List[Dict[str, Any]] = []
    buffers: List[np.ndarray] = []
    offset = 0
    for field_name in ModelRecord.ARRAY_FIELDS:
        value = getattr(record, field_name)
        if value is None:
            continue
        descriptors.append(
            {
                "name": field_name,
                "dtype": value.dtype.str,
                "shape": list(value.shape),
                "offset": offset,
                "nbytes": value.nbytes,
            }
        )
        buffers.append(value)
        offset += value.nbytes
    return descriptors, buffers


def encode_record(record: ModelRecord) -> bytes:
    """Serialize a record into one checksummed, self-describing blob."""
    if not isinstance(record, ModelRecord):
        raise TypeError(f"expected ModelRecord, got {type(record).__name__}")
    descriptors, buffers = _array_descriptors(record)
    header = {
        "record": {
            "name": record.name,
            "version": record.version,
            "key": record.key,
            "published_at": record.published_at,
            "basis_digest": record.basis_digest,
            "basis_num_vars": record.basis_num_vars,
            "prior_name": record.prior_name,
            "eta": record.eta,
            "chol_prior_index": record.chol_prior_index,
        },
        "arrays": descriptors,
    }
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    covered = [
        struct.pack("<II", FORMAT_VERSION, len(header_bytes)),
        header_bytes,
        *buffers,
    ]
    crc = 0
    for part in covered:
        crc = zlib.crc32(part, crc)
    return b"".join([MAGIC, struct.pack("<I", crc & 0xFFFFFFFF), *covered])


def record_crc(blob: bytes) -> int:
    """The stored CRC of an encoded record (no validation performed)."""
    if len(blob) < _PREFIX.size:
        raise CorruptRecordError(
            f"record too short for its prefix ({len(blob)} bytes)"
        )
    return struct.unpack_from("<I", blob, 4)[0]


def decode_record(blob: bytes) -> ModelRecord:
    """Parse and validate an encoded record.

    Raises :class:`CorruptRecordError` for *any* structural damage: wrong
    magic, truncation, trailing garbage, checksum mismatch, or a header
    that does not describe the payload it sits on.  The checksum and the
    array slices read the payload through a ``memoryview``, without
    copying it.  A ``bytes`` blob is immutable, so the record keeps those
    read-only slices as its arrays and the arrays keep the blob alive; a
    holder that outlives the record copies what it keeps (the registry
    copies the coefficients it serves).  Any other buffer is copied.
    """
    if len(blob) < _PREFIX.size:
        raise CorruptRecordError(
            f"record too short for its prefix ({len(blob)} bytes)"
        )
    magic, stored_crc, version, header_len = _PREFIX.unpack_from(blob, 0)
    if magic != MAGIC:
        raise CorruptRecordError(f"bad magic {magic!r} (expected {MAGIC!r})")
    view = memoryview(blob)
    actual_crc = zlib.crc32(view[8:]) & 0xFFFFFFFF
    if actual_crc != stored_crc:
        raise CorruptRecordError(
            f"checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )
    if version != FORMAT_VERSION:
        raise CorruptRecordError(f"unsupported format version {version}")
    header_start = _PREFIX.size
    payload_start = header_start + header_len
    if payload_start > len(blob):
        raise CorruptRecordError("header extends past the end of the record")
    try:
        header = json.loads(blob[header_start:payload_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptRecordError(f"unparseable header: {exc}") from exc
    if not isinstance(header, dict) or "record" not in header:
        raise CorruptRecordError("header is not a record envelope")

    payload = view[payload_start:]
    arrays: Dict[str, np.ndarray] = {}
    expected_end = 0
    for descriptor in header.get("arrays", ()):
        try:
            name = descriptor["name"]
            dtype = np.dtype(descriptor["dtype"])
            shape = tuple(int(s) for s in descriptor["shape"])
            offset = int(descriptor["offset"])
            nbytes = int(descriptor["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptRecordError(f"malformed array descriptor: {exc}") from exc
        if name not in ModelRecord.ARRAY_FIELDS:
            raise CorruptRecordError(f"unknown array field {name!r}")
        size = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if size != nbytes or offset != expected_end:
            raise CorruptRecordError(
                f"array {name!r} descriptor inconsistent with payload layout"
            )
        if offset + nbytes > len(payload):
            raise CorruptRecordError(
                f"array {name!r} extends past the end of the payload"
            )
        data = np.frombuffer(
            payload, dtype=dtype, count=size // dtype.itemsize, offset=offset
        ).reshape(shape)
        arrays[name] = data
        expected_end = offset + nbytes
    if expected_end != len(payload):
        raise CorruptRecordError(
            f"{len(payload) - expected_end} trailing payload bytes not "
            "described by the header"
        )

    meta = header["record"]
    try:
        return ModelRecord(
            name=meta["name"],
            version=int(meta["version"]),
            key=meta["key"],
            published_at=float(meta["published_at"]),
            basis_digest=meta["basis_digest"],
            basis_num_vars=int(meta["basis_num_vars"]),
            basis_index_array=arrays.get("basis_index_array"),
            coefficients=arrays.get("coefficients"),
            prior_name=meta.get("prior_name"),
            prior_mean=arrays.get("prior_mean"),
            prior_scale=arrays.get("prior_scale"),
            eta=None if meta.get("eta") is None else float(meta["eta"]),
            chol_lower=arrays.get("chol_lower"),
            chol_prior_index=(
                None
                if meta.get("chol_prior_index") is None
                else int(meta["chol_prior_index"])
            ),
            train_x=arrays.get("train_x"),
            train_f=arrays.get("train_f"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptRecordError(f"invalid record contents: {exc}") from exc
