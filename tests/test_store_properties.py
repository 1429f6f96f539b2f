"""Property-based tests for the store's record codec (hypothesis).

Two contracts are range properties, not examples:

* **bitwise round-trip** -- serialize -> deserialize returns arrays that
  are bit-for-bit identical across dtypes (including non-native byte
  order), shapes (including empty), NaN payloads, signed zeros, and
  subnormals;
* **corruption detection** -- flipping *any* single byte of an encoded
  record (any offset, any non-zero XOR mask) makes
  :func:`repro.store.decode_record` raise
  :class:`~repro.store.CorruptRecordError`; no torn or tampered record
  can ever decode silently.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from repro.store import (  # noqa: E402
    CorruptRecordError,
    ModelRecord,
    decode_record,
    encode_record,
)

#: Mix of widths, kinds, and byte orders; the codec stores ``dtype.str``
#: verbatim, so a big-endian buffer must come back big-endian.
DTYPES = st.sampled_from(
    [np.dtype(code) for code in ("<f8", ">f8", "<f4", "<i8", "<i4", "<u2", "|u1")]
)

array_strategy = DTYPES.flatmap(
    lambda dtype: hnp.arrays(
        dtype=dtype,
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
        elements=hnp.from_dtype(dtype, allow_nan=True, allow_subnormal=True),
    )
)


def make_record(coefficients, chol_lower=None, eta=None):
    return ModelRecord(
        name="power",
        version=1,
        key="k" * 32,
        published_at=1700000000.25,
        basis_digest="digest",
        basis_num_vars=2,
        basis_index_array=np.array([[[0, 1]], [[1, 2]]]),
        coefficients=coefficients,
        chol_lower=chol_lower,
        chol_prior_index=None if chol_lower is None else 0,
        eta=eta,
    )


class TestRoundTripBitwise:
    @given(array_strategy)
    @settings(max_examples=200, deadline=None)
    def test_any_dtype_and_shape_round_trips(self, array):
        record = make_record(array)
        decoded = decode_record(encode_record(record))
        assert decoded.coefficients.dtype == record.coefficients.dtype
        assert decoded.coefficients.shape == record.coefficients.shape
        assert decoded.coefficients.tobytes() == record.coefficients.tobytes()
        assert decoded.equals_bitwise(record)

    @given(array_strategy, array_strategy)
    @settings(max_examples=100, deadline=None)
    def test_multiple_arrays_partition_cleanly(self, coefficients, extra):
        """Two arrays of unrelated dtypes share one payload without bleed."""
        record = make_record(coefficients, chol_lower=extra)
        decoded = decode_record(encode_record(record))
        assert decoded.coefficients.tobytes() == record.coefficients.tobytes()
        assert decoded.chol_lower.tobytes() == record.chol_lower.tobytes()
        assert decoded.chol_lower.dtype == record.chol_lower.dtype

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=1e-12, max_value=1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_scalar_floats_are_exact(self, published_at, eta):
        """Header scalars ride through JSON's shortest-round-trip repr."""
        record = ModelRecord(
            name="m",
            version=1,
            key="k",
            published_at=published_at,
            basis_digest="d",
            basis_num_vars=1,
            basis_index_array=np.array([[[0, 1]]]),
            coefficients=np.ones(1),
            eta=eta,
        )
        decoded = decode_record(encode_record(record))
        assert decoded.published_at == published_at
        assert decoded.eta == eta

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_encoding_is_deterministic(self, seed):
        coeffs = np.random.default_rng(seed).normal(size=5)
        assert encode_record(make_record(coeffs)) == encode_record(
            make_record(coeffs.copy())
        )


class TestSingleByteCorruptionDetected:
    #: One fixed record; position/mask range over the whole blob.
    BLOB = encode_record(
        make_record(
            np.array([1.5, -0.0, np.nan, 2.0**-1040, 3.25]),
            chol_lower=np.eye(2),
            eta=1e-3,
        )
    )

    @given(
        st.integers(min_value=0, max_value=len(BLOB) - 1),
        st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=400, deadline=None)
    def test_any_single_byte_flip_is_caught(self, position, mask):
        corrupted = bytearray(self.BLOB)
        corrupted[position] ^= mask
        with pytest.raises(CorruptRecordError):
            decode_record(bytes(corrupted))

    def test_every_offset_exhaustively_with_one_mask(self):
        """Sweep all offsets (not sampled) with a fixed bit flip."""
        for position in range(len(self.BLOB)):
            corrupted = bytearray(self.BLOB)
            corrupted[position] ^= 0x40
            with pytest.raises(CorruptRecordError):
                decode_record(bytes(corrupted))

    @given(st.integers(min_value=1, max_value=len(BLOB) - 1))
    @settings(max_examples=100, deadline=None)
    def test_any_truncation_is_caught(self, keep):
        with pytest.raises(CorruptRecordError):
            decode_record(self.BLOB[:keep])
