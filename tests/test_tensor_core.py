import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxfusion.tensor_core import (
    AVERAGED,
    FeatureMap,
    HEADER_SIZE,
    SelectionMask,
    SpatialMap,
    TensorFormatError,
    make_feature_map,
    read_spatial_map,
    read_tensor,
    write_pgm,
    write_selection_pgm,
    write_tensor,
)


def roundtrip(fm: FeatureMap) -> FeatureMap:
    buf = io.BytesIO()
    write_tensor(fm, buf)
    buf.seek(0)
    return read_tensor(buf)


class TestFeatureMapConstruction:
    def test_minimal_single_element(self):
        fm = make_feature_map(1, 1, 1, [0.0])
        assert fm.shape == (1, 1, 1)
        assert fm.data[0, 0, 0] == 0.0

    def test_roundtrip_identity_2x2x2(self):
        fm = make_feature_map(2, 2, 2, [1, -2, 3.5, 4, 5, -6.25, 7, 8])
        assert roundtrip(fm) == fm

    def test_nan_rejected_with_flat_index(self):
        with pytest.raises(ValueError, match="non-finite.*index 0"):
            make_feature_map(1, 1, 1, [float("nan")])
        with pytest.raises(ValueError, match="non-finite.*index 3"):
            make_feature_map(2, 2, 1, [0.0, 1.0, 2.0, float("inf")])

    def test_length_mismatch_names_expected_and_got(self):
        with pytest.raises(ValueError, match="expected 8.*got 7"):
            make_feature_map(2, 2, 2, [0.0] * 7)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            make_feature_map(0, 1, 1, [])

    def test_data_copied_not_aliased(self):
        src = np.ones((1, 2, 2), dtype=np.float32)
        fm = FeatureMap(src)
        src[0, 0, 0] = 99.0
        assert fm.data[0, 0, 0] == 1.0

    def test_immutable_after_construction(self):
        fm = make_feature_map(1, 1, 1, [1.0])
        with pytest.raises(ValueError):
            fm.data[0, 0, 0] = 2.0


class TestMxftFormat:
    def test_header_is_28_bytes_and_total_32_for_single_element(self):
        buf = io.BytesIO()
        n = write_tensor(make_feature_map(1, 1, 1, [1.0]), buf)
        assert HEADER_SIZE == 28
        assert n == 32
        assert len(buf.getvalue()) == 32

    def test_header_dims_echo(self):
        buf = io.BytesIO()
        write_tensor(make_feature_map(3, 4, 5, np.zeros(60)), buf)
        raw = buf.getvalue()
        assert raw[:4] == b"MXFT"
        assert struct.unpack("<III", raw[16:28]) == (3, 4, 5)

    def test_bad_magic(self):
        blob = b"XXXX" + b"\x00" * 28
        with pytest.raises(TensorFormatError, match="not an MXFT file"):
            read_tensor(io.BytesIO(blob))

    def test_unsupported_version(self):
        buf = io.BytesIO()
        write_tensor(make_feature_map(1, 1, 1, [1.0]), buf)
        raw = bytearray(buf.getvalue())
        raw[4:8] = struct.pack("<I", 2)
        with pytest.raises(TensorFormatError, match="unsupported version"):
            read_tensor(io.BytesIO(bytes(raw)))

    def test_truncated_payload_reports_byte_counts(self):
        buf = io.BytesIO()
        write_tensor(make_feature_map(2, 2, 2, np.arange(8)), buf)
        raw = buf.getvalue()[:-4]  # drop one float: 7 values remain for 8 declared
        with pytest.raises(TensorFormatError, match="expected 32 bytes, got 28"):
            read_tensor(io.BytesIO(raw))

    def test_oversized_header_rejected_before_allocating(self):
        header = struct.pack("<4sIIIIII", b"MXFT", 1, 0, 3, 65535, 65535, 65535)
        with pytest.raises(TensorFormatError, match=r"dims \(65535, 65535, 65535\).* got 8"):
            read_tensor(io.BytesIO(header + bytes(8)))

    def test_oversized_header_on_unseekable_stream(self):
        class Pipe(io.RawIOBase):
            def __init__(self, raw):
                self._src = io.BytesIO(raw)

            def readable(self):
                return True

            def readinto(self, b):
                return self._src.readinto(b)

        header = struct.pack("<4sIIIIII", b"MXFT", 1, 0, 3, 65535, 65535, 65535)
        stream = io.BufferedReader(Pipe(header + bytes(12)))
        assert not stream.seekable()
        with pytest.raises(TensorFormatError, match=r"dims \(65535, 65535, 65535\).* got 12"):
            read_tensor(stream)

    def test_payload_after_header_read_from_mid_stream(self):
        fm = make_feature_map(2, 1, 2, [1.0, 2.0, 3.0, 4.0])
        buf = io.BytesIO()
        buf.write(b"junk")
        write_tensor(fm, buf)
        write_tensor(fm, buf)
        buf.seek(4)
        assert read_tensor(buf) == fm
        assert read_tensor(buf) == fm

    def test_truncated_header(self):
        with pytest.raises(TensorFormatError, match="truncated header"):
            read_tensor(io.BytesIO(b"MXFT\x01"))

    def test_non_finite_payload_rejected(self):
        buf = io.BytesIO()
        write_tensor(make_feature_map(1, 1, 2, [1.0, 2.0]), buf)
        raw = bytearray(buf.getvalue())
        raw[HEADER_SIZE : HEADER_SIZE + 4] = struct.pack("<f", float("nan"))
        with pytest.raises(ValueError, match="non-finite"):
            read_tensor(io.BytesIO(bytes(raw)))

    def test_serialization_deterministic(self):
        fm = FeatureMap(np.random.default_rng(0).normal(size=(3, 5, 4)).astype(np.float32))
        a, b = io.BytesIO(), io.BytesIO()
        write_tensor(fm, a)
        write_tensor(fm, b)
        assert a.getvalue() == b.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 16),
        h=st.integers(1, 16),
        w=st.integers(1, 16),
        seed=st.integers(0, 2**31),
    )
    def test_roundtrip_property(self, c, h, w, seed):
        rng = np.random.default_rng(seed)
        fm = FeatureMap(rng.normal(size=(c, h, w)).astype(np.float32))
        assert roundtrip(fm) == fm


class TestSpatialMap:
    def test_serializes_as_c1_tensor(self):
        sm = SpatialMap([[1.0, 2.0], [3.0, 4.0]])
        buf = io.BytesIO()
        write_tensor(sm, buf)
        buf.seek(0)
        back = read_spatial_map(buf)
        assert back.shape == (2, 2)
        np.testing.assert_array_equal(back.data, sm.data)

    def test_from_feature_map_requires_single_channel(self):
        with pytest.raises(ValueError, match="C=1"):
            SpatialMap.from_feature_map(make_feature_map(2, 1, 1, [0.0, 1.0]))

    def test_pgm_minmax_normalization_exact_bytes(self):
        sm = SpatialMap([[0.0, 1.0], [2.0, 3.0]])
        buf = io.BytesIO()
        n = write_pgm(sm, buf)
        expected = b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
        assert buf.getvalue() == expected
        assert n == len(expected)

    def test_pgm_constant_map_is_black(self):
        buf = io.BytesIO()
        write_pgm(SpatialMap(np.full((2, 3), 7.0)), buf)
        assert buf.getvalue().endswith(bytes(6))


class TestSelectionMask:
    def test_codes_validated_against_branch_count(self):
        with pytest.raises(ValueError, match="branch index"):
            SelectionMask(np.array([[2]]), n_branches=2)
        with pytest.raises(ValueError, match="branch index"):
            SelectionMask(np.array([[-2]]), n_branches=2)

    def test_fractions(self):
        mask = SelectionMask(np.array([[AVERAGED, 0], [1, 1]]), n_branches=2)
        assert mask.averaged_fraction() == 0.25
        assert mask.win_fractions() == (0.25, 0.5)

    def test_pgm_encoding_clipped(self):
        mask = SelectionMask(np.array([[AVERAGED, 0, 1, 3]]), n_branches=4)
        buf = io.BytesIO()
        write_selection_pgm(mask, buf)
        assert buf.getvalue() == b"P5\n4 1\n255\n" + bytes([0, 64, 128, 255])

    def test_numeric_tag_export(self):
        mask = SelectionMask(np.array([[AVERAGED, 1]]), n_branches=2)
        tags = mask.tag_map()
        np.testing.assert_array_equal(tags.data[0], [[-1.0, 1.0]])
