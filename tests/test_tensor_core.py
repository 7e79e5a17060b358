import io
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxfusion import maxfusion_fold, merge_pair, naive_average, unmerge_pair
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


class _Pipe(io.RawIOBase):
    """A readable stream that cannot seek, like a pipe.

    Given ``most``, each read returns at most that many bytes, as an
    unbuffered pipe does when its writer sent the data in pieces; given
    ``seekable`` too, it seeks like a file that delivers short reads.
    """

    def __init__(self, raw, most=None, seekable=False):
        self._src = io.BytesIO(raw)
        self._most, self._seekable = most, seekable

    def readable(self):
        return True

    def seekable(self):
        return self._seekable

    def seek(self, offset, whence=io.SEEK_SET):
        if not self._seekable:
            raise io.UnsupportedOperation("seek")
        return self._src.seek(offset, whence)

    def readinto(self, b):
        return self._src.readinto(memoryview(b)[: self._most])


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
        # beyond float32 range: only the finite check reports, with no cast warning
        with pytest.raises(ValueError, match="non-finite.*index 0"):
            make_feature_map(1, 1, 1, [1e39])
        with pytest.raises(ValueError, match="non-finite.*index 0"):
            FeatureMap(np.full((1, 1, 1), 1e39))

    def test_subnormal_values_under_a_raising_caller(self):
        # a float32 subnormal is a legal value: a caller's np.errstate(all="raise")
        # turns no cast that rounds to one into a FloatingPointError
        tiny = np.random.default_rng(3).normal(size=(2, 4, 3, 3)) * 1e-39
        branches = [FeatureMap(t.astype(np.float32)) for t in tiny]

        def outputs():
            sink = io.BytesIO()
            write_tensor(SpatialMap(np.full((3, 3), 1e-40)), sink)
            return [
                FeatureMap(np.full((2, 3, 3), 1e-40)).data.tobytes(),
                make_feature_map(2, 3, 3, [1e-40] * 18).data.tobytes(),
                sink.getvalue(),
                naive_average(branches).data.tobytes(),
            ]

        want = outputs()
        with np.errstate(all="raise"):
            assert outputs() == want

    def test_length_mismatch_names_expected_and_got(self):
        with pytest.raises(ValueError, match="expected 8.*got 7"):
            make_feature_map(2, 2, 2, [0.0] * 7)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            make_feature_map(0, 1, 1, [])

    @pytest.mark.parametrize("data, message", [
        (np.ones((2, 2)), r"expected a \(C, H, W\) array, got 2 dims"),
        (np.ones((0, 2, 2)), r"all dims must be >= 1, got shape \(0, 2, 2\)"),
    ], ids=["rank-2", "zero-dim"])
    def test_wrong_rank_or_empty_dim_rejected_naming_the_shape(self, data, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FeatureMap(data)

    @pytest.mark.parametrize("dims, field", [
        ((2.0, 1, 1), "channels"), ((2.5, 1, 1), "channels"), ((1, True, 2), "height"),
        ((1, 2, "1"), "width"),
    ])
    def test_non_integer_dims_rejected_naming_the_field(self, dims, field):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
            make_feature_map(*dims, [1.0, 2.0])

    def test_numpy_integer_dims_accepted(self):
        fm = make_feature_map(np.int64(2), np.uint8(1), np.int32(1), [1.0, 2.0])
        assert fm.shape == (2, 1, 1)

    @pytest.mark.parametrize("dims", [(4, 2**30, 1), (3, 1431655766, 1)],
                             ids=["wraps_to_zero", "wraps_to_two"])
    def test_numpy_integer_dims_multiply_without_wrapping(self, dims):
        # in int32 the first product wraps to 0 and the second to 2, the data's length
        expected = dims[0] * dims[1] * dims[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match=rf"^data length mismatch: expected {expected} values \("
            ):
                make_feature_map(*map(np.int32, dims), [1.0, 2.0])

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
        header = struct.pack("<4sIIIIII", b"MXFT", 1, 0, 3, 65535, 65535, 65535)
        stream = io.BufferedReader(_Pipe(header + bytes(12)))
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

    def test_export_beyond_float32_range_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite value at index 1"):
                write_tensor(SpatialMap([[1.0, -1e39]]), io.BytesIO())

    def test_read_spatial_map_requires_single_channel(self):
        buf = io.BytesIO()
        write_tensor(make_feature_map(2, 1, 1, [0.0, 1.0]), buf)
        buf.seek(0)
        with pytest.raises(ValueError, match=r"^need C=1 to reinterpret as spatial map, got C=2$"):
            read_spatial_map(buf)

    def test_pgm_minmax_normalization_exact_bytes(self):
        sm = SpatialMap([[0.0, 1.0], [2.0, 3.0]])
        buf = io.BytesIO()
        n = write_pgm(sm, buf)
        expected = b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
        assert buf.getvalue() == expected
        assert n == len(expected)

    def test_pgm_span_past_float_range_renders_without_overflow(self):
        buf = io.BytesIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_pgm(SpatialMap(np.array([[-1e308, 0.0, 1e308]])), buf)
        assert buf.getvalue() == b"P5\n3 1\n255\n" + bytes([0, 128, 255])

    def test_pgm_wide_finite_span_keeps_the_direct_scaling(self):
        vals = np.array([[-8e307, 1e300, 3e307, 9e307]])  # max - min is finite
        buf = io.BytesIO()
        write_pgm(SpatialMap(vals), buf)
        gray = np.rint((vals - vals.min()) / (vals.max() - vals.min()) * 255.0).astype(np.uint8)
        assert buf.getvalue() == b"P5\n4 1\n255\n" + gray.tobytes()

    def test_pgm_constant_map_is_black(self):
        buf = io.BytesIO()
        write_pgm(SpatialMap(np.full((2, 3), 7.0)), buf)
        assert buf.getvalue().endswith(bytes(6))


class TestSelectionMask:
    def test_codes_must_be_a_pair_decision(self):
        for codes, lo, hi in (([[2]], 2, 2), ([[-2]], -2, -2), ([[AVERAGED, 0, 1, 2]], -1, 2)):
            with pytest.raises(ValueError, match=rf"^selection codes must be -1 \(averaged\), "
                                                 rf"0 or 1, got range \[{lo}, {hi}\]$"):
                SelectionMask(np.array(codes))
        # checked before the int32 cast, which would wrap 2**40 to 0 and truncate 1.7 to 1
        with pytest.raises(ValueError, match=r", 0 or 1, got range \[1099511627776, "):
            SelectionMask(np.array([[2**40]]))
        for codes in ([[1.7]], [[np.nan]], [[True]]):
            with pytest.raises(ValueError, match="^selection codes must be integers, got dtype "):
                SelectionMask(np.array(codes))
        assert SelectionMask(np.array([[1]], dtype=np.uint64)).codes.dtype == np.int32

    def test_branch_count_is_not_an_argument(self):
        # every mask is one pair's decision, so there is no count to give
        with pytest.raises(TypeError):
            SelectionMask(np.array([[1]]), 2)
        assert not hasattr(SelectionMask(np.array([[1]])), "n_branches")

    def test_repr_shows_the_dims(self):
        assert repr(SelectionMask(np.zeros((2, 3), int))) == "SelectionMask(H=2, W=3)"
        assert repr(SpatialMap(np.zeros((2, 3)))) == "SpatialMap(H=2, W=3)"
        assert repr(FeatureMap(np.zeros((4, 2, 3)))) == "FeatureMap(C=4, H=2, W=3)"

    def test_fractions(self):
        mask = SelectionMask(np.array([[AVERAGED, 0], [1, 1]]))
        assert mask.averaged_fraction() == 0.25
        assert mask.win_fractions() == (0.25, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        seed=st.integers(0, 2**31),
    )
    def test_fractions_equal_the_mean_of_each_code(self, shape, seed):
        codes = np.random.default_rng(seed).integers(AVERAGED, 2, size=shape)
        mask = SelectionMask(codes)
        want = [float(np.mean(codes == b)) for b in (AVERAGED, 0, 1)]
        got = [mask.averaged_fraction(), *mask.win_fractions()]
        assert all(type(g) is float for g in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()  # bit for bit

    def test_pgm_encoding(self):
        mask = SelectionMask(np.array([[AVERAGED, 0, 1, 0]]))
        buf = io.BytesIO()
        write_selection_pgm(mask, buf)
        assert buf.getvalue() == b"P5\n4 1\n255\n" + bytes([0, 64, 128, 64])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 4),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        delta=st.sampled_from([-1.0, 0.0, 0.7, 2.0]),
        seed=st.integers(0, 2**31),
    )
    def test_pgm_of_every_fold_pair_holds_only_three_levels(self, n, shape, delta, seed):
        rng = np.random.default_rng(seed)
        branches = [FeatureMap(rng.normal(size=(3, *shape))) for _ in range(n)]
        for pair in maxfusion_fold(branches, delta).pair_results:
            buf = io.BytesIO()
            write_selection_pgm(pair.selection, buf)
            header = f"P5\n{shape[1]} {shape[0]}\n255\n".encode()
            assert buf.getvalue().startswith(header)
            assert set(buf.getvalue()[len(header):]) <= {0, 64, 128}

    def test_numeric_tag_export(self):
        mask = SelectionMask(np.array([[AVERAGED, 1]]))
        tags = mask.tag_map()
        np.testing.assert_array_equal(tags.data[0], [[-1.0, 1.0]])


def _stream(kind, raw, tmp_path):
    """The bytes as an in-memory, an on-disk or an unseekable stream."""
    if kind == "bytesio":
        return io.BytesIO(raw)
    if kind == "pipe":
        return io.BufferedReader(_Pipe(raw))
    if kind in ("short_reads", "short_reads_seekable"):  # raw, so every short read shows
        return _Pipe(raw, most=10, seekable=kind == "short_reads_seekable")
    path = tmp_path / "t.mxft"
    path.write_bytes(raw)
    return open(path, "rb")


STREAM_KINDS = ("bytesio", "file", "pipe", "short_reads", "short_reads_seekable")


def _codes(shape) -> np.ndarray:
    """Values -1, 0 and 1: valid codes for a two-branch mask, and finite floats."""
    return np.arange(np.prod(shape)).reshape(shape) % 3 - 1


CONTAINERS = [
    pytest.param(FeatureMap, (2, 3, 4), id="FeatureMap"),
    pytest.param(SpatialMap, (3, 4), id="SpatialMap"),
    pytest.param(SelectionMask, (3, 4), id="SelectionMask"),
]


class TestEquality:
    @pytest.mark.parametrize("make, shape", CONTAINERS)
    def test_equal_values_and_shape_compare_equal(self, make, shape):
        assert make(_codes(shape)) == make(_codes(shape))

    @pytest.mark.parametrize("make, shape", CONTAINERS)
    def test_one_changed_value_compares_unequal(self, make, shape):
        arr = _codes(shape)
        other = arr.copy()
        other.flat[-1] = 0 if arr.flat[-1] else 1
        assert make(arr) != make(other)
        assert not make(arr) == make(other)

    @pytest.mark.parametrize("make, shape", CONTAINERS)
    def test_same_values_in_another_shape_compare_unequal(self, make, shape):
        arr = _codes(shape)
        assert make(arr) != make(arr.reshape(shape[::-1]))

    def test_feature_map_never_equals_spatial_map(self):
        arr = _codes((3, 4))
        fm, sm = FeatureMap(arr[np.newaxis]), SpatialMap(arr)
        assert fm != sm and sm != fm
        assert fm.__eq__(sm) is NotImplemented and sm.__eq__(fm) is NotImplemented

    @pytest.mark.parametrize("make, shape", CONTAINERS)
    def test_unhashable(self, make, shape):
        with pytest.raises(TypeError):
            hash(make(_codes(shape)))


class TestZeroCopyIO:
    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 9),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        seed=st.integers(0, 2**31),
    )
    def test_written_bytes_are_header_plus_le_f4_payload(self, c, h, w, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(c, h, w)).astype(np.float32)
        spatial = rng.normal(size=(h, w))
        for tensor, payload in (
            (FeatureMap(data), data.astype("<f4").tobytes()),
            (SpatialMap(spatial), spatial.astype(np.float32).astype("<f4").tobytes()),
        ):
            dims = tensor.data.shape if isinstance(tensor, FeatureMap) else (1, h, w)
            header = struct.pack("<4sIIIIII", b"MXFT", 1, 0, 3, *dims)
            buf = io.BytesIO()
            assert write_tensor(tensor, buf) == len(header) + len(payload)
            assert buf.getvalue() == header + payload

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_read_gives_equal_read_only_maps(self, kind, tmp_path):
        fm = FeatureMap(np.random.default_rng(1).normal(size=(3, 4, 5)).astype(np.float32))
        buf = io.BytesIO()
        write_tensor(fm, buf)
        with _stream(kind, buf.getvalue(), tmp_path) as stream:
            back = read_tensor(stream)
        assert back == fm
        assert back.data.dtype == np.float32
        assert not back.data.flags.writeable
        with pytest.raises(ValueError):
            back.data[0, 0, 0] = 1.0

    def test_read_does_not_alias_the_callers_buffer(self):
        fm = make_feature_map(2, 1, 2, [1.0, 2.0, 3.0, 4.0])
        buf = io.BytesIO()
        write_tensor(fm, buf)
        raw = bytearray(buf.getvalue())
        back = read_tensor(io.BytesIO(raw))
        raw[HEADER_SIZE:] = bytes(len(raw) - HEADER_SIZE)
        assert back == fm
        assert not np.shares_memory(back.data, np.frombuffer(raw, dtype=np.uint8))

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_truncated_payload_message_on_every_stream(self, kind, tmp_path):
        buf = io.BytesIO()
        write_tensor(make_feature_map(2, 2, 2, np.arange(8)), buf)
        with _stream(kind, buf.getvalue()[:-4], tmp_path) as stream:
            with pytest.raises(
                TensorFormatError,
                match=r"truncated payload for dims \(2, 2, 2\): expected 32 bytes, got 28",
            ):
                read_tensor(stream)

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_truncated_header_message_on_every_stream(self, kind, tmp_path):
        with _stream(kind, b"MXFT\x01", tmp_path) as stream:
            with pytest.raises(TensorFormatError, match="truncated header: expected 28 bytes, got 5"):
                read_tensor(stream)

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_back_to_back_tensors_read_in_order_on_every_stream(self, kind, tmp_path):
        first, second = make_feature_map(2, 1, 2, [1.0, 2.0, 3.0, 4.0]), FeatureMap([[[5.0]]])
        buf = io.BytesIO()
        write_tensor(first, buf)
        write_tensor(second, buf)
        with _stream(kind, buf.getvalue(), tmp_path) as stream:
            assert read_tensor(stream) == first
            assert read_tensor(stream) == second

    @pytest.mark.parametrize("kind", ["bytesio", "file", "pipe"])
    def test_read_holds_the_payload_once(self, kind, tmp_path):
        # a 5 MiB payload traced 6.25 MiB from every stream (the finite check's mask is the
        # rest); joining the chunks read from a pipe traced 10.0 MiB, twice the payload
        fm = FeatureMap(np.random.default_rng(2).normal(size=(320, 64, 64)).astype(np.float32))
        buf = io.BytesIO()
        write_tensor(fm, buf)
        with _stream(kind, buf.getvalue(), tmp_path) as stream:
            tracemalloc.start()
            try:
                back = read_tensor(stream)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert back == fm
        assert peak < 1.5 * 4 * fm.data.size

    def test_oversized_header_on_a_real_file(self, tmp_path):
        header = struct.pack("<4sIIIIII", b"MXFT", 1, 0, 3, 65535, 65535, 65535)
        with _stream("file", header + bytes(8), tmp_path) as stream:
            with pytest.raises(TensorFormatError, match=r"dims \(65535, 65535, 65535\).* got 8"):
                read_tensor(stream)


class TestAdoptionKeepsChecks:
    def test_overflowing_loser_rescale_still_raises_non_finite(self):
        # the winner sits near 1e38 with a tiny spread; the loser's spread is
        # 1e4 times larger, so its rescaled vector overflows float32
        big = np.float32(1e38)
        up = np.nextafter(big, np.float32(np.inf))
        f1 = FeatureMap(np.array([big, up, big, up], dtype=np.float32).reshape(4, 1, 1))
        f2 = FeatureMap(np.array([1e35, -1e35, 1e35, -1e35], dtype=np.float32).reshape(4, 1, 1))
        res = merge_pair(f1, f2)
        assert res.selection.codes[0, 0] == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite value at index 0"):
                unmerge_pair(f1, f2, res)

    def test_public_constructors_copy(self):
        src3 = np.ones((2, 2, 2), dtype=np.float32)
        src2 = np.ones((2, 2))
        codes = np.zeros((2, 2), dtype=np.int32)
        fm, sm, mask = FeatureMap(src3), SpatialMap(src2), SelectionMask(codes)
        src3[0, 0, 0] = src2[0, 0] = 99.0
        codes[0, 0] = 1
        assert fm.data[0, 0, 0] == 1.0 and sm.data[0, 0] == 1.0 and mask.codes[0, 0] == 0
        for arr in (src3, src2, codes):
            assert arr.flags.writeable

    def test_adopt_freezes_in_place_without_copy_or_checks(self):
        # the library's own arrays are valid by construction; _adopt only wraps them
        arrays = [
            (FeatureMap, np.array([[[0.0, np.inf]]], dtype=np.float32), "data"),
            (SpatialMap, np.ones(3), "data"),
            (SelectionMask, np.array([[2]], dtype=np.int32), "codes"),
        ]
        for cls, arr, slot in arrays:
            obj = cls._adopt(arr)
            assert getattr(obj, slot) is arr and not arr.flags.writeable


class TestReadFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
        keep=st.none() | st.integers(0, 10**6),
    )
    def test_mutated_file_reads_or_raises_value_error(self, edits, keep):
        buf = io.BytesIO()
        write_tensor(make_feature_map(2, 3, 2, np.arange(12.0) - 5.5), buf)
        raw = bytearray(buf.getvalue())
        for at, byte in edits:
            raw[at % len(raw)] = byte
        raw = bytes(raw if keep is None else raw[: keep % len(raw)])
        for stream in (io.BytesIO(raw), io.BufferedReader(_Pipe(raw))):
            try:
                fm = read_tensor(stream)
            except ValueError:  # TensorFormatError included
                continue
            assert isinstance(fm, FeatureMap)  # trailing bytes are left unread
            assert fm.data.tobytes() == raw[HEADER_SIZE : HEADER_SIZE + fm.data.nbytes]

    @settings(max_examples=100, deadline=None)
    @given(
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
        keep=st.none() | st.integers(0, 10**6),
    )
    def test_every_stream_reads_a_mutated_file_alike(self, edits, keep):
        buf = io.BytesIO()
        write_tensor(make_feature_map(2, 3, 2, np.arange(12.0) - 5.5), buf)
        raw = bytearray(buf.getvalue())
        for at, byte in edits:
            raw[at % len(raw)] = byte
        raw = bytes(raw if keep is None else raw[: keep % len(raw)])
        outcomes = set()
        for kind in ("bytesio", "pipe", "short_reads", "short_reads_seekable"):
            try:
                outcomes.add(read_tensor(_stream(kind, raw, None)).data.tobytes())
            except ValueError as exc:
                outcomes.add(str(exc))
        assert len(outcomes) == 1, outcomes
