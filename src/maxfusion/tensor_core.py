"""Feature-map and spatial-map containers with bit-exact binary IO.

A feature map is a dense (C, H, W) block of float32 values, one
conditioning branch's output at one fusion site.  A spatial map is an
(H, W) field of float64 scalars derived from feature maps (std maps,
normalized-std maps, correlation maps).  A selection mask records one
pair merge's per-location decision (a fold of more branches chains pair
merges): averaged (-1), or won wholesale by branch 0 or branch 1.  All
three are immutable after construction and hold only finite values, so
downstream arithmetic never has to guard against NaN or infinity.

Each container is one frozen array in its one slot (``data``, or a
mask's ``codes``) and nothing else.  The private base ``_Frozen`` gives
all three the ``shape`` accessor, an equality of the arrays that never
holds across classes, no hash, one repr of the dims, and for the two
float maps one constructor body that differs only in rank and dtype.

Values are checked where they enter or where arithmetic can overflow.
The public constructors copy and check their input, which the caller
may still hold and mutate; float input passes ``_real_array``, the one
rule for every float array the library takes.  An array the library has
just allocated, and that nothing else references, is adopted instead:
the private ``_adopt`` freezes it in place unchecked, so its caller owes
the container's rank, dtype and range.  MXFT reads, statistics maps and
fusion outputs adopt, so each feature byte moves once; only an MXFT
payload and a float32 cast of float64 values are checked first.  Beside
these value rules (``_integer``, ``_real``, ``_real_array``) are the
argument rules every public entry point calls: ``_instance`` for a
container, ``_flag`` for a bool and ``_feature_maps`` for branches.

On-disk tensor format (MXFT, little-endian throughout):

    bytes  0-3    magic ``b"MXFT"``
    bytes  4-7    format version, u32 (currently 1)
    bytes  8-11   dtype code, u32 (0 = float32)
    bytes 12-15   ndim, u32 (always 3)
    bytes 16-27   dims C, H, W as three u32
    bytes 28-     payload, C*H*W float32 values, row-major (c, j, k)

The header is 28 bytes, so a 1x1x1 tensor occupies 32 bytes.  Spatial
maps are stored as C=1 feature maps.  Writing the same tensor twice
yields identical bytes.

Spatial maps additionally export as 8-bit binary PGM (P5) after
min-max normalization, for eyeballing heatmaps without any imaging
dependency.
"""

from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO, Sequence

import numpy as np

MXFT_MAGIC = b"MXFT"
MXFT_VERSION = 1
MXFT_DTYPE_F32 = 0
_HEADER = struct.Struct("<4sIIIIII")  # magic, version, dtype, ndim, C, H, W
HEADER_SIZE = _HEADER.size  # 28
_READ_CHUNK = 1 << 20  # bytes per read from a stream that cannot say how much it holds


class TensorFormatError(ValueError):
    """A byte stream does not parse as a valid MXFT tensor."""


def _check_finite(arr: np.ndarray, name: str | None = None) -> np.ndarray:
    finite = np.isfinite(arr)
    if not finite.all():
        fault = f"non-finite value at index {int(np.argmin(finite.ravel()))}"
        raise ValueError(fault if name is None else f"{name} must be finite ({fault})")
    return arr


def _shown(value) -> str:
    """value as an error message shows it: an array or dict by its JSON kind, else its repr."""
    kinds = {list: "an array", np.ndarray: "an array", dict: "an object"}
    return kinds.get(type(value)) or repr(value)


def _integer(name: str, value) -> int:
    """value as an int if it is one (a numpy integer included, a bool not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    return int(value)


def _real(name: str, value) -> float:
    """value as a finite float if it is a real number (a numpy real included, a bool not)."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an integer past the float range
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite and real, got {_shown(value)}")
    return x


def _has_bool(value) -> bool:
    """A bool at any depth of nested lists and tuples, numpy bools and bool arrays included."""
    if isinstance(value, (list, tuple)):
        return any(map(_has_bool, value))
    return isinstance(value, (bool, np.bool_, np.ndarray)) and np.asarray(value).dtype == np.bool_


def _real_array(name: str, value, dtype=np.float64) -> np.ndarray:
    """value as a new array of dtype if it is a rectangular array of finite real numbers."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting, or more dims than numpy allows
        arr = None
    # numpy reads a True among numbers as 1; the kind check first bounds what _has_bool walks
    if arr is None or arr.dtype.kind not in "iuf" or _has_bool(value):
        raise ValueError(f"{name} must be a rectangular array of real numbers, got {_shown(value)}")
    with np.errstate(over="ignore"):  # a value past the range of dtype fails the finite check
        return _check_finite(arr.astype(dtype), name)


def _flag(name: str, value) -> bool:
    """value as a bool if it is one (a numpy bool included, an integer not)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be True or False, got {_shown(value)}")
    return bool(value)


def _instance(name: str, value, cls):
    """value if it is an instance of cls, a class or a tuple of classes."""
    if not isinstance(value, cls):
        kinds = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise ValueError(f"{name} must be a {kinds}, got {_shown(value)}")
    return value


def _feature_maps(maps, least: int, to: str = "fuse") -> None:
    """Check for a list or tuple of >= least same-shape FeatureMaps; a bad map is named by index."""
    if (n := len(_instance("branches", maps, (list, tuple)))) < least:
        raise ValueError(f"need at least {least} branch{'es' * (least > 1)} to {to}, got {n}")
    shapes = [_instance(f"branch {i}", m, FeatureMap).shape for i, m in enumerate(maps)]
    for shape in shapes[1:]:
        if shape != shapes[0]:
            raise ValueError(f"shape mismatch: {shapes[0]} vs {shape}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_dims(arr: np.ndarray, ndim: int, what: str) -> None:
    if arr.ndim != ndim:
        raise ValueError(f"expected {what} array, got {arr.ndim} dims")
    if min(arr.shape) < 1:
        raise ValueError(f"all dims must be >= 1, got shape {arr.shape}")


class _Frozen:
    """Base of the three containers: one frozen array in the subclass's one slot.

    The float maps' shared constructor reads ``_ndim``, ``_dtype`` and ``_what``.
    """

    __slots__ = ()

    def __init__(self, data: np.ndarray):
        arr = _real_array(f"{type(self).__name__} data", data, self._dtype)
        _check_dims(arr, self._ndim, self._what)
        self.data = _freeze(arr)

    @classmethod
    def _adopt(cls, data: np.ndarray):
        """Freeze, neither copy nor check, an array the library just allocated.

        It must have the container's rank, dtype and range.
        """
        obj = cls.__new__(cls)
        setattr(obj, cls.__slots__[0], _freeze(data))
        return obj

    def _array(self) -> np.ndarray:
        return getattr(self, self.__slots__[0])

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array().shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return np.array_equal(self._array(), other._array())

    __hash__ = None

    def __repr__(self) -> str:
        dims = ", ".join(f"{d}={n}" for d, n in zip("CHW"[-len(self.shape):], self.shape))
        return f"{type(self).__name__}({dims})"


class FeatureMap(_Frozen):
    """Immutable (C, H, W) float32 tensor.

    The channel vector at spatial location (j, k) is ``data[:, j, k]``;
    every fusion decision treats that vector as an indivisible unit.
    """

    __slots__ = ("data",)
    _ndim, _dtype, _what = 3, np.float32, "a (C, H, W)"

    @property
    def channels(self) -> int:
        return self.data.shape[0]


def make_feature_map(
    channels: int, height: int, width: int, data: Sequence[float] | np.ndarray
) -> FeatureMap:
    """Build a FeatureMap from a flat row-major (c, j, k) value sequence.

    The data is copied, never aliased.  Raises ValueError on a dim that
    is not an integer >= 1, data the array rule rejects (a non-finite
    element is reported by flat index) or a length mismatch.
    """
    dims = []  # Python ints, so the product below cannot wrap as a numpy integer's would
    for name, n in (("channels", channels), ("height", height), ("width", width)):
        dims.append(_integer(name, n))
        if dims[-1] < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    channels, height, width = dims
    flat = _real_array("FeatureMap data", data, np.float32).ravel()
    expected = channels * height * width
    if flat.size != expected:
        raise ValueError(
            f"data length mismatch: expected {expected} values "
            f"({channels}*{height}*{width}), got {flat.size}"
        )
    return FeatureMap._adopt(flat.reshape(channels, height, width))


class SpatialMap(_Frozen):
    """Immutable (H, W) float64 field of per-location scalars."""

    __slots__ = ("data",)
    _ndim, _dtype, _what = 2, np.float64, "an (H, W)"

    def to_feature_map(self) -> FeatureMap:
        """Reinterpret as a C=1 feature map (float32 cast) for MXFT export."""
        return FeatureMap._adopt(_real_array("float32 export", self.data[np.newaxis], np.float32))


#: Selection-mask code for locations fused by averaging.
AVERAGED = -1


class SelectionMask(_Frozen):
    """One pair merge's per-location decisions: AVERAGED (-1), branch 0 or branch 1."""

    __slots__ = ("codes",)

    def __init__(self, codes: np.ndarray):
        arr = np.asarray(codes)
        _check_dims(arr, 2, "an (H, W) code")
        if arr.dtype.kind not in "iu":  # checked before the int32 cast, which would wrap
            raise ValueError(f"selection codes must be integers, got dtype {arr.dtype}")
        if arr.min() < AVERAGED or arr.max() > 1:
            raise ValueError(
                f"selection codes must be {AVERAGED} (averaged), 0 or 1, "
                f"got range [{arr.min()}, {arr.max()}]"
            )
        self.codes = _freeze(arr.astype(np.int32))

    def _fractions(self) -> tuple[float, ...]:
        """Share of locations per code: averaged, then branch 0's and branch 1's wins.

        A count over the size is the same float as the mean of a bool array.
        """
        counts = np.bincount(self.codes.ravel() - AVERAGED, minlength=3)
        return tuple((counts / self.codes.size).tolist())

    def averaged_fraction(self) -> float:
        return self._fractions()[0]

    def win_fractions(self) -> tuple[float, ...]:
        return self._fractions()[1:]

    def tag_map(self) -> FeatureMap:
        """Numeric tags as a C=1 tensor (-1.0 averaged, b.0 winner) for MXFT export."""
        return FeatureMap._adopt(self.codes[np.newaxis].astype(np.float32))


def write_tensor(tensor: FeatureMap | SpatialMap, sink: BinaryIO) -> int:
    """Serialize a tensor to MXFT bytes; returns the byte count written.

    Spatial maps are written as C=1 feature maps (float32 cast).  The
    payload is written from the map's own buffer; only a big-endian host
    makes a byte-swapped copy.
    """
    fm = tensor.to_feature_map() if isinstance(tensor, SpatialMap) else tensor
    c, h, w = _instance("tensor", fm, (FeatureMap, SpatialMap)).shape
    header = _HEADER.pack(MXFT_MAGIC, MXFT_VERSION, MXFT_DTYPE_F32, 3, c, h, w)
    payload = np.ascontiguousarray(fm.data, dtype="<f4").reshape(-1).view(np.uint8)
    sink.write(header)
    sink.write(memoryview(payload))
    return len(header) + payload.size


def read_tensor(source: BinaryIO) -> FeatureMap:
    """Parse an MXFT byte stream back into a FeatureMap, validating everything.

    Raises TensorFormatError on bad magic, unsupported version or dtype,
    a dims/payload size mismatch, and ValueError on non-finite payload
    values.  Header and payload are read through ``_read_upto``, which
    tolerates short reads and allocates no more than the stream holds, so
    an oversized header fails as a truncated payload instead of
    exhausting memory.
    """
    header = _read_upto(source, HEADER_SIZE)
    if len(header) < HEADER_SIZE:
        raise TensorFormatError(
            f"truncated header: expected {HEADER_SIZE} bytes, got {len(header)}"
        )
    magic, version, dtype_code, ndim, c, h, w = _HEADER.unpack(header)
    if magic != MXFT_MAGIC:
        raise TensorFormatError("not an MXFT file")
    if version != MXFT_VERSION:
        raise TensorFormatError(f"unsupported version {version} (supported: {MXFT_VERSION})")
    if dtype_code != MXFT_DTYPE_F32:
        raise TensorFormatError(f"unsupported dtype code {dtype_code} (supported: 0 = f32)")
    if ndim != 3:
        raise TensorFormatError(f"unsupported ndim {ndim} (supported: 3)")
    if min(c, h, w) < 1:
        raise TensorFormatError(f"invalid dims ({c}, {h}, {w}): all must be >= 1")
    payload = _read_upto(source, nbytes := 4 * c * h * w)
    if len(payload) < nbytes:
        raise TensorFormatError(
            f"truncated payload for dims ({c}, {h}, {w}): "
            f"expected {nbytes} bytes, got {len(payload)}"
        )
    data = np.frombuffer(payload, "<f4").reshape(c, h, w).astype(np.float32, copy=False)
    return FeatureMap._adopt(_check_finite(data))


def _read_upto(source: BinaryIO, n: int) -> bytes | bytearray:
    """The next n bytes of source, fewer only at EOF; a short read is followed by another.

    A seekable stream is read in one call of all it holds up to n, any other in
    _READ_CHUNK pieces, so a size claimed by a header allocates only what arrives.
    What one read returns is returned as is; later reads grow one bytearray, so a
    payload read from a pipe is never held twice.
    """
    step = _READ_CHUNK
    if source.seekable():
        here = source.tell()
        step = max(step, min(n, source.seek(0, io.SEEK_END) - here))
        source.seek(here)
    data = source.read(min(n, step))
    while len(data) < n and (part := source.read(min(n - len(data), step))):
        if isinstance(data, bytes):
            data = bytearray(data)
        data += part
    return data


def read_spatial_map(source: BinaryIO) -> SpatialMap:
    """Read a C=1 MXFT stream as a SpatialMap."""
    if (fm := read_tensor(source)).channels != 1:
        raise ValueError(f"need C=1 to reinterpret as spatial map, got C={fm.channels}")
    return SpatialMap._adopt(fm.data[0].astype(np.float64))


def write_pgm(sm: SpatialMap, sink: BinaryIO) -> int:
    """Write a min-max normalized 8-bit binary PGM (P5) heatmap.

    A constant map renders as all black.
    """
    vals = _instance("sm", sm, SpatialMap).data
    lo, hi = float(vals.min()), float(vals.max())
    if not np.isfinite(hi - lo):  # a span past the float range: halve it (exact but for subnormals)
        vals, lo, hi = vals / 2.0, lo / 2.0, hi / 2.0
    if hi > lo:
        gray = np.rint((vals - lo) / (hi - lo) * 255.0)
    else:
        gray = np.zeros_like(vals)
    return _write_pgm_bytes(gray.astype(np.uint8), sink)


def write_selection_pgm(mask: SelectionMask, sink: BinaryIO) -> int:
    """Render a selection mask as PGM: averaged = 0, branch 0 = 64, branch 1 = 128."""
    gray = 64 * (_instance("mask", mask, SelectionMask).codes + 1)
    return _write_pgm_bytes(gray.astype(np.uint8), sink)


def _write_pgm_bytes(gray: np.ndarray, sink: BinaryIO) -> int:
    h, w = gray.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    sink.write(header)
    sink.write(gray.tobytes())
    return len(header) + gray.size
