"""Feature-map and spatial-map containers with bit-exact binary IO.

A feature map is a dense (C, H, W) block of float32 values, one
conditioning branch's output at one fusion site.  A spatial map is an
(H, W) field of float64 scalars derived from feature maps (std maps,
normalized-std maps, correlation maps).  A selection mask records the
per-location outcome of a fusion decision: averaged, or won wholesale
by one branch.  All three are immutable after construction and hold
only finite values, so downstream arithmetic never has to guard
against NaN or infinity.

The three share one private base, ``_Frozen``: the ``shape``,
``height`` and ``width`` accessors, an equality over each class's
declared fields that never holds across classes, no hash, and for the
two float maps one constructor body that differs only in rank and dtype.

Values are checked where they enter or where arithmetic can overflow.
The public constructors copy and check their input, which the caller
may still hold and mutate; float input passes ``_real_array``, the one
rule for every float array the library takes.  An array the library has
just allocated, and that nothing else references, is adopted instead:
the private ``_adopt`` freezes it in place unchecked, so its caller owes
the container's rank, dtype and range.  MXFT reads, statistics maps and
fusion outputs adopt, so each feature byte moves once; only an MXFT
payload and a float32 cast of float64 values are checked first.

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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_dims(arr: np.ndarray, ndim: int, what: str) -> None:
    if arr.ndim != ndim:
        raise ValueError(f"expected {what} array, got {arr.ndim} dims")
    if min(arr.shape) < 1:
        raise ValueError(f"all dims must be >= 1, got shape {arr.shape}")


class _Frozen:
    """Base of the three containers: construction, shape and equality.

    ``_fields`` names the slots equality compares, the frozen array first.
    The float maps' shared constructor reads ``_ndim``, ``_dtype`` and ``_what``.
    """

    __slots__ = ()
    _fields = ("data",)

    def __init__(self, data: np.ndarray):
        arr = _real_array(f"{type(self).__name__} data", data, self._dtype)
        _check_dims(arr, self._ndim, self._what)
        self.data = _freeze(arr)

    @classmethod
    def _adopt(cls, data: np.ndarray, *rest):
        """Freeze, neither copy nor check, an array the library just allocated.

        It must have the container's rank, dtype and range; ``rest`` fills
        the remaining ``_fields`` (a mask's n_branches).
        """
        obj = cls.__new__(cls)
        for name, value in zip(cls._fields, (_freeze(data), *rest)):
            setattr(obj, name, value)
        return obj

    @property
    def shape(self) -> tuple[int, ...]:
        return getattr(self, self._fields[0]).shape

    @property
    def height(self) -> int:
        return self.shape[-2]

    @property
    def width(self) -> int:
        return self.shape[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self._fields)

    __hash__ = None


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

    def __repr__(self) -> str:
        return f"FeatureMap(C={self.channels}, H={self.height}, W={self.width})"


def make_feature_map(
    channels: int, height: int, width: int, data: Sequence[float] | np.ndarray
) -> FeatureMap:
    """Build a FeatureMap from a flat row-major (c, j, k) value sequence.

    The data is copied, never aliased.  Raises ValueError on a dim that
    is not an integer >= 1, data the array rule rejects (a non-finite
    element is reported by flat index) or a length mismatch.
    """
    for name, n in (("channels", channels), ("height", height), ("width", width)):
        if _integer(name, n) < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
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

    @classmethod
    def from_feature_map(cls, fm: FeatureMap) -> "SpatialMap":
        if fm.channels != 1:
            raise ValueError(f"need C=1 to reinterpret as spatial map, got C={fm.channels}")
        return cls._adopt(fm.data[0].astype(np.float64))

    def to_feature_map(self) -> FeatureMap:
        """Reinterpret as a C=1 feature map (float32 cast) for MXFT export."""
        return FeatureMap._adopt(_real_array("float32 export", self.data[np.newaxis], np.float32))

    def __repr__(self) -> str:
        return f"SpatialMap(H={self.height}, W={self.width})"


#: Selection-mask code for locations fused by averaging.
AVERAGED = -1


class SelectionMask(_Frozen):
    """Per-location fusion decisions: AVERAGED (-1) or a winner branch index.

    ``n_branches`` is the number of branches that participated in the
    merge; winner codes must lie in ``[0, n_branches)``.
    """

    __slots__ = _fields = ("codes", "n_branches")

    def __init__(self, codes: np.ndarray, n_branches: int):
        arr = np.asarray(codes)
        _check_dims(arr, 2, "an (H, W) code")
        if (n_branches := _integer("n_branches", n_branches)) < 1:
            raise ValueError(f"n_branches must be >= 1, got {n_branches}")
        if arr.dtype.kind not in "iu":  # checked before the int32 cast, which would wrap
            raise ValueError(f"selection codes must be integers, got dtype {arr.dtype}")
        if arr.min() < AVERAGED or arr.max() >= n_branches:
            raise ValueError(
                f"selection codes must be {AVERAGED} (averaged) or a branch index "
                f"< {n_branches}, got range [{arr.min()}, {arr.max()}]"
            )
        self.codes = _freeze(arr.astype(np.int32))
        self.n_branches = n_branches

    def _fractions(self) -> tuple[float, ...]:
        """Share of locations per code: averaged first, then each branch's wins.

        A count over the size is the same float as the mean of a bool array.
        """
        counts = np.bincount(self.codes.ravel() - AVERAGED, minlength=self.n_branches + 1)
        return tuple((counts / self.codes.size).tolist())

    def averaged_fraction(self) -> float:
        return self._fractions()[0]

    def win_fractions(self) -> tuple[float, ...]:
        return self._fractions()[1:]

    def tag_map(self) -> FeatureMap:
        """Numeric tags as a C=1 tensor (-1.0 averaged, b.0 winner) for MXFT export."""
        return FeatureMap._adopt(self.codes[np.newaxis].astype(np.float32))

    def __repr__(self) -> str:
        return f"SelectionMask(H={self.height}, W={self.width}, n_branches={self.n_branches})"


def write_tensor(tensor: FeatureMap | SpatialMap, sink: BinaryIO) -> int:
    """Serialize a tensor to MXFT bytes; returns the byte count written.

    Spatial maps are written as C=1 feature maps (float32 cast).  The
    payload is written from the map's own buffer; only a big-endian host
    makes a byte-swapped copy.
    """
    fm = tensor.to_feature_map() if isinstance(tensor, SpatialMap) else tensor
    c, h, w = fm.shape
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


def _read_upto(source: BinaryIO, n: int) -> bytes:
    """The next n bytes of source, fewer only at EOF; a short read is followed by another.

    A seekable stream is read in one call of all it holds up to n, any other in
    _READ_CHUNK pieces, so a size claimed by a header allocates only what arrives.
    """
    step = _READ_CHUNK
    if source.seekable():
        here = source.tell()
        step = max(step, min(n, source.seek(0, io.SEEK_END) - here))
        source.seek(here)
    parts, got = [], 0
    while got < n and (part := source.read(min(n - got, step))):
        parts.append(part)
        got += len(part)
    return b"".join(parts)  # one part is returned as is, not copied


def read_spatial_map(source: BinaryIO) -> SpatialMap:
    """Read a C=1 MXFT stream as a SpatialMap."""
    return SpatialMap.from_feature_map(read_tensor(source))


def write_pgm(sm: SpatialMap, sink: BinaryIO) -> int:
    """Write a min-max normalized 8-bit binary PGM (P5) heatmap.

    A constant map renders as all black.
    """
    vals = sm.data
    lo, hi = float(vals.min()), float(vals.max())
    if not np.isfinite(hi - lo):  # a span past the float range: halve it (exact but for subnormals)
        vals, lo, hi = vals / 2.0, lo / 2.0, hi / 2.0
    if hi > lo:
        gray = np.rint((vals - lo) / (hi - lo) * 255.0)
    else:
        gray = np.zeros_like(vals)
    return _write_pgm_bytes(gray.astype(np.uint8), sink)


def write_selection_pgm(mask: SelectionMask, sink: BinaryIO) -> int:
    """Render a selection mask as PGM: averaged = 0, winner b = 64 + 64*b, clipped."""
    codes = mask.codes
    gray = np.where(codes == AVERAGED, 0, np.minimum(64 + 64 * codes, 255))
    return _write_pgm_bytes(gray.astype(np.uint8), sink)


def _write_pgm_bytes(gray: np.ndarray, sink: BinaryIO) -> int:
    h, w = gray.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    sink.write(header)
    sink.write(gray.tobytes())
    return len(header) + gray.size
