"""Feature-map and spatial-map containers with bit-exact binary IO.

A feature map is a dense (C, H, W) block of float32 values, one
conditioning branch's output at one fusion site.  A spatial map is an
(H, W) field of float64 scalars derived from feature maps (std maps,
normalized-std maps, correlation maps).  A selection mask records the
per-location outcome of a fusion decision: averaged, or won wholesale
by one branch.  All three are immutable after construction and reject
non-finite values at every boundary, so downstream arithmetic never
has to guard against NaN or infinity.

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
import struct
from typing import BinaryIO, Sequence

import numpy as np

MXFT_MAGIC = b"MXFT"
MXFT_VERSION = 1
MXFT_DTYPE_F32 = 0
_HEADER = struct.Struct("<4sIIIIII")  # magic, version, dtype, ndim, C, H, W
HEADER_SIZE = _HEADER.size  # 28
_READ_CHUNK = 1 << 20  # bytes per read from a stream that cannot seek


class TensorFormatError(ValueError):
    """A byte stream does not parse as a valid MXFT tensor."""


def _check_finite(arr: np.ndarray) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        idx = int(np.argmin(finite.ravel()))
        raise ValueError(f"non-finite value at index {idx}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class FeatureMap:
    """Immutable (C, H, W) float32 tensor.

    The channel vector at spatial location (j, k) is ``data[:, j, k]``;
    every fusion decision treats that vector as an indivisible unit.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise ValueError(f"expected a (C, H, W) array, got {arr.ndim} dims")
        if min(arr.shape) < 1:
            raise ValueError(f"all dims must be >= 1, got shape {arr.shape}")
        arr = arr.astype(np.float32, copy=True)
        _check_finite(arr)
        self.data = _freeze(arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureMap):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    __hash__ = None

    def __repr__(self) -> str:
        return f"FeatureMap(C={self.channels}, H={self.height}, W={self.width})"


def make_feature_map(
    channels: int, height: int, width: int, data: Sequence[float] | np.ndarray
) -> FeatureMap:
    """Build a FeatureMap from a flat row-major (c, j, k) value sequence.

    The data is copied, never aliased.  Raises ValueError on a length
    mismatch or any non-finite element (reported by flat index).
    """
    for name, n in (("channels", channels), ("height", height), ("width", width)):
        if int(n) < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    flat = np.asarray(data, dtype=np.float32).ravel()
    expected = channels * height * width
    if flat.size != expected:
        raise ValueError(
            f"data length mismatch: expected {expected} values "
            f"({channels}*{height}*{width}), got {flat.size}"
        )
    return FeatureMap(flat.reshape(channels, height, width))


class SpatialMap:
    """Immutable (H, W) float64 field of per-location scalars."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError(f"expected an (H, W) array, got {arr.ndim} dims")
        if min(arr.shape) < 1:
            raise ValueError(f"all dims must be >= 1, got shape {arr.shape}")
        arr = arr.astype(np.float64, copy=True)
        _check_finite(arr)
        self.data = _freeze(arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @classmethod
    def from_feature_map(cls, fm: FeatureMap) -> "SpatialMap":
        if fm.channels != 1:
            raise ValueError(f"need C=1 to reinterpret as spatial map, got C={fm.channels}")
        return cls(fm.data[0])

    def to_feature_map(self) -> FeatureMap:
        """Reinterpret as a C=1 feature map (float32 cast) for MXFT export."""
        return FeatureMap(self.data[np.newaxis].astype(np.float32))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpatialMap):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    __hash__ = None

    def __repr__(self) -> str:
        return f"SpatialMap(H={self.height}, W={self.width})"


#: Selection-mask code for locations fused by averaging.
AVERAGED = -1


class SelectionMask:
    """Per-location fusion decisions: AVERAGED (-1) or a winner branch index.

    ``n_branches`` is the number of branches that participated in the
    merge; winner codes must lie in ``[0, n_branches)``.
    """

    __slots__ = ("codes", "n_branches")

    def __init__(self, codes: np.ndarray, n_branches: int):
        arr = np.asarray(codes)
        if arr.ndim != 2:
            raise ValueError(f"expected an (H, W) code array, got {arr.ndim} dims")
        if min(arr.shape) < 1:
            raise ValueError(f"all dims must be >= 1, got shape {arr.shape}")
        if n_branches < 1:
            raise ValueError(f"n_branches must be >= 1, got {n_branches}")
        arr = arr.astype(np.int32, copy=True)
        if arr.min(initial=AVERAGED) < AVERAGED or arr.max(initial=0) >= n_branches:
            raise ValueError(
                f"selection codes must be {AVERAGED} (averaged) or a branch index "
                f"< {n_branches}, got range [{arr.min()}, {arr.max()}]"
            )
        self.codes = _freeze(arr)
        self.n_branches = int(n_branches)

    @property
    def height(self) -> int:
        return self.codes.shape[0]

    @property
    def width(self) -> int:
        return self.codes.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape

    def averaged_fraction(self) -> float:
        return float(np.mean(self.codes == AVERAGED))

    def win_fractions(self) -> tuple[float, ...]:
        return tuple(float(np.mean(self.codes == b)) for b in range(self.n_branches))

    def tag_map(self) -> FeatureMap:
        """Numeric tags as a C=1 tensor (-1.0 averaged, b.0 winner) for MXFT export."""
        return FeatureMap(self.codes[np.newaxis].astype(np.float32))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SelectionMask):
            return NotImplemented
        return self.n_branches == other.n_branches and bool(
            np.array_equal(self.codes, other.codes)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"SelectionMask(H={self.height}, W={self.width}, n_branches={self.n_branches})"


def write_tensor(tensor: FeatureMap | SpatialMap, sink: BinaryIO) -> int:
    """Serialize a tensor to MXFT bytes; returns the byte count written.

    Spatial maps are written as C=1 feature maps (float32 cast).
    """
    fm = tensor.to_feature_map() if isinstance(tensor, SpatialMap) else tensor
    c, h, w = fm.shape
    header = _HEADER.pack(MXFT_MAGIC, MXFT_VERSION, MXFT_DTYPE_F32, 3, c, h, w)
    payload = fm.data.astype("<f4").tobytes()
    sink.write(header)
    sink.write(payload)
    return len(header) + len(payload)


def read_tensor(source: BinaryIO) -> FeatureMap:
    """Parse an MXFT byte stream back into a FeatureMap, validating everything.

    Raises TensorFormatError on bad magic, unsupported version or dtype,
    a dims/payload size mismatch, and ValueError on non-finite payload
    values.  Header dims are checked against the bytes the stream holds
    before a payload buffer is allocated, so an oversized header fails
    as a truncated payload instead of exhausting memory.
    """
    header = source.read(HEADER_SIZE)
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
    nbytes = 4 * c * h * w
    payload = _read_payload(source, nbytes)
    if len(payload) != nbytes:
        raise TensorFormatError(
            f"truncated payload for dims ({c}, {h}, {w}): "
            f"expected {nbytes} bytes, got {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype="<f4").reshape(c, h, w)
    return FeatureMap(arr)


def _read_payload(source: BinaryIO, nbytes: int) -> bytes:
    """Read up to nbytes, allocating no more than the stream actually holds.

    A header may claim any size, so a seekable stream is checked against
    its remaining length first (and returns only what is left when that
    is short); any other stream is read in bounded chunks until EOF.
    """
    if source.seekable():
        here = source.tell()
        left = source.seek(0, io.SEEK_END) - here
        source.seek(here)
        return source.read(min(nbytes, left))
    chunks = []
    while nbytes > 0:
        chunk = source.read(min(nbytes, _READ_CHUNK))
        if not chunk:
            break
        chunks.append(chunk)
        nbytes -= len(chunk)
    return b"".join(chunks)


def read_spatial_map(source: BinaryIO) -> SpatialMap:
    """Read a C=1 MXFT stream as a SpatialMap."""
    return SpatialMap.from_feature_map(read_tensor(source))


def write_pgm(sm: SpatialMap, sink: BinaryIO) -> int:
    """Write a min-max normalized 8-bit binary PGM (P5) heatmap.

    A constant map renders as all black.
    """
    vals = sm.data
    lo, hi = float(vals.min()), float(vals.max())
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
