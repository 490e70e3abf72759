"""Dense tensor storage and convolution problem description.

Tensors are plain numpy float32 arrays in NCHW (input/output) and FCHW
(filter) layout. The engine core assumes the input has been padded up
front, so every index computation downstream can treat padding as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DTYPE = np.float32


def make_tensor4d(data) -> np.ndarray:
    """Validate `data` as a contiguous f32 4-D array."""
    arr = np.ascontiguousarray(data, dtype=DTYPE)
    if arr.ndim != 4:
        raise ValueError(f"expected a 4-D tensor, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"all extents must be >= 1, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ConvParams:
    """Full 2-D convolution problem description.

    n:      batch count
    ic:     input channels
    ih, iw: input spatial extents (unpadded)
    oc:     output channels (= filter count)
    fh, fw: filter spatial extents
    stride_h/w, dil_h/w: positive steps and dilations
    pad_h/w: non-negative symmetric zero padding
    """

    n: int
    ic: int
    ih: int
    iw: int
    oc: int
    fh: int
    fw: int
    stride_h: int = 1
    stride_w: int = 1
    dil_h: int = 1
    dil_w: int = 1
    pad_h: int = 0
    pad_w: int = 0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            require_int(name, getattr(self, name))
        for name in ("n", "ic", "ih", "iw", "oc", "fh", "fw",
                     "stride_h", "stride_w", "dil_h", "dil_w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.pad_h < 0 or self.pad_w < 0:
            raise ValueError("padding must be non-negative")
        if self.dil_h * (self.fh - 1) >= self.ih + 2 * self.pad_h:
            raise ValueError("dilated filter height exceeds padded input height")
        if self.dil_w * (self.fw - 1) >= self.iw + 2 * self.pad_w:
            raise ValueError("dilated filter width exceeds padded input width")
        oh, ow = out_shape(self)
        if oh < 1 or ow < 1:
            raise ValueError(f"parameters yield empty output ({oh}x{ow})")

    def padded(self) -> "ConvParams":
        """Equivalent problem over the materialized zero-padded input (pad=0)."""
        return ConvParams(
            n=self.n, ic=self.ic,
            ih=self.ih + 2 * self.pad_h, iw=self.iw + 2 * self.pad_w,
            oc=self.oc, fh=self.fh, fw=self.fw,
            stride_h=self.stride_h, stride_w=self.stride_w,
            dil_h=self.dil_h, dil_w=self.dil_w,
            pad_h=0, pad_w=0,
        )


def require_int(name: str, value) -> None:
    """Raise TypeError unless value is an integer (bool and float are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def out_shape(p: ConvParams) -> tuple[int, int]:
    """Output spatial extents under the standard floor formula."""
    oh = (p.ih + 2 * p.pad_h - p.dil_h * (p.fh - 1) - 1) // p.stride_h + 1
    ow = (p.iw + 2 * p.pad_w - p.dil_w * (p.fw - 1) - 1) // p.stride_w + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"parameters yield empty output ({oh}x{ow})")
    return oh, ow


def pad_input(t: np.ndarray, p: ConvParams) -> np.ndarray:
    """Zero-pad an NCHW input tensor by (pad_h, pad_w) on each side.

    Returns the input unchanged when both pads are zero.
    """
    if p.pad_h == 0 and p.pad_w == 0:
        return t
    n, c, h, w = t.shape
    out = np.zeros((n, c, h + 2 * p.pad_h, w + 2 * p.pad_w), dtype=t.dtype)
    out[:, :, p.pad_h:p.pad_h + h, p.pad_w:p.pad_w + w] = t
    return out
