"""Dense tensor storage and convolution problem description.

Tensors are plain numpy float32 arrays in NCHW (input/output) and FCHW
(filter) layout. Index computations downstream address the padded
problem (ConvParams.padded()), where padding is zero; the executor pads
one channel chunk at a time rather than the whole input.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass

import numpy as np

DTYPE = np.float32

# Each record's __init__ sets its fields through this, past the frozen
# __setattr__.
_set = object.__setattr__


class Record:
    """Base of the package's records: frozen values compared, hashed and
    printed field by field.

    Each record is a dataclass declared with init=False, repr=False and
    eq=False, so dataclasses.fields, replace and is_dataclass work on it
    but the standard library generates no code for it, which would cost
    every import about a millisecond per class. Its own __init__ checks
    its arguments and sets each field with _set, one at a time in field
    order, as the generated __init__ did, so that its instances share
    their attribute-name keys. Equality, hashing and repr are those of
    dataclass(frozen=True): equal when of one class with equal field
    tuples, the hash of that tuple, and "Name(field=value, ...)". They
    read the fields from __dataclass_fields__, which holds exactly what
    dataclasses.fields lists, since no record declares a ClassVar or an
    InitVar.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self):
        return hash(_values(self))

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}"
                          for name in self.__dataclass_fields__])
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _values(record: Record) -> tuple:
    return tuple([getattr(record, name)
                  for name in record.__dataclass_fields__])


@dataclass(init=False, repr=False, eq=False)
class ConvParams(Record):
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

    def __init__(self, n: int, ic: int, ih: int, iw: int, oc: int, fh: int,
                 fw: int, stride_h: int = 1, stride_w: int = 1,
                 dil_h: int = 1, dil_w: int = 1, pad_h: int = 0,
                 pad_w: int = 0):
        _set(self, "n", n)
        _set(self, "ic", ic)
        _set(self, "ih", ih)
        _set(self, "iw", iw)
        _set(self, "oc", oc)
        _set(self, "fh", fh)
        _set(self, "fw", fw)
        _set(self, "stride_h", stride_h)
        _set(self, "stride_w", stride_w)
        _set(self, "dil_h", dil_h)
        _set(self, "dil_w", dil_w)
        _set(self, "pad_h", pad_h)
        _set(self, "pad_w", pad_w)
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

    def padded(self) -> "ConvParams":
        """Equivalent problem over the zero-padded input (pad=0).

        This problem itself when it has no padding. Otherwise every field
        follows from checked ones, so it is built without re-running
        __init__'s checks: once per plan, that halves the copy's cost
        (2.5 us against 4.7 us, timeit minima, Python 3.11 on a Xeon).
        Its fields are set one at a time in field order, as __init__ sets
        them, so its instance dict shares its keys as an __init__-built
        one's does.
        """
        if not (self.pad_h or self.pad_w):
            return self
        grown = {"ih": self.ih + 2 * self.pad_h, "iw": self.iw + 2 * self.pad_w,
                 "pad_h": 0, "pad_w": 0}
        q = object.__new__(ConvParams)
        for name in self.__dataclass_fields__:
            _set(q, name,
                 grown[name] if name in grown else getattr(self, name))
        return q


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
