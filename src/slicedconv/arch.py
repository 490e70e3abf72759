"""Target machine and microkernel descriptors consumed by the tiling analysis.

The arch description file is flat key/value text, one `key = value` pair per
line, `#` comments allowed, each key at most once. Sizes are given in KiB and
converted to bytes:

    l1_kib = 32
    l2_kib = 512
    l3_kib = 0          # 0 means "no L3"
    cache_line = 64     # bytes
    n_win = 16          # optional microkernel defaults
    n_f = 8
    vector_bits = 128   # accepted and integer-checked; the engine ignores it

Omitted keys fall back to documented defaults (32 KiB / 1 MiB / no L3 / 64 B).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ConvParams, out_shape, require_int

DEFAULT_L1_KIB = 32
DEFAULT_L2_KIB = 1024
DEFAULT_L3_KIB = 0
DEFAULT_CACHE_LINE = 64

ELEM_BYTES = 4  # f32 only


@dataclass(frozen=True)
class ArchInfo:
    """Cache hierarchy description. l3_bytes == 0 means the level is absent."""

    l1_bytes: int
    l2_bytes: int
    l3_bytes: int = 0
    cache_line_bytes: int = 64

    def __post_init__(self):
        for name in ("l1_bytes", "l2_bytes", "l3_bytes", "cache_line_bytes"):
            require_int(name, getattr(self, name))
        if self.l1_bytes < 1 or self.l2_bytes < 1:
            raise ValueError("L1 and L2 sizes must be positive")
        if self.l1_bytes > self.l2_bytes:
            raise ValueError(
                f"L1 ({self.l1_bytes}) must not exceed L2 ({self.l2_bytes})")
        if self.l3_bytes < 0:
            raise ValueError("L3 size must be >= 0 (0 = absent)")
        if self.cache_line_bytes < ELEM_BYTES or self.cache_line_bytes % ELEM_BYTES:
            raise ValueError("cache line must be a positive multiple of the element size")


@dataclass(frozen=True)
class MkInfo:
    """Microkernel shape: windows x filters per tile."""

    n_win: int
    n_f: int

    def __post_init__(self):
        require_int("n_win", self.n_win)
        require_int("n_f", self.n_f)
        if self.n_win < 1 or self.n_f < 1:
            raise ValueError("n_win and n_f must be >= 1")


@dataclass(frozen=True)
class ConvInfo:
    """Convolution parameters plus derived output extents."""

    params: ConvParams
    oh: int
    ow: int
    ohw: int

    @classmethod
    def from_params(cls, p: ConvParams) -> "ConvInfo":
        oh, ow = out_shape(p)
        return cls(params=p, oh=oh, ow=ow, ohw=oh * ow)


_ARCH_KEYS = {"l1_kib", "l2_kib", "l3_kib", "cache_line",
              "n_win", "n_f", "vector_bits"}


def parse_arch_text(text: str) -> dict:
    """Parse the flat key/value format into an int-valued dict."""
    values, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _ARCH_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"line {lineno}: key {key!r} repeats line "
                             f"{first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = int(val.strip())
        except ValueError:
            raise ValueError(f"line {lineno}: value for {key!r} is not an integer")
    return values


def load_arch(path) -> ArchInfo:
    """Load and validate an ArchInfo from a description file."""
    with open(path, "r", encoding="utf-8") as fh:
        values = parse_arch_text(fh.read())
    return ArchInfo(
        l1_bytes=values.get("l1_kib", DEFAULT_L1_KIB) * 1024,
        l2_bytes=values.get("l2_kib", DEFAULT_L2_KIB) * 1024,
        l3_bytes=values.get("l3_kib", DEFAULT_L3_KIB) * 1024,
        cache_line_bytes=values.get("cache_line", DEFAULT_CACHE_LINE),
    )


def load_mk(path, n_win=None, n_f=None) -> MkInfo:
    """Load microkernel shape from an arch file; explicit arguments win."""
    with open(path, "r", encoding="utf-8") as fh:
        values = parse_arch_text(fh.read())
    win = n_win if n_win is not None else values.get("n_win")
    nf = n_f if n_f is not None else values.get("n_f")
    if win is None or nf is None:
        raise ValueError("microkernel shape (n_win, n_f) not given and not in file")
    return MkInfo(n_win=win, n_f=nf)
