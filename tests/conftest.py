"""Shared test helpers: paths, random problem generators, reference arch."""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import slicedconv
from slicedconv import (ArchInfo, ConvInfo, ConvParams, MkInfo, out_shape,
                        plan_convolution)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
# Directory holding the `slicedconv` package this suite imported (src/ or
# site-packages), so subprocesses run the same code from any working dir.
PACKAGE_PARENT = Path(slicedconv.__file__).resolve().parents[1]

FILTER_SHAPES = ((1, 1), (3, 3), (5, 5), (7, 7), (1, 7), (7, 1))

# Reference tiling fixture: 75x75 output, 3x3 filters, 16x8 microkernel.
REF_PARAMS = ConvParams(n=1, ic=32, ih=77, iw=77, oc=256, fh=3, fw=3)
REF_MK = MkInfo(n_win=16, n_f=8)
CALIBRATED_ARCH = ArchInfo(l1_bytes=32 * 1024, l2_bytes=512 * 1024,
                           l3_bytes=592 * 1024)
# Caches no test layer's single-channel tiles overflow, so that its
# analysis never refuses a layer that a test runs at sizes of its own.
ROOMY_ARCH = ArchInfo(l1_bytes=64 << 20, l2_bytes=64 << 20, l3_bytes=0)


def cli_env():
    """os.environ with PACKAGE_PARENT first on PYTHONPATH, for a
    `python -m slicedconv.cli` subprocess: a relative PYTHONPATH such as
    `src` does not resolve from the child's working directory."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE_PARENT), env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def random_params(rng, max_ic=64, max_oc=128, filters=FILTER_SHAPES,
                  strides=(1, 2, 3), dils=(1, 2), pads=(0, 1, 3), n=1,
                  max_out=20, divisible_by=None, indivisible_by=None):
    """Random valid ConvParams. Output extents are chosen first and the
    input extents derived, so the requested output always comes out exactly.
    """
    for _ in range(1000):
        fh, fw = filters[int(rng.integers(len(filters)))]
        s = int(rng.choice(strides))
        d = int(rng.choice(dils))
        pad = int(rng.choice(pads))
        oh = int(rng.integers(1, max_out + 1))
        ow = int(rng.integers(1, max_out + 1))
        if divisible_by and (oh * ow) % divisible_by:
            continue
        if indivisible_by and (oh * ow) % indivisible_by == 0:
            continue
        ih = (oh - 1) * s + d * (fh - 1) + 1 - 2 * pad
        iw = (ow - 1) * s + d * (fw - 1) + 1 - 2 * pad
        if ih < 1 or iw < 1:
            continue
        try:
            p = ConvParams(n=n, ic=int(rng.integers(1, max_ic + 1)),
                           ih=ih, iw=iw, oc=int(rng.integers(1, max_oc + 1)),
                           fh=fh, fw=fw, stride_h=s, stride_w=s,
                           dil_h=d, dil_w=d, pad_h=pad, pad_w=pad)
        except ValueError:
            continue
        assert out_shape(p) == (oh, ow)
        return p
    raise RuntimeError("could not generate valid parameters")


def rand_tensors(rng, p: ConvParams):
    x = rng.uniform(-1.0, 1.0, (p.n, p.ic, p.ih, p.iw)).astype(np.float32)
    f = rng.uniform(-1.0, 1.0, (p.oc, p.ic, p.fh, p.fw)).astype(np.float32)
    return x, f


def conv_info(p: ConvParams) -> ConvInfo:
    return ConvInfo.from_params(p)


def plan_at(p: ConvParams, mk: MkInfo, set_tiles, chunk):
    """p's plan run in window sets of set_tiles tiles and chunks of chunk
    channels: the engine's plan under ROOMY_ARCH with its sizes replaced,
    which re-checks them and re-derives the window sets."""
    return replace(plan_convolution(p, ROOMY_ARCH, mk), set_tiles=set_tiles,
                   chunk=chunk)


def brute_force_conv(x, filters, p: ConvParams):
    """Literal seven-deep scalar loop, independent of the library oracle."""
    oh, ow = out_shape(p)
    out = np.zeros((p.n, p.oc, oh, ow), dtype=np.float64)
    for b in range(p.n):
        for o in range(p.oc):
            for r in range(oh):
                for c in range(ow):
                    acc = 0.0
                    for ch in range(p.ic):
                        for i in range(p.fh):
                            hi = r * p.stride_h + i * p.dil_h - p.pad_h
                            if hi < 0 or hi >= p.ih:
                                continue
                            for j in range(p.fw):
                                wi = c * p.stride_w + j * p.dil_w - p.pad_w
                                if wi < 0 or wi >= p.iw:
                                    continue
                                acc += float(x[b, ch, hi, wi]) * float(filters[o, ch, i, j])
                    out[b, o, r, c] = acc
    return out.astype(np.float32)
