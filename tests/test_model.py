import numpy as np
import pytest

from conftest import random_params
from slicedconv import ConvParams, out_shape, pad_input


def test_out_shape_basic():
    p = ConvParams(n=1, ic=1, ih=5, iw=5, oc=1, fh=3, fw=3)
    assert out_shape(p) == (3, 3)


def test_out_shape_pointwise_identity():
    p = ConvParams(n=1, ic=2, ih=9, iw=7, oc=3, fh=1, fw=1)
    assert out_shape(p) == (9, 7)


def test_out_shape_strided():
    p = ConvParams(n=1, ic=1, ih=7, iw=7, oc=1, fh=3, fw=3, stride_h=2, stride_w=2)
    assert out_shape(p)[0] == 3


def test_params_reject_empty_output():
    with pytest.raises(ValueError):
        ConvParams(n=1, ic=1, ih=2, iw=5, oc=1, fh=3, fw=3)
    with pytest.raises(ValueError):
        ConvParams(n=1, ic=1, ih=5, iw=5, oc=1, fh=3, fw=3, dil_h=3)
    with pytest.raises(ValueError):
        ConvParams(n=1, ic=0, ih=5, iw=5, oc=1, fh=1, fw=1)
    with pytest.raises(ValueError):
        ConvParams(n=1, ic=1, ih=5, iw=5, oc=1, fh=1, fw=1, pad_h=-1)


def test_out_shape_monotonicity(rng):
    for _ in range(50):
        p = random_params(rng)
        oh, ow = out_shape(p)
        try:
            wider = ConvParams(**{**p.__dict__, "stride_h": p.stride_h + 1,
                                  "stride_w": p.stride_w + 1})
        except ValueError:
            wider = None
        if wider is not None:
            oh2, ow2 = out_shape(wider)
            assert oh2 <= oh and ow2 <= ow
        padded = ConvParams(**{**p.__dict__, "pad_h": p.pad_h + 1,
                               "pad_w": p.pad_w + 1})
        oh3, ow3 = out_shape(padded)
        assert oh3 >= oh and ow3 >= ow


def test_pad_input_identity():
    p = ConvParams(n=1, ic=2, ih=4, iw=4, oc=1, fh=3, fw=3)
    t = np.arange(32, dtype=np.float32).reshape(1, 2, 4, 4)
    assert pad_input(t, p) is t


def test_pad_input_border():
    p = ConvParams(n=1, ic=1, ih=2, iw=2, oc=1, fh=3, fw=3, pad_h=1, pad_w=1)
    t = np.ones((1, 1, 2, 2), dtype=np.float32)
    padded = pad_input(t, p)
    assert padded.shape == (1, 1, 4, 4)
    assert np.all(padded[0, 0, 1:3, 1:3] == 1)
    assert padded.sum() == t.sum()
    border = padded.copy()
    border[0, 0, 1:3, 1:3] = 0
    assert np.all(border == 0)


def test_pad_preserves_sum(rng):
    for _ in range(10):
        p = random_params(rng, pads=(1, 3))
        t = rng.uniform(-1, 1, (p.n, p.ic, p.ih, p.iw)).astype(np.float32)
        assert np.isclose(pad_input(t, p).sum(), t.sum(), rtol=1e-5)


@pytest.mark.parametrize("field,value", [("ic", 2.5), ("ic", True),
                                         ("stride_w", 2.0), ("pad_h", False)])
def test_params_reject_non_integer_fields(field, value):
    kw = dict(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3)
    kw[field] = value
    with pytest.raises(TypeError, match=field):
        ConvParams(**kw)
