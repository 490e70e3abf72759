import tracemalloc

import numpy as np
import pytest

from conftest import (CALIBRATED_ARCH, FIXTURES, brute_force_conv, rand_tensors,
                      random_params)
from rowwise_oracle import rowwise_conv_whole
from slicedconv import (ConvParams, MkInfo, im2col, load_arch, load_suite,
                        naive_conv, out_shape, run_convolution)
from slicedconv.harness import (ENGINE_TOLERANCE, init_tensors,
                                max_relative_error, run_suite)
from slicedconv import reference
from slicedconv.reference import rowwise_conv


def test_all_ones_sum():
    p = ConvParams(n=1, ic=1, ih=3, iw=3, oc=1, fh=3, fw=3)
    x = np.ones((1, 1, 3, 3), dtype=np.float32)
    f = np.ones((1, 1, 3, 3), dtype=np.float32)
    out = naive_conv(x, f, p)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 9.0


def test_identity_filter(rng):
    p = ConvParams(n=1, ic=1, ih=6, iw=7, oc=1, fh=3, fw=3, pad_h=1, pad_w=1)
    x = rng.uniform(-1, 1, (1, 1, 6, 7)).astype(np.float32)
    f = np.zeros((1, 1, 3, 3), dtype=np.float32)
    f[0, 0, 1, 1] = 1.0
    assert np.array_equal(naive_conv(x, f, p), x)


def test_matches_independent_brute_force(rng):
    p = ConvParams(n=2, ic=4, ih=6, iw=6, oc=3, fh=3, fw=3,
                   stride_h=2, stride_w=2)
    x, f = rand_tensors(rng, p)
    got = naive_conv(x, f, p)
    want = brute_force_conv(x, f, p)
    assert np.allclose(got, want, rtol=1e-6, atol=1e-7)


def test_brute_force_randomized(rng):
    for _ in range(5):
        p = random_params(rng, max_ic=4, max_oc=4, max_out=5)
        x, f = rand_tensors(rng, p)
        assert np.allclose(naive_conv(x, f, p), brute_force_conv(x, f, p),
                           rtol=1e-6, atol=1e-7)


def test_im2col_pointwise_is_flattened_input(rng):
    p = ConvParams(n=1, ic=3, ih=5, iw=4, oc=2, fh=1, fw=1)
    x = rng.uniform(-1, 1, (1, 3, 5, 4)).astype(np.float32)
    m = im2col(x, p)
    assert m.shape == (3, 20)
    assert np.array_equal(m, x[0].reshape(3, 20))


def test_im2col_gemm_identity(rng):
    for _ in range(10):
        p = random_params(rng, max_ic=6, max_oc=10, max_out=9)
        x, f = rand_tensors(rng, p)
        m = im2col(x, p)
        gemm = (f.reshape(p.oc, -1).astype(np.float64)
                @ m.astype(np.float64)).astype(np.float32)
        ref = naive_conv(x, f, p).reshape(p.oc, -1)
        assert np.allclose(gemm, ref, rtol=1e-5, atol=1e-6)


def test_im2col_dilation_hand_index(rng):
    p = ConvParams(n=1, ic=1, ih=7, iw=7, oc=1, fh=3, fw=3, dil_h=2, dil_w=2)
    x = rng.uniform(-1, 1, (1, 1, 7, 7)).astype(np.float32)
    m = im2col(x, p)
    # window 4 of the 3x3 output sits at (row 1, col 1); filter tap (2, 1)
    # reads input element (1 + 2*2, 1 + 1*2) = (5, 3)
    k = (0 * 3 + 2) * 3 + 1
    assert m[k, 4] == x[0, 0, 5, 3]


def test_im2col_padding_zeros():
    p = ConvParams(n=1, ic=1, ih=3, iw=3, oc=1, fh=3, fw=3, pad_h=1, pad_w=1)
    x = np.ones((1, 1, 3, 3), dtype=np.float32)
    m = im2col(x, p)
    # window 0 (top-left) reads the padded corner at tap (0, 0)
    assert m[0, 0] == 0.0
    assert m[4, 0] == 1.0  # center tap hits the real input


def _per_axis_params(rng, n=2, max_out=12):
    """Random ConvParams whose stride, dilation and padding differ per axis."""
    while True:
        fh, fw = (int(v) for v in rng.integers(1, 8, 2))
        sh, sw = (int(v) for v in rng.integers(1, 4, 2))
        dh, dw = (int(v) for v in rng.integers(1, 3, 2))
        ph, pw = (int(v) for v in rng.choice((0, 1, 3), 2))
        oh, ow = (int(v) for v in rng.integers(1, max_out + 1, 2))
        ih = (oh - 1) * sh + dh * (fh - 1) + 1 - 2 * ph
        iw = (ow - 1) * sw + dw * (fw - 1) + 1 - 2 * pw
        try:
            return ConvParams(n=n, ic=int(rng.integers(1, 9)), ih=ih, iw=iw,
                              oc=int(rng.integers(1, 17)), fh=fh, fw=fw,
                              stride_h=sh, stride_w=sw, dil_h=dh, dil_w=dw,
                              pad_h=ph, pad_w=pw)
        except ValueError:
            continue


def test_rowwise_matches_naive_oracle(rng):
    configs = [_per_axis_params(rng) for _ in range(30)]
    configs += [random_params(rng, max_ic=8, max_oc=16, max_out=12, n=2)
                for _ in range(10)]
    for h, w in (("stride_h", "stride_w"), ("dil_h", "dil_w"),
                 ("pad_h", "pad_w"), ("fh", "fw")):
        assert any(getattr(p, h) != getattr(p, w) for p in configs)
    for p in configs:
        x, f = rand_tensors(rng, p)
        got = rowwise_conv(x, f, p)
        assert got.dtype == np.float32
        assert got.shape == (p.n, p.oc, *out_shape(p))
        assert max_relative_error(got, naive_conv(x, f, p)) <= 1e-6, p
    # an input of the right shape in a permuted memory layout
    p = ConvParams(n=2, ic=3, ih=5, iw=6, oc=4, fh=3, fw=3)
    x, f = rand_tensors(rng, p)
    permuted = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
    assert max_relative_error(rowwise_conv(permuted, f, p),
                              naive_conv(x, f, p)) <= 1e-6


def _blocks(p: ConvParams) -> int:
    return reference._filter_blocks(p.oc, p.ic * p.fh * p.fw)


def _assert_bitwise_whole(x, f, p):
    got = rowwise_conv(x, f, p)
    want = rowwise_conv_whole(x, f, p)
    assert got.tobytes() == want.tobytes(), p


def test_filter_blocks_are_the_fewest_and_near_equal():
    for oc in range(1, 70):
        for k in (1, 9, 4608, 40000, 50000, 90000, 140000):
            blocks = reference._filter_blocks(oc, k)
            rows = max(1, reference._FILTER_BLOCK_BYTES // (8 * k))
            # The bounds rowwise_conv splits the channels at.
            bounds = [j * oc // blocks for j in range(blocks + 1)]
            sizes = [b - a for a, b in zip(bounds, bounds[1:])]
            assert max(sizes) == -(-oc // blocks) <= rows
            assert max(sizes) - min(sizes) <= 1
            assert blocks == 1 or oc > rows * (blocks - 1)  # the fewest
            if rows >= 3 and oc > 1:  # no lone channel, which is a gemv
                assert min(sizes) >= 2, (oc, k, sizes)


def test_rowwise_is_bitwise_the_whole_tensor_oracle_on_fixtures():
    several = set()
    for name in ("smoke.jsonl", "deep.jsonl"):
        cases, errors = load_suite(FIXTURES / name)
        assert not errors
        for idx, case in enumerate(cases):
            for seed in (0, 7):
                _assert_bitwise_whole(*init_tensors(case, seed, idx),
                                      case.params)
            if _blocks(case.params) > 1:
                several.add(case.id)
    # Every smoke layer is one float64 filter block; four deep layers span
    # several.
    assert several == {"conv4_3x3_256_14", "conv5_3x3_512_7",
                       "conv5_batch_2", "pointwise_256_1024_14"}


def test_rowwise_filter_blocks_are_bitwise_the_whole_tensor_oracle(
        rng, monkeypatch):
    # Layers whose filters span several float64 blocks of unequal sizes, at
    # the library's block size.
    layers = 0
    while layers < 12:
        p = random_params(rng, max_ic=160, max_oc=400, max_out=8,
                          n=1 + layers % 2)
        blocks = _blocks(p)
        if blocks == 1 or p.oc % blocks == 0:
            continue
        _assert_bitwise_whole(*rand_tensors(rng, p), p)
        layers += 1
    # Blocks of two to five filters, in an input of a permuted layout too.
    for _ in range(20):
        p = random_params(rng, max_ic=8, max_oc=16, max_out=12, n=2)
        k = p.ic * p.fh * p.fw
        monkeypatch.setattr(reference, "_FILTER_BLOCK_BYTES",
                            8 * k * int(rng.integers(3, 6)))
        x, f = rand_tensors(rng, p)
        _assert_bitwise_whole(x, f, p)
        permuted = np.ascontiguousarray(
            x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
        _assert_bitwise_whole(permuted, f, p)


def test_rowwise_row_bands_are_bitwise_the_whole_tensor_oracle(
        rng, monkeypatch):
    # 11 output rows of 8 windows at K = 36: a row's float64 windows are
    # 2,304 B, so the 8 KiB band holds 3 rows, and each image runs in
    # bands of 3, 3, 3 and 2 rows; then bands of 4, 4 and 3, of one row,
    # and one band of the whole image, all bitwise the per-row oracle.
    p = ConvParams(n=2, ic=4, ih=13, iw=10, oc=6, fh=3, fw=3)
    row_bytes = 8 * p.ic * p.fh * p.fw * out_shape(p)[1]
    assert out_shape(p) == (11, 8)
    assert reference._BAND_BYTES // row_bytes == 3
    x, f = rand_tensors(rng, p)
    _assert_bitwise_whole(x, f, p)
    for rows in (4, 1, 11):
        monkeypatch.setattr(reference, "_BAND_BYTES", rows * row_bytes)
        _assert_bitwise_whole(x, f, p)


def test_rowwise_and_error_check_hold_no_float64_filter_tensor():
    # The deep 512-channel layer's filters are 9.4 MB in float32 and twice
    # that in float64; the reference and the error check together peak
    # below even the float32 size.
    cases, _ = load_suite(FIXTURES / "deep.jsonl")
    idx = [c.id for c in cases].index("conv5_3x3_512_7")
    p = cases[idx].params
    x, f = init_tensors(cases[idx], 0, idx)
    got = rowwise_conv(x, f, p)
    tracemalloc.start()
    try:
        assert max_relative_error(got, rowwise_conv(x, f, p)) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.nbytes, peak


@pytest.mark.parametrize("bad", ["input", "filter"])
def test_rowwise_rejects_mismatched_shapes(rng, bad):
    # and so do the naive oracle and the engine, whose executor names the
    # tensor as its argument does
    p = ConvParams(n=1, ic=2, ih=5, iw=5, oc=3, fh=3, fw=3)
    x, f = rand_tensors(rng, p)
    if bad == "input":
        x = x[:, :1]
    else:
        f = f[:, :, :2]
    for conv, match in (
            (rowwise_conv, f"{bad} shape"), (naive_conv, f"{bad} shape"),
            (lambda x, f, p: run_convolution(x, f, p, CALIBRATED_ARCH,
                                             MkInfo(n_win=4, n_f=4)),
             "x has shape" if bad == "input" else "filters has shape")):
        with pytest.raises(ValueError, match=match):
            conv(x, f, p)


def test_im2col_rejects_a_batch(rng):
    p = ConvParams(n=2, ic=2, ih=5, iw=5, oc=3, fh=3, fw=3)
    x, _ = rand_tensors(rng, p)
    with pytest.raises(ValueError, match="single-batch"):
        im2col(x, p)


def test_run_suite_verdicts_match_naive_oracle():
    cases, errors = load_suite(FIXTURES / "smoke.jsonl")
    assert not errors
    arch, mk = load_arch(FIXTURES / "intel.toml"), MkInfo(n_win=16, n_f=8)
    reports, _ = run_suite(cases, arch, mk, seed=4, verify_only=True)
    for idx, (case, report) in enumerate(zip(cases, reports)):
        x, f = init_tensors(case, 4, idx)
        out, _ = run_convolution(x, f, case.params, arch, mk)
        want = max_relative_error(out, naive_conv(x, f, case.params))
        assert report.correct == (want <= ENGINE_TOLERANCE)
        assert report.max_rel_err == pytest.approx(want, rel=1e-6)
