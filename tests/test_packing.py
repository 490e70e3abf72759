import tracemalloc

import numpy as np
import pytest

from conftest import FILTER_SHAPES, GOLDEN, REF_MK, REF_PARAMS, random_params
from packing_oracle import (dump_packed, filter_pack_index,
                            input_pack_index_general, input_pack_index_simple)
from slicedconv import (ConvInfo, ConvParams, MkInfo, im2col, pack_filter,
                        pack_input, pad_input)


def row_break_free(ts, windows, ow):
    """True when windows [ts, ts+windows) all lie in one output row."""
    return ts % ow + windows <= ow


def test_filter_pack_index_examples():
    mk = MkInfo(n_win=16, n_f=8)
    assert filter_pack_index(0, 0, 0, 0, 0, mk) == (0, 0, 0, 0)
    assert filter_pack_index(5, 1, 2, 3, 2, mk) == (19, 5, 1, 2)
    # single-tile multipack is the plain pack for every index
    for i_nf in range(8):
        assert filter_pack_index(0, 0, 0, i_nf, 0, mk)[0] == i_nf


def test_pack_filter_reference_shape(rng):
    flt = rng.uniform(-1, 1, (256, 32, 3, 3)).astype(np.float32)
    m = pack_filter(flt, 0, REF_MK.n_f, 0, 32)
    assert m.shape == (8, 288)
    assert np.isclose(m.sum(), flt[:8].sum(), rtol=1e-5)


def test_pack_filter_is_permutation():
    # unique source values: packed buffer must be an exact rearrangement
    flt = np.arange(16 * 4 * 3 * 3, dtype=np.float32).reshape(16, 4, 3, 3)
    m = pack_filter(flt, 0, 16, 0, 4)
    assert m.size == flt.size
    assert set(m.ravel().tolist()) == set(flt.ravel().tolist())
    # spot-check the gather equation
    mk = MkInfo(n_win=4, n_f=8)
    for (i_nt, i_nc, i_fh, i_fw, i_nf) in ((0, 0, 0, 0, 0), (1, 3, 2, 1, 7),
                                           (1, 0, 1, 2, 3)):
        src = filter_pack_index(i_nc, i_fh, i_fw, i_nf, i_nt, mk)
        assert m[i_nt * 8 + i_nf, (i_nc * 3 + i_fh) * 3 + i_fw] == flt[src]


def test_pack_filter_single_element():
    flt = np.full((1, 1, 1, 1), 3.5, dtype=np.float32)
    m = pack_filter(flt, 0, 1, 0, 1)
    assert m.ravel().tolist() == [3.5]


def test_pack_filter_range_overflow():
    # A filter or channel range that runs past the tensor's end is
    # refused, whether it starts inside or at the end.
    flt = np.zeros((13, 2, 3, 3), dtype=np.float32)
    for f0, nf, c0, nc in ((0, 14, 0, 2), (12, 2, 0, 2), (13, 1, 0, 2),
                           (0, 13, 0, 3), (0, 13, 1, 2), (0, 13, 2, 1)):
        with pytest.raises(IndexError):
            pack_filter(flt, f0, nf, c0, nc)


@pytest.mark.parametrize("packer, kw", [
    ("input", {"batch": -1}),
    ("input", {"w0": -1}),
    ("input", {"c0": -1, "nc": 1}),
    ("input", {"windows": 0}),
    ("input", {"nc": 0}),
    ("filter", {"f0": -1}),
    ("filter", {"c0": -1, "nc": 1}),
    ("filter", {"nf": 0}),
    ("filter", {"nc": 0}),
], ids=["input-batch", "input-window-start", "input-channel-start",
        "input-no-windows", "input-no-channels", "filter-filter-start",
        "filter-channel-start", "filter-no-filters", "filter-no-channels"])
def test_packers_reject_negative_starts_and_empty_ranges(rng, packer, kw):
    # A negative start would index from the end of the tensor and an
    # empty range would return an empty matrix; both are refused with
    # IndexError, and the given out keeps its NaNs.
    p = ConvParams(n=2, ic=3, ih=6, iw=6, oc=8, fh=3, fw=3)
    conv = ConvInfo(p)
    x, flt = _tensors(rng, p)
    out = np.full((27, 4), np.nan, np.float32)
    with pytest.raises(IndexError):
        if packer == "input":
            pack_input(x, conv, **{"w0": 0, "windows": 4, "c0": 0, "nc": 3,
                                   "batch": 1, "out": out, **kw})
        else:
            pack_filter(flt, **{"f0": 0, "nf": 8, "c0": 0, "nc": 3, **kw})
    assert np.isnan(out).all()


def test_input_pack_index_simple_examples():
    p = ConvParams(n=1, ic=1, ih=20, iw=20, oc=1, fh=3, fw=3)
    assert input_pack_index_simple(0, 0, 0, p, tile_w=18) == 0
    assert input_pack_index_simple(1, 2, 5, p, tile_w=18) == 25
    strided = ConvParams(n=1, ic=1, ih=20, iw=20, oc=1, fh=3, fw=3,
                         stride_h=2, stride_w=2)
    assert input_pack_index_simple(0, 0, 3, strided, tile_w=18) == 6


def test_input_pack_index_general_reduces_to_simple():
    p = ConvParams(n=1, ic=1, ih=20, iw=20, oc=1, fh=3, fw=3)
    conv = ConvInfo(p)
    tile_w = 18
    ts = 2  # windows 2..17 stay within output row 0 (ow=18)
    for i_fh in range(3):
        for i_fw in range(3):
            for i_nwin in range(8):
                general = input_pack_index_general(
                    ts, 0, i_nwin, i_fh, i_fw, 0, 0, conv, tile_w, n_win=8)
                assert general == input_pack_index_simple(i_fh, i_fw, i_nwin, p, tile_w)


def test_input_pack_index_general_row_break(rng):
    # windows 70..85 of a 75-wide output: window 80 wraps to row 1, col 5
    conv = ConvInfo(REF_PARAMS)
    idx = input_pack_index_general(70, 0, 10, 0, 0, 0, 0, conv, tile_w=77,
                                   n_win=16)
    assert idx == 12  # it_h=1, it_w=-65 against the 77-wide padded rows
    # cross-check the referenced element against the im2col oracle
    x = rng.uniform(-1, 1, (1, 32, 77, 77)).astype(np.float32)
    col = im2col(x, REF_PARAMS)[:, 80]
    ch = 4
    origin_flat = (70 % 75) * 1  # group origin: row 0, col 70
    rows = x[0, ch].ravel()
    assert rows[origin_flat + idx] == col[ch * 9 + 0]


def test_input_pack_index_multipack_advances_by_tile():
    # tile i_nt of a multipack addresses the window n_win further along,
    # so it must resolve to the same index as a plain pack at that window
    conv = ConvInfo(REF_PARAMS)
    for i_nwin in (0, 3, 15):
        for i_fh, i_fw in ((0, 0), (1, 2)):
            multi = input_pack_index_general(0, 0, i_nwin, i_fh, i_fw, 1, 0,
                                             conv, 77, n_win=16)
            flat = input_pack_index_general(0, 0, 16 + i_nwin, i_fh, i_fw, 0, 0,
                                            conv, 77, n_win=16)
            assert multi == flat


def test_pack_input_reference_shape(rng):
    conv = ConvInfo(REF_PARAMS)
    x = rng.uniform(-1, 1, (1, 32, 77, 77)).astype(np.float32)
    m = pack_input(x, conv, 0, REF_MK.n_win, 0, 32)
    assert m.shape == (288, 16)


def test_pack_input_pointwise_block_is_a_read_only_view(rng):
    # A 1x1 filter at stride 1 reads window w from pixel w of each channel:
    # without out=, the block of channels 1-2 of image 1 is returned as a
    # view of x, not copied. It equals the copy that out= receives, bit for
    # bit, and writing into it raises instead of changing x.
    p = ConvParams(n=2, ic=3, ih=6, iw=8, oc=4, fh=1, fw=1)
    conv = ConvInfo(p)
    x, _ = _tensors(rng, p)
    before = x.tobytes()
    ts = 12
    m = pack_input(x, conv, ts, 8, 1, 2, batch=1)
    assert np.shares_memory(m, x) and not m.flags.writeable
    assert np.array_equal(m, x[1, 1:3].reshape(2, -1)[:, ts:ts + 8])
    buf = np.full((2, 8), np.nan, np.float32)
    copy = pack_input(x, conv, ts, 8, 1, 2, batch=1, out=buf)
    assert copy is buf and copy.tobytes() == np.ascontiguousarray(m).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        m[...] = 0.0
    assert x.tobytes() == before and x.flags.writeable


def test_pack_input_strided_pointwise_block_is_copied(rng):
    # At stride 2 a 1x1 filter skips pixels, so the block is no view of x:
    # pack_input copies it, and its columns are im2col's, bit for bit.
    p = ConvParams(n=1, ic=3, ih=7, iw=9, oc=4, fh=1, fw=1,
                   stride_h=2, stride_w=2)
    conv = ConvInfo(p)
    x, _ = _tensors(rng, p)
    m = pack_input(x, conv, 3, 10, 0, 3)
    assert not np.shares_memory(m, x) and m.flags.writeable
    assert np.array_equal(m, im2col(x, p)[:, 3:13])


def _assert_columns_match_im2col(x, p, mk, ts, nt, nc, ic_off=0):
    """Packed column w must equal the im2col column of window ts + w, bitwise."""
    conv = ConvInfo(p.padded())
    xp = pad_input(x, p)
    m = pack_input(xp, conv, ts, nt * mk.n_win, ic_off, nc)
    ref = im2col(x, p)
    kk = p.fh * p.fw
    rows = slice(ic_off * kk, (ic_off + nc) * kk)
    for w in range(nt * mk.n_win):
        assert np.array_equal(m[:, w], ref[rows, ts + w])


def test_pack_input_matches_im2col_randomized(rng):
    for _ in range(25):
        p = random_params(rng, max_ic=8, max_oc=8, max_out=12)
        conv = ConvInfo(p.padded())
        n_win = int(rng.choice((4, 8)))
        mk = MkInfo(n_win=n_win, n_f=4)
        if conv.ohw < n_win:
            continue
        x, _ = _tensors(rng, p)
        max_ts = conv.ohw - n_win
        ts = int(rng.integers(0, max_ts + 1))
        nc = int(rng.integers(1, p.ic + 1))
        _assert_columns_match_im2col(x, p, mk, ts, nt=1, nc=nc)


def test_pack_input_row_break_route(rng):
    # groups inside one output row and across a row break both agree
    # with the oracle
    p = ConvParams(n=1, ic=2, ih=9, iw=9, oc=4, fh=3, fw=3)
    conv = ConvInfo(p)
    x, _ = _tensors(rng, p)
    mk = MkInfo(n_win=4, n_f=4)
    assert row_break_free(0, 4, conv.ow)
    assert not row_break_free(5, 4, conv.ow)
    _assert_columns_match_im2col(x, p, mk, 0, nt=1, nc=2)
    _assert_columns_match_im2col(x, p, mk, 5, nt=1, nc=2)


@pytest.mark.parametrize("ow", [5, 21])  # below n_win = 8, and 2.6 tiles
@pytest.mark.parametrize("stride, dil", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_multipack_matches_im2col_randomized(rng, ow, stride, dil):
    # Multipacks of nt > 1 tiles from unaligned group starts, for channel
    # block ic_off > 0 of batch 1 of 2, into a slice of a larger buffer. Every group spans more than one output row. Tile i_nt's
    # column w must be im2col's column of window ts + i_nt*n_win + w,
    # bitwise; the buffer around the slice must keep its NaNs.
    mk = MkInfo(n_win=8, n_f=4)
    for _ in range(6):
        fh, fw = FILTER_SHAPES[int(rng.integers(len(FILTER_SHAPES)))]
        pad = int(rng.integers(0, 2))
        oh = int(rng.integers(4, 8))
        p = ConvParams(n=2, ic=int(rng.integers(2, 6)),
                       ih=(oh - 1) * stride + dil * (fh - 1) + 1 - 2 * pad,
                       iw=(ow - 1) * stride + dil * (fw - 1) + 1 - 2 * pad,
                       oc=4, fh=fh, fw=fw, stride_h=stride, stride_w=stride,
                       dil_h=dil, dil_w=dil, pad_h=pad, pad_w=pad)
        conv = ConvInfo(p.padded())
        x, _ = _tensors(rng, p)
        nt = int(rng.integers(2, (conv.ohw - 1) // mk.n_win + 1))
        ts = int(rng.integers(0, conv.ohw - nt * mk.n_win + 1))
        if ts % mk.n_win == 0:
            ts += 1 if ts + nt * mk.n_win < conv.ohw else -1
        ic_off = int(rng.integers(1, p.ic))
        nc = int(rng.integers(1, p.ic - ic_off + 1))
        kk = fh * fw
        big = np.full((nc * kk + 2, nt * mk.n_win + 3), np.nan, np.float32)
        out = big[1:nc * kk + 1, 2:2 + nt * mk.n_win]
        m = pack_input(pad_input(x, p), conv, ts, nt * mk.n_win, ic_off, nc,
                       batch=1, out=out)
        assert m is out
        ref = im2col(x[1:2], p)[ic_off * kk:(ic_off + nc) * kk,
                                ts:ts + nt * mk.n_win]
        assert np.array_equal(out, ref)
        out[:] = np.nan
        assert np.isnan(big).all()


def test_pack_input_allocates_no_gather_temporary(rng):
    # The ResNet-50 stem: 20 tiles from an unaligned start, across three
    # row breaks of the 112-wide output, packed into a given buffer. The
    # strided copies need no temporary of the packed size.
    p = ConvParams(n=1, ic=3, ih=224, iw=224, oc=64, fh=7, fw=7,
                   stride_h=2, stride_w=2, pad_h=3, pad_w=3)
    conv = ConvInfo(p.padded())
    x, _ = _tensors(rng, p)
    xp = pad_input(x, p)
    out = np.empty((3 * 7 * 7, 20 * REF_MK.n_win), np.float32)
    args = (xp, conv, 37, 20 * REF_MK.n_win, 0, 3)
    pack_input(*args, out=out)  # warm-up
    tracemalloc.start()
    try:
        pack_input(*args, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * out.nbytes, peak
    _assert_columns_match_im2col(x, p, REF_MK, 37, nt=20, nc=3)


@pytest.mark.parametrize("oh, ow, n_win, ts, nt", [
    (7, 21, 4, 3, 3),    # inside one output row
    (7, 8, 4, 8, 4),     # whole rows 1-2 only
    (7, 6, 4, 22, 5),    # ends at the last window: no row after it is read
    (7, 7, 4, 5, 4),     # rest of row 0, rows 1-2, start of row 3
    (7, 3, 8, 1, 2),     # ow < n_win: every tile crosses a row break
    (7, 3, 8, 5, 2),     # ow < n_win, ending at the last window
    (7, 4, 4, 2, 3),     # ow == n_win, unaligned
    (7, 4, 4, 4, 6),     # ow == n_win, whole rows to the last window
])
def test_pack_input_row_pieces_match_im2col(rng, oh, ow, n_win, ts, nt):
    # pack_input copies a group as at most three slices: the rest of its
    # first output row, a block of whole rows and the start of its last
    # row. Each case drops some of them; packed into a default buffer, into
    # a column slice of a NaN-filled one and into a Fortran-ordered matrix
    # (so splitting K of out must stay a view whatever its strides), all
    # must equal im2col bitwise, and the NaNs around the slice must stay.
    p = ConvParams(n=2, ic=4, ih=oh + 2, iw=2 * ow - 1, oc=4, fh=3, fw=2,
                   stride_w=2, dil_h=2, pad_h=1, pad_w=1)
    conv = ConvInfo(p.padded())
    assert (conv.oh, conv.ow) == (oh, ow)
    x, _ = _tensors(rng, p)
    xp = pad_input(x, p)
    nc, ic_off, kk = 2, 1, p.fh * p.fw
    want = im2col(x[1:2], p)[ic_off * kk:(ic_off + nc) * kk,
                             ts:ts + nt * n_win]
    big = np.full((nc * kk, nt * n_win + 5), np.nan, np.float32)
    out = big[:, 3:3 + nt * n_win]
    for given in (None, out, np.empty(want.shape, np.float32, order="F")):
        got = pack_input(xp, conv, ts, nt * n_win, ic_off, nc, batch=1,
                         out=given)
        assert given is None or got is given
        assert np.array_equal(got, want)
    assert np.isnan(big[:, :3]).all() and np.isnan(big[:, -2:]).all()


def _assert_outs_refused(rng, shapes):
    # Each out is NaN-filled; pack_input must refuse it with ValueError
    # before writing any element. The packed input matrix is K = 2*3*3 = 18
    # by 12 windows.
    p = ConvParams(n=1, ic=2, ih=9, iw=9, oc=8, fh=3, fw=3)
    conv = ConvInfo(p)
    x, _ = _tensors(rng, p)
    for shape in shapes:
        out = np.full(shape, np.nan, np.float32)
        with pytest.raises(ValueError, match="not \\(18, 12\\)"):
            pack_input(x, conv, 5, 12, 0, 2, out=out)
        assert np.isnan(out).all()


def test_packers_reject_wrong_shape_out(rng):
    # The transposed matrix holds as many elements but is refused.
    _assert_outs_refused(rng, [(12, 18)])


def test_pack_input_rejects_tile_major_out(rng):
    # The old tile-major (nt, nc, fh, fw, n_win) layout, with or without a
    # padded window axis, is not the K-major matrix and is refused.
    _assert_outs_refused(rng, [(3, 2, 3, 3, 4), (3, 2, 3, 3, 5)])


def test_packed_tile_rejects_size_mismatch(rng):
    # An out that holds more or fewer elements than the packed matrix (a
    # wider buffer, the matrix of one tile fewer) is refused.
    _assert_outs_refused(rng, [(18, 13), (18, 8)])


def test_pack_filter_matrix_is_the_filter_block(rng):
    # The packed filter matrix is the (nf, K) block of the FCHW tensor
    # viewed as (oc, ic*fh*fw), bitwise, whichever filters and channels
    # the ranges select, and a read-only view of the filters. In odd
    # rounds the filter range runs to the tensor's last filter.
    for i in range(20):
        fh, fw = FILTER_SHAPES[int(rng.integers(len(FILTER_SHAPES)))]
        oc, ic = (int(v) for v in rng.integers(1, 17, 2))
        p = ConvParams(n=1, ic=ic, ih=fh + 2, iw=fw + 2, oc=oc, fh=fh, fw=fw)
        _, flt = _tensors(rng, p)
        f0 = int(rng.integers(0, oc))
        nf = oc - f0 if i % 2 else int(rng.integers(1, oc - f0 + 1))
        c0 = int(rng.integers(0, ic))
        nc = int(rng.integers(1, ic - c0 + 1))
        kk = fh * fw
        want = flt.reshape(oc, -1)[f0:f0 + nf, c0 * kk:(c0 + nc) * kk]
        view = pack_filter(flt, f0, nf, c0, nc)
        assert np.array_equal(view, want)
        assert view.tobytes() == want.tobytes()
        assert np.shares_memory(view, flt) and not view.flags.writeable
        assert flt.flags.writeable


@pytest.mark.parametrize("short", ["row", "col"])
def test_pack_input_rejects_input_smaller_than_its_view(short):
    # The input is one row or one column short of what the 4x4 output
    # projects. It is a slice of a NaN-bordered buffer, so a strided view
    # that reached past it would read NaNs rather than fail; even the
    # first group, which reads no missing element, must be refused.
    p = ConvParams(n=1, ic=2, ih=9, iw=9, oc=4, fh=3, fw=3,
                   stride_h=2, stride_w=2)
    conv = ConvInfo(p)
    big = np.full((1, 2, 10, 10), np.nan, np.float32)
    big[:, :, :9, :9] = 1.0
    x = big[:, :, :8, :9] if short == "row" else big[:, :, :9, :8]
    for ts in (0, conv.ohw - 4):
        with pytest.raises(IndexError, match="does not hold"):
            pack_input(x, conv, ts, 4, 0, 2)
    ok = pack_input(big[:, :, :9, :9], conv, 0, 16, 0, 2)
    assert (ok == 1.0).all()


def test_multipack_equals_concatenated_singles(rng):
    for _ in range(10):
        p = random_params(rng, max_ic=6, max_oc=32, max_out=12, pads=(0,))
        conv = ConvInfo(p)
        mk = MkInfo(n_win=4, n_f=4)
        wtiles = conv.ohw // mk.n_win
        ftiles = conv.params.oc // mk.n_f
        x, flt = _tensors(rng, p)
        if wtiles >= 2:
            k = int(rng.integers(2, wtiles + 1))
            group = pack_input(x, conv, 0, k * mk.n_win, 0, p.ic)
            singles = [pack_input(x, conv, t * mk.n_win, mk.n_win, 0, p.ic)
                       for t in range(k)]
            assert np.array_equal(group, np.concatenate(singles, axis=1))
        if ftiles >= 2:
            k = int(rng.integers(2, ftiles + 1))
            group = pack_filter(flt, 0, k * mk.n_f, 0, p.ic)
            singles = [pack_filter(flt, t * mk.n_f, mk.n_f, 0, p.ic)
                       for t in range(k)]
            assert np.array_equal(group, np.concatenate(singles))


def test_pack_input_rejects_out_of_domain(rng):
    # A window range must lie in the layer's windows: a 4x4 output is 16
    # windows, and a range that runs past window 16 is refused.
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3)
    conv = ConvInfo(p)
    x, _ = _tensors(rng, p)
    for w0, windows in ((16, 1), (12, 8), (0, 20), (15, 2), (0, 17)):
        with pytest.raises(IndexError):
            pack_input(x, conv, w0, windows, 0, 2)
    # A range that is no whole number of 4-window tiles returns all its
    # windows, and its columns are im2col's, bit for bit.
    ref = im2col(x, p)
    for w0, windows in ((14, 2), (3, 10), (7, 6), (11, 2), (0, 16)):
        got = pack_input(x, conv, w0, windows, 0, 2)
        assert np.array_equal(got, ref[:, w0:w0 + windows])
    # An out of two whole tiles' shape does not hold 6 windows; it is
    # refused before anything is written.
    out = np.full((18, 8), np.nan, np.float32)
    with pytest.raises(ValueError, match="not \\(18, 6\\)"):
        pack_input(x, conv, 7, 6, 0, 2, out=out)
    assert np.isnan(out).all()


def test_pack_input_rejects_unpadded_problem(rng):
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3, pad_h=1, pad_w=1)
    conv = ConvInfo(p)
    x, _ = _tensors(rng, p)
    with pytest.raises(ValueError, match="pre-padded"):
        pack_input(x, conv, 0, 4, 0, 2)


def test_dump_packed_golden():
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3)
    conv = ConvInfo(p)
    gen = np.random.default_rng(42)
    x = np.round(gen.uniform(-4, 4, (1, 2, 6, 6))).astype(np.float32)
    t = pack_input(x, conv, 0, 8, 0, 2)
    text = dump_packed(t, "input", 4, (2, 3, 3))
    golden = (GOLDEN / "packed_input_3x3.txt").read_text()
    assert text == golden


def _tensors(rng, p):
    x = rng.uniform(-1, 1, (p.n, p.ic, p.ih, p.iw)).astype(np.float32)
    f = rng.uniform(-1, 1, (p.oc, p.ic, p.fh, p.fw)).astype(np.float32)
    return x, f
