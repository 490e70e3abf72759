import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (FILTER_SHAPES, GOLDEN, REF_MK, REF_PARAMS, conv_info,
                      random_params)
from packing_oracle import (dump_packed, filter_pack_index,
                            input_pack_index_general, input_pack_index_simple)
from slicedconv import (ConvParams, KernelRegion, MkInfo, RegionKind, im2col,
                        pack_filter, pack_input, pad_input)


def row_break_free(ts, windows, ow):
    """True when windows [ts, ts+windows) all lie in one output row."""
    return ts % ow + windows <= ow


def full_region(conv):
    return KernelRegion(spatial_start=0, spatial_len=conv.ohw,
                        oc_start=0, oc_len=conv.params.oc,
                        ic_start=0, ic_len=conv.params.ic,
                        kind=RegionKind.Main, e_off=0)


def test_filter_pack_index_examples():
    mk = MkInfo(n_win=16, n_f=8)
    assert filter_pack_index(0, 0, 0, 0, 0, mk) == (0, 0, 0, 0)
    assert filter_pack_index(5, 1, 2, 3, 2, mk) == (19, 5, 1, 2)
    # single-tile multipack is the plain pack for every index
    for i_nf in range(8):
        assert filter_pack_index(0, 0, 0, i_nf, 0, mk)[0] == i_nf


def test_pack_filter_reference_shape(rng):
    conv = conv_info(REF_PARAMS)
    flt = rng.uniform(-1, 1, (256, 32, 3, 3)).astype(np.float32)
    m = pack_filter(flt, full_region(conv), REF_MK, nt=1, nc=32)
    assert m.shape == (8, 288)
    assert np.isclose(m.sum(), flt[:8].sum(), rtol=1e-5)


def test_pack_filter_is_permutation():
    # unique source values: packed buffer must be an exact rearrangement
    flt = np.arange(16 * 4 * 3 * 3, dtype=np.float32).reshape(16, 4, 3, 3)
    conv = conv_info(ConvParams(n=1, ic=4, ih=9, iw=9, oc=16, fh=3, fw=3))
    m = pack_filter(flt, full_region(conv), MkInfo(n_win=4, n_f=8), nt=2, nc=4)
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
    conv = conv_info(ConvParams(n=1, ic=1, ih=4, iw=4, oc=1, fh=1, fw=1))
    m = pack_filter(flt, full_region(conv), MkInfo(n_win=4, n_f=1), nt=1, nc=1)
    assert m.ravel().tolist() == [3.5]


def test_pack_filter_range_overflow():
    # Only the region's last tile may be short: a tile that starts at or
    # past the region's end is refused. oc = 8 is one tile of 8; oc = 13
    # is three tiles of 4 and a 1-filter last tile, and its first 10
    # filters are two tiles of 4 and a 2-filter one.
    for oc, oc_len, n_f, f_tile, nt in ((8, 8, 8, 0, 2), (8, 8, 8, 1, 1),
                                        (13, 13, 4, 0, 5), (13, 13, 4, 3, 2),
                                        (13, 13, 4, 4, 1), (13, 10, 4, 3, 1)):
        conv = conv_info(ConvParams(n=1, ic=2, ih=8, iw=8, oc=oc, fh=3, fw=3))
        flt = np.zeros((oc, 2, 3, 3), dtype=np.float32)
        region = replace(full_region(conv), oc_len=oc_len)
        with pytest.raises(IndexError):
            pack_filter(flt, region, MkInfo(n_win=4, n_f=n_f), nt=nt, nc=2,
                        f_tile_start=f_tile)


def test_input_pack_index_simple_examples():
    p = ConvParams(n=1, ic=1, ih=20, iw=20, oc=1, fh=3, fw=3)
    assert input_pack_index_simple(0, 0, 0, p, tile_w=18) == 0
    assert input_pack_index_simple(1, 2, 5, p, tile_w=18) == 25
    strided = ConvParams(n=1, ic=1, ih=20, iw=20, oc=1, fh=3, fw=3,
                         stride_h=2, stride_w=2)
    assert input_pack_index_simple(0, 0, 3, strided, tile_w=18) == 6


def test_input_pack_index_general_reduces_to_simple():
    p = ConvParams(n=1, ic=1, ih=20, iw=20, oc=1, fh=3, fw=3)
    conv = conv_info(p)
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
    conv = conv_info(REF_PARAMS)
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
    conv = conv_info(REF_PARAMS)
    for i_nwin in (0, 3, 15):
        for i_fh, i_fw in ((0, 0), (1, 2)):
            multi = input_pack_index_general(0, 0, i_nwin, i_fh, i_fw, 1, 0,
                                             conv, 77, n_win=16)
            flat = input_pack_index_general(0, 0, 16 + i_nwin, i_fh, i_fw, 0, 0,
                                            conv, 77, n_win=16)
            assert multi == flat


def test_pack_input_reference_shape(rng):
    conv = conv_info(REF_PARAMS)
    x = rng.uniform(-1, 1, (1, 32, 77, 77)).astype(np.float32)
    m = pack_input(x, conv, full_region(conv), (0, 0), REF_MK, nt=1, nc=32)
    assert m.shape == (288, 16)


def test_pack_input_pointwise_is_contiguous_copy(rng):
    p = ConvParams(n=1, ic=3, ih=6, iw=8, oc=4, fh=1, fw=1)
    conv = conv_info(p)
    x = rng.uniform(-1, 1, (1, 3, 6, 8)).astype(np.float32)
    mk = MkInfo(n_win=8, n_f=4)
    ts = 12
    m = pack_input(x, conv, full_region(conv), (ts, 0), mk, nt=1, nc=3)
    flat = x[0].reshape(3, -1)
    assert np.array_equal(m, flat[:, ts:ts + 8])


def _assert_columns_match_im2col(x, p, mk, ts, nt, nc, ic_off=0):
    """Packed column w must equal the im2col column of window ts + w, bitwise."""
    conv = conv_info(p.padded())
    xp = pad_input(x, p)
    region = full_region(conv)
    m = pack_input(xp, conv, region, (ts, 0), mk, nt=nt, nc=nc,
                   ic_off=ic_off)
    ref = im2col(x, p)
    kk = p.fh * p.fw
    rows = slice(ic_off * kk, (ic_off + nc) * kk)
    for w in range(nt * mk.n_win):
        assert np.array_equal(m[:, w], ref[rows, ts + w])


def test_pack_input_matches_im2col_randomized(rng):
    for _ in range(25):
        p = random_params(rng, max_ic=8, max_oc=8, max_out=12)
        conv = conv_info(p.padded())
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
    conv = conv_info(p)
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
        conv = conv_info(p.padded())
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
        m = pack_input(pad_input(x, p), conv, full_region(conv), (ts, 0),
                       mk, nt=nt, nc=nc, batch=1, ic_off=ic_off, out=out)
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
    conv = conv_info(p.padded())
    x, _ = _tensors(rng, p)
    xp = pad_input(x, p)
    out = np.empty((3 * 7 * 7, 20 * REF_MK.n_win), np.float32)
    args = (xp, conv, full_region(conv), (37, 0), REF_MK)
    pack_input(*args, nt=20, nc=3, out=out)  # warm-up
    tracemalloc.start()
    try:
        pack_input(*args, nt=20, nc=3, out=out)
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
    conv = conv_info(p.padded())
    assert (conv.oh, conv.ow) == (oh, ow)
    mk = MkInfo(n_win=n_win, n_f=4)
    x, _ = _tensors(rng, p)
    xp, region = pad_input(x, p), full_region(conv)
    nc, ic_off, kk = 2, 1, p.fh * p.fw
    want = im2col(x[1:2], p)[ic_off * kk:(ic_off + nc) * kk,
                             ts:ts + nt * n_win]
    big = np.full((nc * kk, nt * n_win + 5), np.nan, np.float32)
    out = big[:, 3:3 + nt * n_win]
    for given in (None, out, np.empty(want.shape, np.float32, order="F")):
        got = pack_input(xp, conv, region, (ts, 0), mk, nt=nt, nc=nc,
                         batch=1, ic_off=ic_off, out=given)
        assert given is None or got is given
        assert np.array_equal(got, want)
    assert np.isnan(big[:, :3]).all() and np.isnan(big[:, -2:]).all()


def _assert_outs_refused(rng, shapes):
    # Each out is NaN-filled; pack_input must refuse it with ValueError
    # before writing any element. The packed input matrix is K = 2*3*3 = 18
    # by 12 windows.
    p = ConvParams(n=1, ic=2, ih=9, iw=9, oc=8, fh=3, fw=3)
    conv = conv_info(p)
    x, _ = _tensors(rng, p)
    mk = MkInfo(n_win=4, n_f=4)
    region = full_region(conv)
    for shape in shapes:
        out = np.full(shape, np.nan, np.float32)
        with pytest.raises(ValueError, match="not \\(18, 12\\)"):
            pack_input(x, conv, region, (5, 0), mk, nt=3, nc=2, out=out)
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
    # The packed filter matrix is the (filters, K) block of the FCHW tensor
    # viewed as (oc, ic*fh*fw), bitwise, whichever tiles and channels the
    # region and offsets select, and a read-only view of the filters. In
    # odd rounds oc is short of whole tiles, and the block runs to the
    # partial last tile, (oc - f0, K).
    for i in range(20):
        fh, fw = FILTER_SHAPES[int(rng.integers(len(FILTER_SHAPES)))]
        oc, ic, n_f = (int(v) for v in rng.integers(1, 9, 3))
        n_f += i % 2  # at least 2, so that a tile can be short
        short = int(rng.integers(1, n_f)) if i % 2 else 0
        p = ConvParams(n=1, ic=ic, ih=fh + 2, iw=fw + 2, oc=oc * n_f - short,
                       fh=fh, fw=fw)
        conv = conv_info(p)
        _, flt = _tensors(rng, p)
        mk = MkInfo(n_win=4, n_f=n_f)
        f_tile = int(rng.integers(0, oc))
        nt = oc - f_tile if short else int(rng.integers(1, oc - f_tile + 1))
        ic_off = int(rng.integers(0, ic))
        nc = int(rng.integers(1, ic - ic_off + 1))
        kk = fh * fw
        want = flt.reshape(p.oc, -1)[f_tile * n_f:(f_tile + nt) * n_f,
                                     ic_off * kk:(ic_off + nc) * kk]
        assert len(want) == (p.oc - f_tile * n_f if short else nt * n_f)
        view = pack_filter(flt, full_region(conv), mk, nt=nt, nc=nc,
                           f_tile_start=f_tile, ic_off=ic_off)
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
    conv = conv_info(p)
    big = np.full((1, 2, 10, 10), np.nan, np.float32)
    big[:, :, :9, :9] = 1.0
    x = big[:, :, :8, :9] if short == "row" else big[:, :, :9, :8]
    region, mk = full_region(conv), MkInfo(n_win=4, n_f=4)
    for ts in (0, conv.ohw - mk.n_win):
        with pytest.raises(IndexError, match="does not hold"):
            pack_input(x, conv, region, (ts, 0), mk, nt=1, nc=2)
    ok = pack_input(big[:, :, :9, :9], conv, region, (0, 0), mk, nt=4, nc=2)
    assert (ok == 1.0).all()


def test_multipack_equals_concatenated_singles(rng):
    for _ in range(10):
        p = random_params(rng, max_ic=6, max_oc=32, max_out=12, pads=(0,))
        conv = conv_info(p)
        mk = MkInfo(n_win=4, n_f=4)
        wtiles = conv.ohw // mk.n_win
        ftiles = conv.params.oc // mk.n_f
        x, flt = _tensors(rng, p)
        region = full_region(conv)
        if wtiles >= 2:
            k = int(rng.integers(2, wtiles + 1))
            group = pack_input(x, conv, region, (0, 0), mk, nt=k, nc=p.ic)
            singles = [pack_input(x, conv, region, (0, t * mk.n_win), mk, nt=1,
                                  nc=p.ic)
                       for t in range(k)]
            assert np.array_equal(group, np.concatenate(singles, axis=1))
        if ftiles >= 2:
            k = int(rng.integers(2, ftiles + 1))
            group = pack_filter(flt, region, mk, nt=k, nc=p.ic)
            singles = [pack_filter(flt, region, mk, nt=1, nc=p.ic,
                                   f_tile_start=t)
                       for t in range(k)]
            assert np.array_equal(group, np.concatenate(singles))


def test_edge_pack_equals_shifted_steady_state(rng):
    # packing at region offset e_off equals packing window e_off of the
    # full tensor: both must reproduce the same im2col columns
    p = ConvParams(n=1, ic=3, ih=11, iw=11, oc=4, fh=3, fw=3)
    conv = conv_info(p)
    x, _ = _tensors(rng, p)
    mk = MkInfo(n_win=8, n_f=4)
    e_off = 48
    region = KernelRegion(spatial_start=e_off, spatial_len=conv.ohw - e_off,
                          oc_start=0, oc_len=4, ic_start=0, ic_len=3,
                          kind=RegionKind.Main, e_off=e_off)
    via_region = pack_input(x, conv, region, (0, 0), mk, nt=1, nc=3)
    via_offset = pack_input(x, conv, full_region(conv), (e_off, 0), mk, nt=1,
                            nc=3)
    assert np.array_equal(via_region, via_offset)
    ref = im2col(x, p)
    assert np.array_equal(via_region, ref[:, e_off:e_off + 8])


def test_pack_input_rejects_out_of_domain(rng):
    # Only the region's last tile may be short: a tile that starts at or
    # past the region's end is refused. A 4x4 output is 16 windows; the
    # region [3, 13) is two tiles of 4 and a 2-window last tile.
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    x, _ = _tensors(rng, p)
    inner = KernelRegion(spatial_start=3, spatial_len=10, oc_start=0, oc_len=4,
                         ic_start=0, ic_len=2, kind=RegionKind.Remainder,
                         e_off=3)
    for region, w_off, nt in ((full_region(conv), 16, 1),
                              (full_region(conv), 12, 2),
                              (full_region(conv), 0, 5),
                              (inner, 0, 4), (inner, 8, 2), (inner, 10, 1)):
        with pytest.raises(IndexError):
            pack_input(x, conv, region, (w_off, 0), mk, nt=nt, nc=2)
    # A group that ends inside its last tile returns the short matrix, and
    # its columns are im2col's, bit for bit.
    ref = im2col(x, p)
    for region, w_off, nt, (w0, w1) in ((full_region(conv), 14, 1, (14, 16)),
                                        (inner, 0, 3, (3, 13)),
                                        (inner, 4, 2, (7, 13)),
                                        (inner, 8, 1, (11, 13))):
        got = pack_input(x, conv, region, (w_off, 0), mk, nt=nt, nc=2)
        assert np.array_equal(got, ref[:, w0:w1])
    # An out of the full tiles' shape does not hold a short last tile; it
    # is refused before anything is written.
    out = np.full((18, 8), np.nan, np.float32)
    with pytest.raises(ValueError, match="not \\(18, 6\\)"):
        pack_input(x, conv, inner, (4, 0), mk, nt=2, nc=2, out=out)
    assert np.isnan(out).all()


def test_pack_input_rejects_unpadded_problem(rng):
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3, pad_h=1, pad_w=1)
    conv = conv_info(p)
    x, _ = _tensors(rng, p)
    with pytest.raises(ValueError, match="pre-padded"):
        pack_input(x, conv, full_region(conv), (0, 0), MkInfo(n_win=4, n_f=4),
                   nt=1, nc=2)


def test_dump_packed_golden():
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3)
    conv = conv_info(p)
    gen = np.random.default_rng(42)
    x = np.round(gen.uniform(-4, 4, (1, 2, 6, 6))).astype(np.float32)
    t = pack_input(x, conv, full_region(conv), (0, 0), MkInfo(n_win=4, n_f=4),
                   nt=2, nc=2)
    text = dump_packed(t, "input", 4, (2, 3, 3))
    golden = (GOLDEN / "packed_input_3x3.txt").read_text()
    assert text == golden


def _tensors(rng, p):
    x = rng.uniform(-1, 1, (p.n, p.ic, p.ih, p.iw)).astype(np.float32)
    f = rng.uniform(-1, 1, (p.oc, p.ic, p.fh, p.fw)).astype(np.float32)
    return x, f
