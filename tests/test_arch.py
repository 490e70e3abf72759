import numpy as np
import pytest

from conftest import FIXTURES
from slicedconv import ArchInfo, ConvInfo, ConvParams, MkInfo, load_arch, load_mk
from slicedconv.arch import parse_arch_text
from slicedconv.cli import main


def test_load_intel_fixture():
    arch = load_arch(FIXTURES / "intel.toml")
    assert arch.l1_bytes == 49152
    assert arch.l2_bytes == 524288
    assert arch.l3_bytes == 16777216
    assert arch.cache_line_bytes == 64


def test_empty_file_defaults(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("")
    arch = load_arch(f)
    assert arch.l1_bytes == 32 * 1024
    assert arch.l2_bytes == 1024 * 1024
    assert arch.l3_bytes == 0
    assert arch.cache_line_bytes == 64


def test_l1_exceeding_l2_rejected(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("l1_kib = 2048\nl2_kib = 512\n")
    with pytest.raises(ValueError):
        load_arch(f)


@pytest.mark.parametrize("text", [
    "l1_kib",                 # no value
    "mystery = 12",           # unknown key
    "l1_kib = lots",          # not an integer
])
def test_parse_errors(text):
    with pytest.raises(ValueError):
        parse_arch_text(text)


def test_comments_and_blanks():
    vals = parse_arch_text("# header\n\nl1_kib = 48  # inline\n")
    assert vals == {"l1_kib": 48}


def test_load_mk_from_file_and_override():
    # calibrated.toml also sets vector_bits, which is accepted and
    # integer-checked but describes no part of the microkernel shape
    mk = load_mk(FIXTURES / "calibrated.toml")
    assert mk == MkInfo(n_win=16, n_f=8)
    with pytest.raises(ValueError, match="vector_bits"):
        parse_arch_text("vector_bits = wide\n")
    mk = load_mk(FIXTURES / "calibrated.toml", n_win=4, n_f=4)
    assert (mk.n_win, mk.n_f) == (4, 4)


def test_load_mk_missing(tmp_path):
    f = tmp_path / "arch.txt"
    f.write_text("l1_kib = 32\n")
    with pytest.raises(ValueError):
        load_mk(f)


def test_descriptor_invariants():
    with pytest.raises(ValueError):
        ArchInfo(l1_bytes=4096, l2_bytes=2048)
    with pytest.raises(ValueError):
        ArchInfo(l1_bytes=1024, l2_bytes=2048, cache_line_bytes=3)
    with pytest.raises(ValueError):
        MkInfo(n_win=0, n_f=8)
    info = ConvInfo(ConvParams(n=1, ic=1, ih=5, iw=7, oc=1, fh=3, fw=3))
    assert info.ohw == info.oh * info.ow == 15


@pytest.mark.parametrize("kw, match", [
    ({"l1_bytes": 0}, "L1 and L2"), ({"l1_bytes": -1}, "L1 and L2"),
    ({"l2_bytes": 0}, "L1 and L2"), ({"l3_bytes": -1}, "L3"),
])
def test_arch_rejects_non_positive_cache_sizes(kw, match):
    # L1 and L2 must hold something; L3 may be 0, which means absent
    with pytest.raises(ValueError, match=match):
        ArchInfo(**{"l1_bytes": 49152, "l2_bytes": 524288, **kw})


@pytest.mark.parametrize("kw", [
    {"l1_bytes": 49152.5}, {"l2_bytes": 524288.0}, {"l3_bytes": 0.0},
    {"cache_line_bytes": True}, {"l1_bytes": "49152"},
])
def test_arch_fields_must_be_integers(kw):
    # a float or bool would otherwise surface later, inside analyze
    fields = {"l1_bytes": 49152, "l2_bytes": 524288, **kw}
    with pytest.raises(TypeError, match=next(iter(kw))):
        ArchInfo(**fields)


@pytest.mark.parametrize("n_win,n_f", [(16.0, 8), (16, 8.0), (True, 8),
                                       (16, False), ("16", 8)])
def test_mk_fields_must_be_integers(n_win, n_f):
    with pytest.raises(TypeError, match="must be an integer"):
        MkInfo(n_win, n_f)


def test_numpy_integer_fields_are_accepted():
    assert MkInfo(np.int64(16), np.int32(8)).n_f == 8
    assert ArchInfo(l1_bytes=np.int64(1024), l2_bytes=2048).l1_bytes == 1024


def test_repeated_key_names_both_lines(tmp_path, capsys):
    text = "l1_kib = 32\nl2_kib = 512\n# later\nl1_kib = 48\n"
    with pytest.raises(ValueError, match=r"line 4: key 'l1_kib' repeats line 1"):
        parse_arch_text(text)
    f = tmp_path / "twice.toml"
    f.write_text(text + "n_win = 16\nn_f = 8\n")
    rc = main(["run", "--suite", str(FIXTURES / "smoke.jsonl"),
               "--arch", str(f), "--verify-only"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 4"), captured.err
    assert captured.out == ""
