"""The package's records: frozen value types built without generated code.

Each record is a dataclass declared with init=False, repr=False and
eq=False on model.Record, with an __init__ of its own. These tests pin
what the frozen dataclasses they replace gave: the same repr strings,
equality and hashing, frozen fields, checks that dataclasses.replace runs
again, and an instance dict that shares its keys as the generated
__init__'s did.
"""

import inspect
import sys
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import pytest

import slicedconv
from slicedconv import (ArchInfo, CaseReport, ConvCase, ConvInfo, ConvParams,
                        ConvPlan, MkInfo, RunCounters, out_shape)

P = ConvParams(n=1, ic=4, ih=10, iw=9, oc=8, fh=3, fw=3, stride_h=2, pad_w=1)
ARCH = ArchInfo(l1_bytes=32768, l2_bytes=1048576)
MK = MkInfo(n_win=16, n_f=8)
PLAN = ConvPlan(P, ARCH, MK)

# The strings dataclass(frozen=True) printed for these records.
P_REPR = ("ConvParams(n=1, ic=4, ih=10, iw=9, oc=8, fh=3, fw=3, stride_h=2, "
          "stride_w=1, dil_h=1, dil_w=1, pad_h=0, pad_w=1)")
ARCH_REPR = ("ArchInfo(l1_bytes=32768, l2_bytes=1048576, l3_bytes=0, "
             "cache_line_bytes=64)")
MK_REPR = "MkInfo(n_win=16, n_f=8)"
CONV_REPR = ("ConvInfo(params=ConvParams(n=1, ic=4, ih=10, iw=11, oc=8, fh=3, "
             "fw=3, stride_h=2, stride_w=1, dil_h=1, dil_w=1, pad_h=0, "
             "pad_w=0), oh=4, ow=9, ohw=36)")
STRATEGY_REPR = ("TilingStrategy(schedule=<Schedule.InputStationary: 'IS'>, "
                 "nc=4, k2=1, k3=1, r_nc=0, r_k2=0, r_k3=0)")
TAIL_REPR = ("KernelRegion(spatial_start=32, spatial_len=4, oc_len=8, "
             "ic_len=4, kind=<RegionKind.Remainder: 'remainder'>)")
MAIN_REPR = ("KernelRegion(spatial_start=0, spatial_len=32, oc_len=8, "
             "ic_len=4, kind=<RegionKind.Main: 'main'>)")

RECORDS = {
    "ConvParams": (P, P_REPR),
    "ArchInfo": (ARCH, ARCH_REPR),
    "MkInfo": (MK, MK_REPR),
    "ConvInfo": (PLAN.conv, CONV_REPR),
    "TilingStrategy": (PLAN.strategy, STRATEGY_REPR),
    "KernelRegion": (PLAN.regions[0], TAIL_REPR),
    "ConvPlan": (PLAN, f"ConvPlan(params={P_REPR}, arch={ARCH_REPR}, "
                       f"mk={MK_REPR}, set_tiles=2, chunk=4, "
                       f"conv={CONV_REPR}, sets=((0, 36),), "
                       f"strategy={STRATEGY_REPR}, "
                       f"regions=({TAIL_REPR}, {MAIN_REPR}))"),
    "RunCounters": (RunCounters(input_packs=Counter({(0, 1): 2})),
                    "RunCounters(input_packs=Counter({(0, 1): 2}), "
                    "filter_packs=Counter())"),
    "ConvCase": (ConvCase(id="c", params=P, repeat=2),
                 f"ConvCase(id='c', params={P_REPR}, repeat=2)"),
    "CaseReport": (CaseReport(id="c", correct=False, max_rel_err=float("inf"),
                              gflops=0.0, schedule="-", nc=0, k2=0, k3=0,
                              regions=0, seconds=0.0, error="ValueError: no",
                              planned=False),
                   "CaseReport(id='c', correct=False, max_rel_err=inf, "
                   "gflops=0.0, schedule='-', nc=0, k2=0, k3=0, regions=0, "
                   "seconds=0.0, error='ValueError: no', planned=False)"),
}
FROZEN = sorted(set(RECORDS) - {"RunCounters"})


def _package_classes():
    import slicedconv.cli  # noqa: F401  (not imported by the package)
    for name, module in sorted(sys.modules.items()):
        if name == "slicedconv" or name.startswith("slicedconv."):
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == name:
                    yield cls


def test_no_method_comes_from_generated_source():
    # The standard library's dataclass builds its methods by exec'ing
    # generated source, whose code objects name "<string>" as their file;
    # that costs every import of the package about a millisecond per
    # class. Every record still is a dataclass.
    generated = []
    for cls in _package_classes():
        for attr, value in vars(cls).items():
            for fn in (value, getattr(value, "__func__", None),
                       getattr(value, "fget", None),
                       getattr(value, "__wrapped__", None)):
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    generated.append(f"{cls.__name__}.{attr}")
    assert not generated, generated
    records = {cls.__name__ for cls in _package_classes() if is_dataclass(cls)}
    assert records == set(RECORDS)
    assert set(RECORDS) <= set(slicedconv.__all__)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_the_dataclass_repr(name):
    obj, text = RECORDS[name]
    assert repr(obj) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_copies_compare_equal(name):
    obj, _ = RECORDS[name]
    copy = replace(obj)
    assert copy is not obj and copy == obj and not copy != obj
    assert obj != tuple(getattr(obj, f.name) for f in fields(obj))
    if name in FROZEN:
        assert hash(copy) == hash(obj)
    else:
        with pytest.raises(TypeError):
            hash(obj)


@pytest.mark.parametrize("name", FROZEN)
def test_fields_are_frozen(name):
    obj, text = RECORDS[name]
    first = fields(obj)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(obj, first, None)
    with pytest.raises(FrozenInstanceError):
        delattr(obj, first)
    with pytest.raises(FrozenInstanceError):
        obj.extra = 1
    assert repr(obj) == text


def test_run_counters_stay_mutable():
    counters = RunCounters()
    counters.input_packs = Counter({(0, 0): 1})
    assert counters == RunCounters(input_packs=Counter({(0, 0): 1}))
    del counters.input_packs
    assert "input_packs" not in counters.__dict__


@pytest.mark.parametrize("obj, change, error", [
    (P, {"n": 0}, ValueError),
    (P, {"ic": 1.0}, TypeError),
    (ARCH, {"l1_bytes": 2 * ARCH.l2_bytes}, ValueError),
    (MK, {"n_f": 0}, ValueError),
    (PLAN, {"chunk": 0}, ValueError),
    (PLAN, {"set_tiles": 0}, ValueError),
    (PLAN.strategy, {"nc": 0}, ValueError),
    (PLAN.strategy, {"r_k3": -1}, ValueError),
    (RECORDS["ConvCase"][0], {"repeat": 0}, ValueError),
])
def test_replace_runs_the_checks_again(obj, change, error):
    with pytest.raises(error):
        replace(obj, **change)


def test_replace_keeps_derived_fields_out_of_reach():
    # A plan derives its conv, strategy, regions and sets, and ConvInfo
    # its extents from its params, so replace() rebuilds them and refuses
    # them as arguments, as field(init=False) did.
    assert replace(PLAN, set_tiles=1).sets == ((0, 16), (16, 20))
    for name in ("conv", "strategy", "regions", "sets"):
        with pytest.raises(ValueError):
            replace(PLAN, **{name: getattr(PLAN, name)})
    conv = PLAN.conv
    wide = replace(conv, params=replace(conv.params, iw=13))
    assert (wide.oh, wide.ow, wide.ohw) == (4, 11, 44)
    for name in ("oh", "ow", "ohw"):
        with pytest.raises(ValueError):
            replace(conv, **{name: 1})


def test_conv_info_derives_what_callers_passed_by_hand():
    # ConvInfo(p) holds the extents that callers once passed in by hand
    # from out_shape: oh, ow and their product.
    for p in (P, P.padded(), ConvParams(n=2, ic=1, ih=5, iw=7, oc=1, fh=3,
                                        fw=3, stride_w=2, dil_w=3)):
        oh, ow = out_shape(p)
        conv = ConvInfo(p)
        assert (conv.params, conv.oh, conv.ow, conv.ohw) == (p, oh, ow, oh * ow)


def test_replaced_plan_shares_the_decisions():
    # replace(plan, set_tiles=...) runs the same layer at other sizes: it
    # holds the original's problem, machine and microkernel and makes the
    # same strategy, regions and conv from them.
    sized = replace(PLAN, set_tiles=1)
    for name in ("params", "arch", "mk"):
        assert getattr(sized, name) is getattr(PLAN, name), name
    for name in ("strategy", "regions", "conv"):
        assert getattr(sized, name) == getattr(PLAN, name), name
    assert (sized.set_tiles, sized.chunk) == (1, PLAN.chunk)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_dict_holds_exactly_the_fields_in_order(name):
    # Record's equality, hashing and repr read __dataclass_fields__, which
    # must list no pseudo-field (ClassVar or InitVar) beside the fields.
    obj, _ = RECORDS[name]
    names = [f.name for f in fields(obj)]
    if name == "ConvPlan":
        # A plan's report, its last two fields, joins its dict on the
        # first read of either, in field order whichever is read.
        obj = replace(obj)
        assert list(obj.__dict__) == names[:-2]
        obj.regions
    assert list(obj.__dict__) == names
    assert list(obj.__dataclass_fields__) == names


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_dict_shares_its_keys_like_a_plain_object(name):
    # Setting fields one at a time, in the same order for every instance,
    # keeps each instance dict a key-sharing dict; filling it in one
    # update (as __dict__.update would) makes a dict of its own about
    # twice the size. Each new instance of a class shrinks the values
    # array its dict reserves, down to a floor that 64 instances reach on
    # both sides, so the sizes compare at that floor.
    obj, _ = RECORDS[name]
    copies = [replace(obj) for _ in range(64)]

    class Plain:
        pass

    for _ in range(64):
        plain = Plain()
        for attr, value in obj.__dict__.items():
            setattr(plain, attr, value)
    assert sys.getsizeof(copies[-1].__dict__) == sys.getsizeof(plain.__dict__)


def _traced_bytes(make, count=1000, rounds=3):
    # Bytes that count results of make() hold, per result, at the least of
    # a few rounds: the first traced round pays a one-time cost.
    least = None
    for _ in range(rounds):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [make() for _ in range(count)]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del kept
        least = held if least is None else min(least, held)
    return least / count


def test_padded_copy_is_no_larger_than_an_init_built_one():
    # padded() skips __init__'s checks but sets the fields as __init__
    # does, one at a time in field order, so its copy keeps a key-sharing
    # dict and holds no more memory than a ConvParams built from the same
    # fields.
    values = [getattr(P.padded(), name) for name in P.__dataclass_fields__]
    assert P.pad_w and values[-2:] == [0, 0]
    assert (_traced_bytes(P.padded)
            <= _traced_bytes(lambda: ConvParams(*values)))


def test_import_generates_no_docstring_signature():
    # A record without a docstring makes dataclass compute
    # inspect.signature at import, for a docstring of the form
    # "Name(field, ...)".
    for name in RECORDS:
        doc = getattr(slicedconv, name).__doc__
        assert doc and not doc.startswith(f"{name}("), name

