"""The module->layer table and the fold of profiler self time into layers."""

import json
import os
from types import SimpleNamespace

from perfbench import hostprof
from perfbench.hostprof import LAYER_TABLE, LayerProfiler, fold, layers_matching
from repro.core.regions import RegionList
from repro.mpiio.file import File

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def _repro_modules():
    modules = []
    for directory, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                modules.append(hostprof.module_of(path))
    return modules


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = _repro_modules()
    assert len(modules) > 100 and None not in modules
    unmapped = {module: layers_matching(module) for module in modules
                if len(layers_matching(module)) != 1}
    assert unmapped == {}


def test_every_pattern_names_an_existing_module():
    modules = set(_repro_modules()) | {"perfbench"}
    for layer, patterns in LAYER_TABLE.items():
        for pattern in patterns:
            assert any(hostprof._pattern_matches(pattern, module)
                       for module in modules), (layer, pattern)


def test_benchmark_modules_are_the_harness_layer():
    assert hostprof.module_of(hostprof.__file__) == "perfbench.hostprof"
    assert layers_matching("perfbench.hostprof") == ["harness"]
    assert hostprof.module_of("<string>") is None
    assert hostprof.module_of(json.__file__) is None


def _entry(code, inline, calls=(), total=None, count=1):
    return SimpleNamespace(code=code, inlinetime=inline,
                           totaltime=inline if total is None else total,
                           callcount=count, calls=list(calls))


def _sub(code, inline, total=None):
    return SimpleNamespace(code=code, inlinetime=inline,
                           totaltime=inline if total is None else total)


def test_builtin_time_is_charged_to_the_calling_layer():
    regions = RegionList.union.__code__
    mpiio = File.write_at_all.__code__
    stdlib = json.dumps.__code__
    builtin = "<built-in method builtins.len>"
    entries = [
        _entry(regions, 1.0, [_sub(builtin, 0.25)]),
        _entry(mpiio, 2.0, [_sub(builtin, 0.5), _sub(stdlib, 0.125, 0.375)]),
        # stdlib code called from mpiio, itself calling a builtin
        _entry(stdlib, 0.125, [_sub(builtin, 0.25)], total=0.375),
        # 0.0625 s of the builtin was called from the profiled block itself
        _entry(builtin, 1.0625),
    ]
    result = fold(entries)
    assert result.seconds("core.regions") == 1.25
    assert result.seconds("mpiio") == 2.875
    assert result.seconds("harness") == 0.0625
    assert sum(result.layer_ticks.values()) == result.total_ticks
    assert set(result.layer_ticks) == set(LAYER_TABLE)


def test_recursive_foreign_time_follows_its_outer_caller():
    regions = RegionList.union.__code__
    stdlib = json.dumps.__code__
    entries = [
        _entry(regions, 1.0, [_sub(stdlib, 0.5, 2.0)]),
        _entry(stdlib, 2.0, [_sub(stdlib, 1.5, 1.5)], total=2.0, count=2),
    ]
    result = fold(entries)
    assert result.seconds("core.regions") == 3.0
    assert result.seconds("harness") == 0.0


def test_folded_self_times_sum_exactly_to_the_profiler_total():
    with LayerProfiler() as profiler:
        lists = [RegionList.from_tuples([(index * 10, 5)]) for index in range(200)]
        merged = RegionList()
        for region_list in lists:
            merged = merged.union(region_list)
        json.dumps([len(region_list) for region_list in lists])
    stats = profiler._profile.getstats()
    result = profiler.fold()
    assert sum(result.layer_ticks.values()) == result.total_ticks
    assert result.total_ticks == sum(round(entry.inlinetime * 1e9) for entry in stats)
    assert result.layer_ticks["core.regions"] > 0
    assert result.layer_ticks["harness"] > 0


def test_entry_point_calls_are_counted():
    from repro.core.atomicity import apply_writes
    with LayerProfiler() as profiler:
        for _ in range(3):
            apply_writes(b"\0" * 4, [])
    assert profiler.fold().entry_calls["apply_writes"] == 3
