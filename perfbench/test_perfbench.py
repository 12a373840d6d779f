"""Tests of the benchmark's own code: span arithmetic and input generation.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def _span(name, start, end, parent=None):
    return Span(name=name, start=start, end=end, parent=parent, op=0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 6.0, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span("root", 0.0, 10.0),
        _span("x", 1.0, 4.0, parent=0),
        _span("y", 3.0, 6.0, parent=0),
        _span("late", 9.0, 12.0, parent=0),
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_times_sum_to_root_durations():
    spans = [
        _span("r1", 0.0, 4.0),
        _span("c", 0.5, 3.5, parent=0),
        _span("g", 1.0, 2.0, parent=1),
        _span("r2", 5.0, 7.0),
    ]
    assert sum(tracer.self_times(spans)) == pytest.approx(6.0)


def test_root_coverage_and_layer_totals():
    spans = [
        _span("f", 1.0, 3.0),
        _span("g", 2.0, 2.5, parent=0),
        _span("f", 4.0, 8.0),
    ]
    spans[1].counts = {"points": 5}
    assert tracer.root_coverage(spans, 0.0, 10.0) == pytest.approx(0.6)
    totals = tracer.layer_totals(spans, tracer.self_times(spans))
    assert totals["f"]["calls"] == 2
    assert totals["f"]["self_s"] == pytest.approx(1.5 + 4.0)
    assert totals["g"] == {"calls": 1, "self_s": pytest.approx(0.5), "points": 5}


def test_install_wraps_every_binding_and_restore_undoes_it():
    home = types.ModuleType("home")
    exec("def inner(n):\n    return n + 1\n", home.__dict__)
    caller = types.ModuleType("caller")
    caller.inner = home.inner
    exec("def outer(n):\n    return inner(n) * 2\n", caller.__dict__)
    original_inner, original_outer = home.inner, caller.outer

    tr = tracer.Tracer()
    restore = tracer.install(tr, [home, caller], {
        "home.inner": (home.inner, lambda r, n: {"work": n}),
        "caller.outer": (caller.outer, None),
    })
    tr.op = 7
    assert caller.outer(3) == 8
    assert home.inner(1) == 2
    restore()

    assert [s.name for s in tr.spans] == ["caller.outer", "home.inner", "home.inner"]
    assert [s.parent for s in tr.spans] == [None, 0, None]
    assert {s.op for s in tr.spans} == {7}
    assert [s.counts for s in tr.spans] == [{}, {"work": 3}, {"work": 1}]
    assert all(s.end >= s.start for s in tr.spans)
    assert home.inner is original_inner and caller.inner is original_inner
    assert caller.outer is original_outer


def test_install_refuses_a_function_bound_nowhere():
    mod = types.ModuleType("mod")
    with pytest.raises(LookupError):
        tracer.install(tracer.Tracer(), [mod], {"stray": (len, None)})


def test_check_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert workloads.check_inputs(5) == workloads.check_inputs(5)
    assert workloads.check_inputs(5) != workloads.check_inputs(6)
    assert workloads.make_inputs("brown", 5) == workloads.make_inputs("brown", 5)
    assert workloads.make_inputs("brown", 5) != workloads.make_inputs("brown", 6)
    assert workloads.make_inputs("converge", 5) == workloads.make_inputs("converge", 6) == 4000


@pytest.mark.parametrize("seed", range(20))
def test_check_inputs_cover_every_regime_and_gap_ordering(seed):
    n = workloads.CHECK_N
    regimes = set()
    for case in workloads.check_inputs(seed):
        a = workloads.realized_weight(case.a, n)
        b = workloads.realized_weight(case.b, n)
        gap_a = abs(case.alpha_prime - case.alpha)
        gap_b = abs(case.beta_prime - case.beta)
        assert 0.0 < a < 1.0 and 0.0 < b < 1.0
        assert abs(a + b - 1.0) >= 10 / n and abs(a - b) >= 10 / n
        assert min(gap_a, gap_b) > 0.2 and gap_a != gap_b
        assert 0 <= case.seed < 2**63
        regimes.add((a + b > 1.0, a > b, gap_a > gap_b))
    assert len(regimes) == 8


def test_benchmark_json_lists_the_metrics_and_workloads_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_pass_count_follows_the_arguments_only(workload):
    for seconds in (1, 12, 60):
        plain, traced = run.passes(workload, seconds, False), run.passes(workload, seconds, True)
        assert plain >= 1 and traced >= 2 and traced % 2 == 0
        assert plain == round(seconds / run.PASS_SECONDS[workload]) or plain == 1
    assert run.passes(workload, 60, False) >= run.passes(workload, 12, False)


def test_law_flags_round_trip_through_repr():
    flags = workloads.law_flags(workloads.DEMO_P, (0.1, -0.3, 0.7))
    assert flags == ["--a", "0.625", "--alpha", "0.0", "--alpha-prime", "1.0",
                     "--b", "0.1", "--beta", "-0.3", "--beta-prime", "0.7"]
