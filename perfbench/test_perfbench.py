"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from distqc import flow  # noqa: E402
from distqc.circuit import Placement  # noqa: E402
from distqc.pauli import PauliFrame  # noqa: E402
from measure import (  # noqa: E402
    ReferenceSampler, median, net_seconds, reference_kernel, reference_near, relative_spread, throughput,
)
from spans import Span, Target, Tracer, interval_union, self_times  # noqa: E402


def test_median_and_throughput():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert throughput(10, 4.0) == 2.5
    with pytest.raises(ValueError):
        throughput(1, 0.0)
    with pytest.raises(ValueError):
        median([])


def test_spread_evenly_interleaves_and_keeps_each_order():
    from run import spread_evenly

    assert spread_evenly(["a", "b", "c"], ["x"]) == ["a", "b", "x", "c"]
    assert spread_evenly(["a", "b"], ["x", "y", "z", "w"]) == ["x", "a", "y", "z", "b", "w"]
    assert spread_evenly(["a"], []) == ["a"]


def test_relative_spread_is_quartile_distance_over_median():
    values = [float(v) for v in range(1, 11)]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert relative_spread([2.0] * 5) == 0.0


def test_reference_units_take_the_kernel_runs_out_and_use_the_nearby_ones():
    # (start, timed kernel seconds, seconds the kernel pair took)
    samples = [(0.0, 1.0, 2.0), (10.0, 2.0, 4.0), (10.5, 4.0, 8.0), (11.0, 3.0, 6.0), (30.0, 9.0, 18.0)]
    assert net_seconds(samples, 9.0, 3.0) == pytest.approx(3.0 - 4.0 - 8.0 - 6.0)
    assert net_seconds(samples, 1.0, 5.0) == 5.0
    assert reference_near(samples, 10.2, 10.8, window=0.5) == 3.0  # median of 2, 4, 3
    assert reference_near(samples, 20.0, 21.0, window=0.5) == 3.0  # nearest: the sample at 11.0
    with pytest.raises(ValueError):
        reference_near([], 0.0, 1.0)


def test_sampler_records_kernel_runs_and_restores_the_alarm():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with ReferenceSampler(hz=200) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        with sampler.paused():
            paused_at = len(sampler.samples)
            end = time.perf_counter() + 0.05
            while time.perf_counter() < end:
                pass
            assert len(sampler.samples) == paused_at
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 4
    assert all(0 < timed < taken for _, timed, taken in sampler.samples)
    assert reference_kernel() == reference_kernel()


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        Span("root", 0.0, 10.0, None, "i"),
        Span("a", 1.0, 4.0, 0, "i"),
        Span("a.child", 2.0, 3.0, 1, "i"),
        Span("b", 5.0, 6.0, 0, "i"),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert interval_union([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)


def test_tracer_follows_aliases_reports_missing_names_and_restores():
    ticks = iter(range(10_000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original_solver = flow.solve_mcf_exact
    targets = [
        Target("flow.quickest_flow", "distqc.flow", "quickest_flow"),
        Target("flow.solve_mcf_exact", "distqc.flow", "solve_mcf_exact"),
        Target("gone", "distqc.flow", "no_such_function"),
    ]
    job = workloads.Job("t", "flow-exact", workloads.random_clifford_circuit(3, 5, random.Random(2)),
                        Placement.round_robin(3, 6), workloads.lattice("rect-low", 2))
    tracer.install(targets)
    try:
        workloads.compile_job(job)  # outside an instance: nothing recorded
        assert tracer.spans == []
        with tracer.instance("compile", "t#0"):
            workloads.compile_job(job)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["distqc.flow.no_such_function"]
    assert flow.solve_mcf_exact is original_solver
    assert flow.quickest_flow.__defaults__[0] is original_solver
    totals, _ = tracer.summary(lambda instance: True)
    assert totals["flow.quickest_flow"][1] == 1
    assert totals["flow.solve_mcf_exact"][1] >= 1  # reached through a parameter default
    solver_parents = {tracer.spans[s.parent].name for s in tracer.spans if s.name == "flow.solve_mcf_exact"}
    assert solver_parents == {"flow.quickest_flow"}
    assert tracer.coverage({"compile"})[0] > 0


def _inputs(wl):
    return [(j.label, j.backend, j.circuit.dumps()) for j in wl.compile_jobs + wl.verify_jobs]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(name):
    assert _inputs(workloads.build(name, 3)) == _inputs(workloads.build(name, 3))
    assert _inputs(workloads.build(name, 3)) != _inputs(workloads.build(name, 4))


def _small_job(backend: str, densify: bool = False) -> workloads.Job:
    graph = workloads.lattice("rect-low", 2)
    circ = workloads.random_pair_circuit(6, 8, random.Random(5), cx_share=0.5 if not densify else 0.0)
    return workloads.Job("small", backend, circ, Placement.identity(6), graph, densify)


def test_known_answer_check_catches_a_corrupted_flow_schedule():
    job = _small_job("flow-greedy")
    out = workloads.compile_job(job)
    assert workloads.check_output(job, out) == []
    sched = out.schedule
    squeezed = flow.FlowSchedule(1, tuple(1 for _ in sched.steps), sched.paths)  # every gate in round 1
    problems = workloads.check_output(job, dataclasses.replace(out, schedule=squeezed))
    assert any("infeasible" in p for p in problems)


def test_known_answer_check_catches_a_broken_tree():
    job = _small_job("steiner", densify=True)
    out = workloads.compile_job(job)
    assert workloads.check_output(job, out) == []
    trees = list(out.schedule.trees)
    i = next(i for i, t in enumerate(trees) if t)
    trees[i] = frozenset(sorted(trees[i])[1:])
    broken = dataclasses.replace(out.schedule, trees=tuple(trees))
    problems = workloads.check_output(job, dataclasses.replace(out, schedule=broken))
    assert any("misses processors" in p for p in problems)
    assert any("Bell pairs" in p for p in problems)


def test_a_dropped_frame_is_caught():
    job = _small_job("flow-greedy")
    out = workloads.compile_job(job)
    assert not workloads.expected_verdict(out.extended, drop_frame=True)
    stripped = dataclasses.replace(out.extended, frame=PauliFrame())
    v = workloads.Verdict("stripped", stripped, job.circuit, False, True, 7)
    assert workloads.run_verdict(v) is False
