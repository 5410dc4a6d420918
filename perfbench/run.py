"""Seeded benchmark of distqc: compile speed, schedule quality and verification.

Run from the repository root, one workload per fresh process:

    python3 perfbench/run.py --workload greedy-commuting --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each run is a closed loop with one client: the workload's compile jobs and
verdicts, spread evenly through each pass, run one after another, each
starting when the previous one finished, pass after pass, for at least one
whole pass and ``--seconds``.
While an untraced loop runs, an interval timer runs a short fixed reference
kernel 20 times a second; timings are given in units of the kernel's
duration during each operation (raw seconds are printed beside them).
Each instance's first output is checked against known answers outside the
timed spans; later passes must reproduce it.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs half the time untraced and half with
span tracing, and prints the per-layer metrics.  The last stdout line is one
JSON object; per-instance times (and spans) are written to
``perfbench/results/``.  See perfbench/README.md for the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

# distqc, numpy and the modules beside this file are imported inside the
# functions: main() must first pin the thread pools and put src/ on the path.
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5  # set-ups timed in fresh processes, spread over the measured loop
THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

@dataclass(frozen=True)
class Seen:
    """What the first compile of one instance produced."""

    counters: tuple[int, int, int]  # e_count, e_depth, extended gates
    frame_terms: int
    digest: str


@dataclass
class Record:
    """What one closed loop measured: per-instance times, first outputs, failures."""

    passes: int = 0  # whole passes completed
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # label -> (start, seconds, operations timed together) of each repeat
    compile_s: dict[str, list[tuple[float, float, int]]] = field(default_factory=lambda: defaultdict(list))
    verify_s: dict[str, list[tuple[float, float, int]]] = field(default_factory=lambda: defaultdict(list))
    refs: list[tuple[float, float, float]] = field(default_factory=list)  # measure.ReferenceSampler.samples
    setup_s: list[float] = field(default_factory=list)  # probe_setup times
    first: dict[str, Seen] = field(default_factory=dict)

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")


def inspect(job, out) -> tuple[Seen, list[str]]:
    """Counters, digest and known-answer problems of one output (untimed)."""
    import workloads

    seen = Seen(out.counters(), out.frame_terms(), hashlib.sha256(out.digest_bytes()).hexdigest())
    return seen, workloads.check_output(job, out)


def timed(call):
    """(result or None on exception, (start, seconds))."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception:  # one failed operation must not end the run
        traceback.print_exc(file=sys.stderr)
        result = None
    return result, (start, time.perf_counter() - start)


def compile_once(rec: Record, job, span) -> None:
    """Compile, time, and check the first output of each instance; later
    outputs must repeat its counters.  Outputs die on return, so memory
    does not grow with the number of passes."""
    import workloads

    def compile_repeated():
        for _ in range(job.repeats):
            out = workloads.compile_job(job)
        return out

    with span("compile", f"{job.label}#{rec.passes}"):
        out, sample = timed(compile_repeated)
    if out is None:
        rec.fail(job.label, "compile raised")
        return
    rec.compile_s[job.label].append((*sample, job.repeats))
    if job.label not in rec.first:
        rec.first[job.label], problems = inspect(job, out)
        for problem in problems:
            rec.fail(job.label, problem)
    elif out.counters() != rec.first[job.label].counters:
        rec.fail(job.label, f"pass {rec.passes} output differs from the first pass")


def verify_once(rec: Record, v, span) -> None:
    import workloads

    with span("verify", f"{v.label}#{rec.passes}"):
        got, sample = timed(lambda: workloads.run_verdict(v))
    rec.verify_s[v.label].append((*sample, 1))
    if got is None or got != v.expected:
        rec.fail(v.label, f"verdict {got}, known answer {v.expected}")


def spread_evenly(first: list, second: list) -> list:
    """Both lists merged in order, each one's items spaced evenly through the
    result, so that the times of either kind of operation sample the whole
    of a pass rather than one end of it."""
    position = [((i + 0.5) / len(first), 0, i) for i in range(len(first))]
    position += [((j + 0.5) / len(second), 1, j) for j in range(len(second))]
    return [(first, second)[which][k] for _, which, k in sorted(position)]


def measure(wl, verdicts, seconds: float, tracer=None, probe=None) -> Record:
    """Closed loop, one operation at a time, over the workload's compile jobs
    and its verdicts, spread evenly through each pass, for at least one
    whole pass and ``seconds``.  A traced loop stops only at the end of a
    pass, so that its layer figures can be given per pass.  An untraced loop
    runs under the reference sampler; a traced one does not, so that no span
    holds a reference kernel run.  ``probe``, if given, is called
    SETUP_PROBES times at even intervals between operations, with the
    sampler paused and its time left out of ``seconds``: set-up time then
    samples the machine's speed over the same stretch as the operations do."""
    from measure import ReferenceSampler

    span = tracer.instance if tracer else (lambda *_: nullcontext())
    ops = spread_evenly([(compile_once, job) for job in wl.compile_jobs], [(verify_once, v) for v in verdicts])
    rec = Record()
    sampler = ReferenceSampler()
    probes = SETUP_PROBES if probe else 0
    with nullcontext() if tracer else sampler:
        start = time.perf_counter()
        done = 0
        while True:
            if len(rec.setup_s) < probes and time.perf_counter() - start >= len(rec.setup_s) * seconds / probes:
                with sampler.paused():
                    paused = time.perf_counter()
                    rec.setup_s.append(probe())
                    start += time.perf_counter() - paused
            op, item = ops[done % len(ops)]
            rec.attempted += 1
            op(rec, item, span)
            done += 1
            rec.passes = done // len(ops)
            if rec.passes and len(rec.setup_s) == probes and time.perf_counter() - start >= seconds:
                if tracer is None or done % len(ops) == 0:
                    break
    rec.refs = sampler.samples
    return rec


def setup(name: str, seed: int, tracer=None):
    """Lattices, inputs and warm-up; returns the workload, its verified
    outputs and their verdicts."""
    import workloads

    with tracer.instance("setup", "setup") if tracer else nullcontext():
        wl = workloads.build(name, seed)
        for job in wl.warmup_jobs:
            workloads.compile_job(job)
        outputs = [workloads.compile_job(job) for job in wl.verify_jobs]
    return wl, outputs, workloads.verdicts(wl, outputs, seed)


def probe_setup(name: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return seconds


def per_item(rec: Record, samples: dict[str, list[tuple[float, float, int]]], in_refs: bool) -> dict[str, float]:
    """Each item's median duration over its repeats, less the reference
    runs that interrupted it, in seconds or, with ``in_refs``, in reference
    kernel runs (see measure.ReferenceSampler).

    Each item counts once, so the figures do not depend on how many passes,
    or which part of the last one, fit the run."""
    from measure import median, net_seconds, reference_near

    def duration(start: float, seconds: float, count: int) -> float:
        net = net_seconds(rec.refs, start, seconds) / count
        return net / reference_near(rec.refs, start, start + seconds) if in_refs else net

    return {label: median([duration(*s) for s in ts]) for label, ts in samples.items()}


def compile_figures(wl, rec: Record, in_refs: bool) -> tuple[float, float]:
    """(median instance compile time, logical gates per unit of compile time)."""
    from measure import median, throughput

    per_instance = per_item(rec, rec.compile_s, in_refs)
    gates = sum(job.gates for job in wl.compile_jobs if job.label in per_instance)
    return median(list(per_instance.values())), throughput(gates, sum(per_instance.values()))


def verify_figures(verdicts, rec: Record, in_refs: bool) -> tuple[float, float]:
    """(median time of a positive verdict, verdicts per unit of time)."""
    from measure import median, throughput

    per_verdict = per_item(rec, rec.verify_s, in_refs)
    positive = [per_verdict[v.label] for v in verdicts if not v.drop_frame and v.label in per_verdict]
    return median(positive), throughput(len(per_verdict), sum(per_verdict.values()))


def raw_seconds(wl, verdicts, rec: Record) -> dict[str, float]:
    """The timings in plain seconds, printed beside the metrics."""
    from measure import median

    compile_p50, gates_per_s = compile_figures(wl, rec, in_refs=False)
    verify_p50, verdicts_per_s = verify_figures(verdicts, rec, in_refs=False)
    return {"compile_s_p50": compile_p50, "gates_per_s": gates_per_s, "verify_s_p50": verify_p50,
            "verdicts_per_s": verdicts_per_s, "ref_s_p50": median([d for _, d, _ in rec.refs])}


def end_to_end(wl, verdicts, rec: Record) -> dict[str, float]:
    from measure import median

    compile_p50, gates_per_ref = compile_figures(wl, rec, in_refs=True)
    verify_p50, verdicts_per_ref = verify_figures(verdicts, rec, in_refs=True)
    counters = [rec.first[job.label].counters for job in wl.compile_jobs if job.label in rec.first]
    return {
        "setup_s": median(rec.setup_s),
        "compile_ref_p50": compile_p50,
        "gates_per_kref": 1000 * gates_per_ref,
        "verify_ref_p50": verify_p50,
        "verdicts_per_kref": 1000 * verdicts_per_ref,
        "e_count": sum(c[0] for c in counters),
        "e_depth": sum(c[1] for c in counters),
        "ext_gates": sum(c[2] for c in counters),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_targets():
    from spans import Target

    def commodities(cs):
        return {"circuit.commodities": cs.k, "circuit.prec": len(cs.prec), "circuit.qpar": len(cs.qpar)}

    def graph_size(q):
        return {"netmodel.nodes": q.node_count, "netmodel.edges": q.edge_count}

    return [
        Target("circuit.extract_commodities", "distqc.circuit", "extract_commodities", commodities),
        Target("flow.iterative_greedy", "distqc.flow", "iterative_greedy"),
        Target("flow.check_feasible", "distqc.flow", "check_feasible"),
        Target("flow.quickest_flow", "distqc.flow", "quickest_flow"),
        Target("flow.solve_mcf_exact", "distqc.flow", "solve_mcf_exact"),
        Target("steiner.steiner_tree_exact", "distqc.steiner", "steiner_tree_exact"),
        Target("steiner.steiner_tree_approx", "distqc.steiner", "steiner_tree_approx"),
        Target("steiner.cz_to_dense_fanin", "distqc.steiner", "cz_to_dense_fanin",
               lambda f: {"steiner.fanin_layers": len(f.layers)}),
        Target("telegate.emit_remote", "distqc.telegate", "CircuitExpander.emit_remote"),
        Target("pushing.normalize_frame", "distqc.pushing", "normalize_frame"),
        Target("stabsim.channel_equivalent", "distqc.stabsim", "channel_equivalent"),
        Target("stabsim.run_extended", "distqc.stabsim", "run_extended"),
        Target("stabsim.reduced_canonical", "distqc.stabsim", "reduced_canonical"),
        Target("stabsim.canonical_tableau", "distqc.stabsim", "canonical_tableau"),
        Target("netmodel.generate", "distqc.netmodel", "gen_rect_low", graph_size),
        Target("netmodel.generate", "distqc.netmodel", "gen_rect_high", graph_size),
        Target("netmodel.generate", "distqc.netmodel", "gen_hex", graph_size),
    ]


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json's order for one section."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def per_layer(wl, tracer, plain: Record, traced: Record, names) -> dict[str, float]:
    """Each layer figure is its mean over the traced passes plus its share of
    the one set-up (lattice generation, warm-up, compiles of verified outputs)."""
    from measure import median

    pass_totals, pass_counts = tracer.summary(lambda instance: instance != "setup")
    setup_totals, setup_counts = tracer.summary(lambda instance: instance == "setup")

    def value(name: str) -> float:
        layer, _, kind = name.rpartition(".")
        if kind in ("s", "calls"):
            pick = 0 if kind == "s" else 1
            return (pass_totals.get(layer, (0.0, 0))[pick] / traced.passes
                    + setup_totals.get(layer, (0.0, 0))[pick])
        return pass_counts.get(name, 0) / traced.passes + setup_counts.get(name, 0)

    out = {name: value(name) for name in names}
    exact, approx = out["steiner.steiner_tree_exact.calls"], out["steiner.steiner_tree_approx.calls"]
    out["steiner.exact_share"] = exact / (exact + approx) if exact + approx else 0.0
    out["pauli.frame_terms"] = sum(seen.frame_terms for seen in traced.first.values())
    out["trace.overhead_s"] = (compile_figures(wl, traced, in_refs=False)[0]
                               - compile_figures(wl, plain, in_refs=False)[0])
    out["trace.coverage"] = median(tracer.coverage({"compile", "verify"}))
    return out


def run_workload(args) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        from spans import Tracer

        tracer, targets = Tracer(), trace_targets()
        tracer.install(targets)
        wl, verify_outputs, verdicts = setup(args.workload, args.seed, tracer)
        tracer.uninstall()
        plain = measure(wl, verdicts, args.seconds / 2)
        tracer.install(targets)
        rec = measure(wl, verdicts, args.seconds / 2, tracer)
        tracer.uninstall()
        rec.attempted += plain.attempted
        rec.failures += plain.failures
        for label, seen in plain.first.items():
            if rec.first.get(label) != seen:
                rec.fail(label, "traced output differs from the untraced one")
        units = metric_units("per_layer")
        metrics = per_layer(wl, tracer, plain, rec, units)
        result["untraced_compile_s"] = plain.compile_s
        result["missing_spans"] = tracer.missing
        result["spans"] = tracer.dump()
    else:
        wl, verify_outputs, verdicts = setup(args.workload, args.seed)
        rec = measure(wl, verdicts, args.seconds, probe=lambda: probe_setup(args.workload, args.seed))
        units = metric_units("end_to_end")
        metrics = end_to_end(wl, verdicts, rec)
        result["setup_s"] = rec.setup_s
        result["raw_seconds"] = raw_seconds(wl, verdicts, rec)
    metrics = {name: metrics[name] for name in units}  # exactly BENCHMARK.json's set and order

    h = hashlib.sha256()
    for job in wl.compile_jobs:
        if job.label in rec.first:
            h.update(rec.first[job.label].digest.encode())
    rec.attempted += len(wl.verify_jobs)  # their set-up compiles
    for job, out in zip(wl.verify_jobs, verify_outputs):
        seen, problems = inspect(job, out)
        h.update(seen.digest.encode())
        for problem in problems:
            rec.fail(job.label, problem)
    attempted, failed = rec.attempted, len(rec.failures)
    result.update(digest=h.hexdigest(), passes=rec.passes, failures=rec.failures,
                  compile_s=rec.compile_s, verify_s=rec.verify_s, refs=rec.refs, metrics=metrics)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result))

    for failure in rec.failures:
        print(f"FAIL {failure}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    print(f"{'fail_ratio':34s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for name, value in result.get("raw_seconds", {}).items():
        print(f"{name + ' (raw, not a metric)':34s} {value:.6g} {'s' if name.endswith('_s_p50') else name[:-6] + '/s'}")
    print(f"digest sha256 {result['digest']}  passes {rec.passes}  results {path.relative_to(HERE.parent)}")
    if args.trace and tracer.missing:
        print(f"absent spans (names not found): {', '.join(tracer.missing)}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "distqc" / "__init__.py").is_file():
        print(f"distqc sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_POOL_VARS:  # before numpy is imported, here and in child processes
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.workload == "all":
        import workloads

        status = 0
        for name in workloads.WORKLOADS:
            print(f"== {name}", flush=True)
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd).returncode)
        return status
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
