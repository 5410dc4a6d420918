"""Command-line surface: topology/circuit generation, compilation,
verification, and the benchmark harness."""

from __future__ import annotations

import argparse
import json
import random
import sys

from .bench import (
    BACKENDS,
    BenchConfig,
    compile_backend,
    gen_hardest_fanin,
    gen_random_cz_circuit,
    run_bench,
)
from .circuit import Circuit, Placement
from .netmodel import GENERATORS, QuotientGraph
from .stabsim import ResidualEntanglementError, channel_equivalent
from .telegate import ExtendedCircuit


def _open(path: str, mode: str = "r"):
    """Open a file the command line names; an OSError becomes a ValueError naming it."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None


def _write_json(path: str, doc: dict) -> None:
    with _open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def _load(path: str, parse):
    """Parse one input file; an unreadable file, malformed JSON, a missing
    key, a value of the wrong type or a malformed value becomes a ValueError
    that names the file."""
    try:
        with _open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from None
    try:
        return parse(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_gen_topology(args) -> int:
    graph = GENERATORS[args.kind](args.g)
    _write_json(args.out, graph.to_json())
    print(f"{args.kind} g={args.g}: {graph.node_count} nodes, {graph.edge_count} edges -> {args.out}")
    return 0


def cmd_gen_circuit(args) -> int:
    if args.type == "random-cz":
        rng = random.Random(args.seed)
        circuit = gen_random_cz_circuit(args.qubits, args.gates, rng)
    else:
        circuit = gen_hardest_fanin(args.qubits)
    _write_json(args.out, circuit.to_json())
    print(f"{args.type}: {args.qubits} qubits, {len(circuit.all_gates())} gates -> {args.out}")
    return 0


def cmd_compile(args) -> int:
    circuit = _load(args.circuit, Circuit.from_json)
    graph = _load(args.topology, QuotientGraph.from_json)
    if args.placement:
        placement = _load(args.placement, Placement.from_json)
    else:
        placement = Placement.round_robin(circuit.num_qubits, graph.node_count)
    extended, sched = compile_backend(args.backend, circuit, placement, graph)
    if args.out:
        _write_json(args.out, sched.to_json())
    if args.extended_out:
        _write_json(args.extended_out, extended.to_json())
    print(f"backend={args.backend} e_depth={sched.horizon} e_count={extended.e_count}")
    return 0


def cmd_verify(args) -> int:
    extended = _load(args.extended, ExtendedCircuit.from_json)
    logical = _load(args.logical, Circuit.from_json)
    try:
        ok = channel_equivalent(extended, logical)
    except ResidualEntanglementError as exc:
        print(f"NOT equivalent: {exc}")
        return 1
    print("equivalent" if ok else "NOT equivalent")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    cfg = BenchConfig(
        topologies=tuple(args.topologies.split(",")),
        g_values=args.g,
        sizes=args.sizes,
        samples=args.samples,
        backends=tuple(args.backends.split(",")),
        seed=args.seed,
        out=args.out,
        timing=not args.no_timing,
    )
    _open(args.out, "w").close()  # refuse an unwritable path before compiling anything
    records = run_bench(cfg)
    print(f"{len(records)} rows -> {args.out}")
    return 0


def int_list(text: str) -> tuple[int, ...]:
    """A comma-separated list of integers; argparse names the option it fails on."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distqc",
        description="Compile layered circuits onto distributed quantum architectures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-topology", help="generate a benchmark topology")
    p.add_argument("--kind", choices=sorted(GENERATORS), required=True)
    p.add_argument("--g", type=int, required=True, help="generator factor")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_topology)

    p = sub.add_parser("gen-circuit", help="generate a benchmark circuit")
    p.add_argument("--type", choices=["random-cz", "hardest-fanin"], required=True)
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--gates", type=int, default=0, help="gate count for random-cz")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_circuit)

    p = sub.add_parser("compile", help="schedule and expand a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--placement", help="placement JSON; default round-robin")
    p.add_argument("--backend", choices=BACKENDS, required=True)
    p.add_argument("--out", help="schedule JSON output")
    p.add_argument("--extended-out", help="extended circuit JSON output")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "verify", help="prove a compiled circuit equivalent to its unitary source circuit"
    )
    p.add_argument("--extended", required=True)
    p.add_argument("--logical", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run the benchmark matrix")
    p.add_argument("--topologies", default="rect-low,hex")
    p.add_argument("--g", type=int_list, default="2,3")
    p.add_argument("--sizes", type=int_list, default="64")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--backends", default="flow-greedy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="write zero wall times so repeated runs are byte-identical",
    )
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"distqc {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
