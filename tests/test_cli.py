import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distqc
from distqc.circuit import Circuit, bell, cx, cz, meas, pauli
from distqc.cli import main
from distqc.pauli import PauliFrame, XorExpr
from distqc.telegate import ExtendedCircuit


def run(argv):
    return main(argv)


@pytest.fixture
def topo(tmp_path):
    path = tmp_path / "topo.json"
    assert run(["gen-topology", "--kind", "rect-low", "--g", "3", "--out", str(path)]) == 0
    return path


@pytest.fixture
def circ(tmp_path):
    path = tmp_path / "circ.json"
    args = ["gen-circuit", "--type", "random-cz", "--qubits", "9", "--gates", "15",
            "--seed", "4", "--out", str(path)]
    assert run(args) == 0
    return path


class TestGenTopology:
    def test_writes_expected_graph(self, topo):
        doc = json.loads(topo.read_text())
        assert doc["nodes"] == 9 and len(doc["edges"]) == 12

    @pytest.mark.parametrize("kind,nodes", [("rect-low", 49), ("rect-high", 144), ("hex", 96)])
    def test_kinds_at_g11(self, tmp_path, kind, nodes):
        out = tmp_path / "t.json"
        assert run(["gen-topology", "--kind", kind, "--g", "11", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["nodes"] == nodes


class TestGenCircuit:
    def test_random_cz(self, circ):
        doc = json.loads(circ.read_text())
        assert doc["qubits"] == 9
        assert sum(len(layer) for layer in doc["layers"]) == 15

    def test_hardest_fanin(self, tmp_path):
        out = tmp_path / "h.json"
        assert run(["gen-circuit", "--type", "hardest-fanin", "--qubits", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["layers"]) == 4

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run(["gen-circuit", "--type", "random-cz", "--qubits", "6", "--gates", "9",
                 "--seed", "3", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestCompileAndVerify:
    @pytest.mark.parametrize("backend", ["flow-greedy", "flow-exact", "steiner"])
    def test_compile_then_verify(self, tmp_path, topo, backend):
        circ = tmp_path / "c.json"
        run(["gen-circuit", "--type", "random-cz", "--qubits", "9", "--gates", "8",
             "--seed", "11", "--out", str(circ)])
        sched = tmp_path / "s.json"
        ext = tmp_path / "e.json"
        rc = run(["compile", "--circuit", str(circ), "--topology", str(topo),
                  "--backend", backend, "--out", str(sched), "--extended-out", str(ext)])
        assert rc == 0
        doc = json.loads(sched.read_text())
        assert doc["d"] >= 1 and doc["assignments"]
        rc = run(["verify", "--extended", str(ext), "--logical", str(circ),
                  "--trials", "6", "--branches", "5", "--seed", "2"])
        assert rc == 0

    def test_verify_rejects_wrong_circuit(self, tmp_path, topo, circ):
        other = tmp_path / "other.json"
        run(["gen-circuit", "--type", "random-cz", "--qubits", "9", "--gates", "15",
             "--seed", "99", "--out", str(other)])
        ext = tmp_path / "e.json"
        run(["compile", "--circuit", str(circ), "--topology", str(topo),
             "--backend", "flow-greedy", "--extended-out", str(ext)])
        rc = run(["verify", "--extended", str(ext), "--logical", str(other),
                  "--trials", "6", "--branches", "5", "--seed", "2"])
        assert rc == 1

    def test_densify_flag(self, tmp_path, topo, circ):
        sched = tmp_path / "s.json"
        ext = tmp_path / "e.json"
        rc = run(["compile", "--circuit", str(circ), "--topology", str(topo),
                  "--backend", "steiner", "--out", str(sched),
                  "--extended-out", str(ext)])
        assert rc == 0
        # steiner densifies a CZ-only circuit: 15 remote CZs become at most n-1 = 8 fan-ins
        assert len(json.loads(sched.read_text())["assignments"]) <= 8
        rc = run(["verify", "--extended", str(ext), "--logical", str(circ),
                  "--trials", "5", "--branches", "5", "--seed", "3"])
        assert rc == 0

    def test_verify_residual_entanglement(self, tmp_path, capsys):
        # the communication qubit keeps a copy of the data qubit
        ext = tmp_path / "leak.json"
        ext.write_text(json.dumps(ExtendedCircuit(1, 2, (cx(0, 1),), PauliFrame()).to_json()))
        logical = tmp_path / "empty.json"
        logical.write_text(json.dumps(Circuit.from_layers(1, []).to_json()))
        capsys.readouterr()
        rc = run(["verify", "--extended", str(ext), "--logical", str(logical)])
        out = capsys.readouterr().out
        assert rc == 1 and out.count("\n") == 1
        assert out.startswith("NOT equivalent: ") and "with the 1 data qubits" in out

    def test_steiner_keeps_cx_circuit(self, tmp_path, topo):
        circ = tmp_path / "cx.json"
        circ.write_text(json.dumps(Circuit.from_layers(9, [[cx(0, 4)], [cz(4, 8)]]).to_json()))
        rc = run(["compile", "--circuit", str(circ), "--topology", str(topo),
                  "--backend", "steiner", "--cancel-pairs"])
        assert rc == 0


class TestBadInput:
    """Malformed input ends in one line on stderr and exit code 2."""

    def compile_rc(self, capsys, circ, topo, *extra):
        rc = run(["compile", "--circuit", str(circ), "--topology", str(topo),
                  "--backend", "flow-greedy", *extra])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("distqc compile: error:")
        return rc, err

    def test_qubit_twice_in_layer(self, tmp_path, capsys, topo):
        circ = tmp_path / "dup.json"
        circ.write_text(json.dumps(Circuit.from_layers(9, [[cz(0, 1), cz(1, 2)]]).to_json()))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and "qubit 1 used twice" in err

    def test_placement_outside_graph(self, tmp_path, capsys, topo, circ):
        placement = tmp_path / "p.json"
        placement.write_text(json.dumps({"map": [99] + list(range(1, 9))}))
        rc, err = self.compile_rc(capsys, circ, topo, "--placement", str(placement))
        assert rc == 2 and "processor 99" in err

    def test_disconnected_topology(self, tmp_path, capsys, circ):
        topo = tmp_path / "split.json"
        topo.write_text(json.dumps({"nodes": 9, "edges": [[0, 1, 1], [2, 3, 1]]}))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and "disconnected" in err

    def test_topology_without_edges(self, tmp_path, capsys, circ):
        topo = tmp_path / "noedges.json"
        topo.write_text(json.dumps({"nodes": 9}))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and f"{topo}: missing key 'edges'" in err

    def test_condition_on_unmeasured_bit(self, tmp_path, capsys, topo):
        circ = tmp_path / "cond.json"
        logical = Circuit.from_layers(9, [[cx(0, 1)], [pauli(2, "X", XorExpr.of(1))]])
        circ.write_text(json.dumps(logical.to_json()))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and "layer 1: pauli on qubit 2 reads bit 1" in err

    def test_qubit_twice_in_layer_steiner(self, tmp_path, capsys, topo):
        circ = tmp_path / "dup.json"
        circ.write_text(json.dumps(Circuit.from_layers(9, [[cz(0, 1), cz(1, 2)]]).to_json()))
        rc = run(["compile", "--circuit", str(circ), "--topology", str(topo),
                  "--backend", "steiner"])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1 and "qubit 1 used twice" in err

    def test_verify_extended_given_logical_circuit(self, capsys, circ):
        rc = run(["verify", "--extended", str(circ), "--logical", str(circ)])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1
        assert err.startswith(f"distqc verify: error: {circ}: missing key")

    @pytest.fixture
    def compiled_cx(self, tmp_path, topo):
        logical = tmp_path / "cx.json"
        logical.write_text(json.dumps(Circuit.from_layers(2, [[cx(0, 1)]]).to_json()))
        ext = tmp_path / "cx_ext.json"
        assert run(["compile", "--circuit", str(logical), "--topology", str(topo),
                    "--backend", "flow-greedy", "--extended-out", str(ext)]) == 0
        return ext

    def verify_rc(self, capsys, ext, logical, *extra):
        capsys.readouterr()
        rc = run(["verify", "--extended", str(ext), "--logical", str(logical), *extra])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("distqc verify: error:")
        return rc, err

    @pytest.mark.parametrize("flag", ["--trials", "--branches"])
    def test_verify_needs_one_trial_and_branch(self, tmp_path, capsys, compiled_cx, flag):
        # a CX checked against a CZ: zero trials or branches must not pass it
        logical = tmp_path / "cz.json"
        logical.write_text(json.dumps(Circuit.from_layers(2, [[cz(0, 1)]]).to_json()))
        assert run(["verify", "--extended", str(compiled_cx), "--logical", str(logical)]) == 1
        rc, err = self.verify_rc(capsys, compiled_cx, logical, flag, "0")
        assert rc == 2 and "at least one trial and one branch" in err

    def test_verify_non_unitary_logical_circuit(self, tmp_path, capsys, compiled_cx):
        logical = tmp_path / "cx_meas.json"
        circ = Circuit.from_layers(2, [[cx(0, 1)], [meas(1, "Z", 9)]])
        logical.write_text(json.dumps(circ.to_json()))
        rc, err = self.verify_rc(capsys, compiled_cx, logical)
        assert rc == 2 and "logical layer 1: meas on qubits [1] is not unitary" in err

    def test_logical_bell_refused(self, tmp_path, capsys, topo, compiled_cx):
        # compiled, it would drop qubit 0's pending correction; verified, it
        # would run as H then CX
        circ = tmp_path / "bell.json"
        circ.write_text(json.dumps(Circuit.from_layers(9, [[cx(0, 4)], [bell(0, 1)]]).to_json()))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and "layer 1: bell on qubits [0, 1] is not a logical gate" in err
        rc, err = self.verify_rc(capsys, compiled_cx, circ)
        assert rc == 2 and f"{circ}: layer 1: bell on qubits [0, 1] is not a logical gate" in err

    def test_verify_extended_gate_out_of_range(self, tmp_path, capsys, compiled_cx):
        doc = json.loads(compiled_cx.read_text())
        doc["layers"][0].append({"kind": "yhalf", "q": [doc["qubits"]]})
        bad = tmp_path / "bad_ext.json"
        bad.write_text(json.dumps(doc))
        logical = tmp_path / "cx.json"
        rc, err = self.verify_rc(capsys, bad, logical)
        assert rc == 2 and f"on qubits [{doc['qubits']}]" in err

    def write_pair(self, tmp_path, gate, logical_layers):
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps({"qubits": 2, "data": 1, "layers": [[gate]], "frame": {}}))
        logical = tmp_path / "logical.json"
        logical.write_text(json.dumps({"qubits": 1, "layers": logical_layers}))
        return ext, logical

    def test_verify_pauli_with_unknown_basis(self, tmp_path, capsys):
        # read as a Z flip, it would match the logical Z
        ext, logical = self.write_pair(
            tmp_path, {"kind": "pauli", "q": [0], "basis": "Y"},
            [[{"kind": "pauli", "q": [0], "basis": "Z"}]],
        )
        rc, err = self.verify_rc(capsys, ext, logical)
        assert rc == 2 and "pauli gate on qubits [0] has basis 'Y', expected X or Z" in err

    def test_verify_prep_with_unknown_basis(self, tmp_path, capsys):
        # read as a Z prep, it would pass as |0>
        ext, logical = self.write_pair(tmp_path, {"kind": "prep", "q": [1], "basis": "Y"}, [])
        rc, err = self.verify_rc(capsys, ext, logical)
        assert rc == 2 and "prep gate on qubits [1] has basis 'Y'" in err

    def test_verify_bell_with_unknown_variant(self, tmp_path, capsys):
        # the simulator has no Bell state by that name
        ext, logical = self.write_pair(tmp_path, {"kind": "bell", "q": [0, 1], "variant": "nope"}, [])
        rc, err = self.verify_rc(capsys, ext, logical)
        assert rc == 2 and "bell gate on qubits [0, 1] has variant 'nope'" in err

    @pytest.mark.parametrize(
        "layers,frame,message",
        [
            ([[{"kind": "pauli", "q": [0], "basis": "X", "cond": ["b7"]}]], {},
             "layer 0: pauli on qubit 0 reads bit 7, which no meas of an earlier layer emits"),
            ([[{"kind": "meas", "q": [1], "bit": 2}]], {"q0": {"x": ["b2", "b9"]}},
             "frame entry q0 x reads bit 9, which no meas emits"),
            ([], {"q-1": {"x": ["1"]}}, "bad frame key 'q-1', expected q<qubit>"),
            ([], {"q7": {"z": ["1"]}}, "frame entry q7 of a 2-qubit circuit"),
            ([[{"kind": "pauli", "q": [0], "basis": "X", "cond": [7]}]], {}, "bad xor token: 7"),
            ([[{"kind": "meas", "q": [1]}]], {}, "layer 0: meas on qubit 1 emits no bit"),
            ([], [], "frame must map q<qubit> keys to x and z token lists"),
            ([], {"q0": ["1"]}, "frame entry q0 must hold only x and z token lists"),
            ([], {"q0": {"y": ["1"]}}, "frame entry q0 must hold only x and z token lists"),
        ],
        ids=["unemitted-cond", "unemitted-frame-bit", "negative-frame-key",
             "frame-qubit-out-of-range", "int-cond-token", "meas-without-bit",
             "frame-not-object", "frame-entry-not-object", "frame-entry-unknown-axis"],
    )
    def test_verify_malformed_extended(self, tmp_path, capsys, layers, frame, message):
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps({"qubits": 2, "data": 1, "layers": layers, "frame": frame}))
        logical = tmp_path / "logical.json"
        logical.write_text(json.dumps({"qubits": 1, "layers": []}))
        rc, err = self.verify_rc(capsys, ext, logical)
        assert rc == 2 and err == f"distqc verify: error: {ext}: {message}\n"

    def test_non_string_condition_token(self, tmp_path, capsys, topo, compiled_cx):
        circ = tmp_path / "cond.json"
        circ.write_text(json.dumps({"qubits": 9, "layers": [
            [{"kind": "meas", "q": [0], "bit": 7}],
            [{"kind": "pauli", "q": [1], "basis": "X", "cond": [7]}],
        ]}))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and err == f"distqc compile: error: {circ}: bad xor token: 7\n"
        rc, err = self.verify_rc(capsys, compiled_cx, circ)
        assert rc == 2 and err == f"distqc verify: error: {circ}: bad xor token: 7\n"

    @pytest.mark.parametrize(
        "gate,message",
        [
            ({"kind": "yhalf", "q": [0, 1]},
             "yhalf gate on qubits [0, 1] has the wrong number of operands, expected 1"),
            ({"kind": "pauli", "q": [0, 1], "basis": "X"},
             "pauli gate on qubits [0, 1] has the wrong number of operands, expected 1"),
            ({"kind": "cx", "q": [0, 1, 2]},
             "cx gate on qubits [0, 1, 2] has the wrong number of operands, expected 2"),
            ({"kind": "cx", "q": [0]}, "cx gate on qubits [0] has the wrong number of operands, expected 2"),
            ({"kind": "fanin", "q": [0]},
             "fanin gate on qubits [0] has the wrong number of operands, expected 2 or more"),
            ({"kind": "yhalf", "q": [0], "basis": "Q"},
             "yhalf gate on qubits [0] has basis 'Q', expected none"),
            ({"kind": "swap", "q": [0, 1]}, 'unknown gate kind "swap"'),
            ({"kind": "cx", "q": [0, 1.0]}, "cx gate qubit must be a non-negative integer, got 1.0"),
            ({"kind": "yhalf", "q": [True]}, "yhalf gate qubit must be a non-negative integer, got true"),
            ({"kind": "cx", "q": [0, -1]}, "cx gate qubit must be a non-negative integer, got -1"),
            ({"kind": "meas", "q": [0], "bit": "3"}, 'meas gate bit must be a non-negative integer, got "3"'),
            ({"kind": "cx", "q": [1, 1]}, "cx gate on qubits [1, 1] repeats an operand"),
            ({"kind": "fanin", "q": [0, 2, 0]}, "fanin gate on qubits [0, 2, 0] repeats an operand"),
        ],
        ids=["yhalf-two-qubits", "pauli-two-qubits", "cx-three-operands", "cx-one-operand",
             "fanin-one-operand", "yhalf-basis", "unknown-kind", "float-qubit", "bool-qubit",
             "negative-qubit", "string-bit", "cx-repeated-operand", "fanin-repeated-operand"],
    )
    def test_malformed_gate(self, tmp_path, capsys, topo, compiled_cx, gate, message):
        # compiled as a logical circuit, and verified as each of the two inputs
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps({"qubits": 9, "layers": [[gate]]}))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and err == f"distqc compile: error: {circ}: {message}\n"
        rc, err = self.verify_rc(capsys, compiled_cx, circ)
        assert rc == 2 and err == f"distqc verify: error: {circ}: {message}\n"
        ext, logical = self.write_pair(tmp_path, gate, [])
        rc, err = self.verify_rc(capsys, ext, logical)
        assert rc == 2 and err == f"distqc verify: error: {ext}: {message}\n"

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"nodes": 9, "edges": [[0, 1.0, 1]]}, "edge entry must be a non-negative integer, got 1.0"),
            ({"nodes": 9, "edges": [[0, 1, 1.5]]}, "edge entry must be a non-negative integer, got 1.5"),
            ({"nodes": 9.0, "edges": [[0, 1, 1]]}, "node count must be a non-negative integer, got 9.0"),
        ],
        ids=["float-endpoint", "float-capacity", "float-node-count"],
    )
    def test_malformed_topology(self, tmp_path, capsys, circ, doc, message):
        topo = tmp_path / "bad_topo.json"
        topo.write_text(json.dumps(doc))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and err == f"distqc compile: error: {topo}: {message}\n"

    @pytest.mark.parametrize("entry,shown", [(1.0, "1.0"), (True, "true")])
    def test_placement_entry_not_an_int(self, tmp_path, capsys, topo, circ, entry, shown):
        placement = tmp_path / "p.json"
        placement.write_text(json.dumps({"map": [0, entry] + list(range(2, 9))}))
        rc, err = self.compile_rc(capsys, circ, topo, "--placement", str(placement))
        message = f"placement processor must be a non-negative integer, got {shown}"
        assert rc == 2 and err == f"distqc compile: error: {placement}: {message}\n"

    def test_qubit_counts_not_ints(self, tmp_path, capsys, topo, compiled_cx):
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps({"qubits": 9.0, "layers": []}))
        message = f"{circ}: qubit count must be a non-negative integer, got 9.0\n"
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and err == f"distqc compile: error: {message}"
        rc, err = self.verify_rc(capsys, compiled_cx, circ)
        assert rc == 2 and err == f"distqc verify: error: {message}"
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps({"qubits": 2, "data": True, "layers": [], "frame": {}}))
        rc, err = self.verify_rc(capsys, ext, circ)
        message = "data qubit count must be a non-negative integer, got true"
        assert rc == 2 and err == f"distqc verify: error: {ext}: {message}\n"

    def test_verify_logical_qubit_out_of_range(self, tmp_path, capsys, compiled_cx):
        logical = tmp_path / "wide.json"
        logical.write_text(json.dumps({"qubits": 2, "layers": [[{"kind": "cz", "q": [0, 5]}]]}))
        rc, err = self.verify_rc(capsys, compiled_cx, logical)
        assert rc == 2 and "qubit 5 out of range" in err


class TestBenchCommand:
    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = run(["bench", "--topologies", "rect-low", "--g", "2", "--sizes", "8",
                  "--samples", "2", "--backends", "flow-greedy", "--seed", "5",
                  "--out", str(out), "--no-timing"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "topology,g,nodes,edges,k,backend,e_depth,e_count,wall_time_ms,seed"
        assert len(lines) == 3


def test_cli_import_leaves_networkx_unloaded():
    # numpy is the only runtime dependency; networkx is a test reference only
    src = str(Path(distqc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, distqc.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
