import json

import pytest

from distqc.circuit import Circuit, cx, cz
from distqc.cli import main


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

    def test_verify_extended_gate_out_of_range(self, tmp_path, capsys, compiled_cx):
        doc = json.loads(compiled_cx.read_text())
        doc["layers"][0].append({"kind": "yhalf", "q": [doc["qubits"]]})
        bad = tmp_path / "bad_ext.json"
        bad.write_text(json.dumps(doc))
        logical = tmp_path / "cx.json"
        rc, err = self.verify_rc(capsys, bad, logical)
        assert rc == 2 and f"on qubits [{doc['qubits']}]" in err

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
