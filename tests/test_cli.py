import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distqc
from distqc.circuit import Circuit, Placement, cx, cz, meas
from distqc.cli import main
from distqc.pauli import MAX_BIT_ID, PauliFrame
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

    def test_negative_gate_count_refused(self, tmp_path, capsys):
        # it would write an empty circuit and exit 0
        out = tmp_path / "c.json"
        rc = run(["gen-circuit", "--type", "random-cz", "--qubits", "4", "--gates", "-5", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err == "distqc gen-circuit: error: gate count must be non-negative, got -5\n"


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
        rc = run(["verify", "--extended", str(ext), "--logical", str(circ)])
        assert rc == 0

    def test_verify_rejects_wrong_circuit(self, tmp_path, topo, circ):
        other = tmp_path / "other.json"
        run(["gen-circuit", "--type", "random-cz", "--qubits", "9", "--gates", "15",
             "--seed", "99", "--out", str(other)])
        ext = tmp_path / "e.json"
        run(["compile", "--circuit", str(circ), "--topology", str(topo),
             "--backend", "flow-greedy", "--extended-out", str(ext)])
        rc = run(["verify", "--extended", str(ext), "--logical", str(other)])
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
        rc = run(["verify", "--extended", str(ext), "--logical", str(circ)])
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

    @pytest.mark.parametrize("backend", ["flow-greedy", "steiner"])
    def test_empty_circuit_compiles_and_verifies(self, tmp_path, capsys, topo, backend):
        circ = tmp_path / "empty.json"
        circ.write_text(json.dumps({"qubits": 0, "layers": []}))
        ext = tmp_path / "e.json"
        rc = run(["compile", "--circuit", str(circ), "--topology", str(topo),
                  "--backend", backend, "--extended-out", str(ext)])
        assert rc == 0
        assert json.loads(ext.read_text()) == {"qubits": 0, "data": 0, "layers": [], "frame": {}}
        capsys.readouterr()
        assert run(["verify", "--extended", str(ext), "--logical", str(circ)]) == 0
        assert capsys.readouterr().out == "equivalent\n"

    def test_steiner_keeps_cx_circuit(self, tmp_path, topo):
        circ = tmp_path / "cx.json"
        circ.write_text(json.dumps(Circuit.from_layers(9, [[cx(0, 4)], [cz(4, 8)]]).to_json()))
        rc = run(["compile", "--circuit", str(circ), "--topology", str(topo),
                  "--backend", "steiner"])
        assert rc == 0

    def test_steiner_cancels_repeated_cz_pair(self, tmp_path, topo):
        circ = tmp_path / "twice.json"
        layers = [[cz(0, 4)], [cz(0, 4)], [cz(4, 8)]]
        circ.write_text(json.dumps(Circuit.from_layers(9, layers).to_json()))
        sched = tmp_path / "s.json"
        ext = tmp_path / "e.json"
        rc = run(["compile", "--circuit", str(circ), "--topology", str(topo),
                  "--backend", "steiner", "--out", str(sched), "--extended-out", str(ext)])
        assert rc == 0
        # the two cz(0, 4) cancel: one fan-in, cz(4, 8), is left
        assert len(json.loads(sched.read_text())["assignments"]) == 1
        assert run(["verify", "--extended", str(ext), "--logical", str(circ)]) == 0


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
        circ.write_text(json.dumps({"qubits": 9, "layers": [
            [{"kind": "cz", "q": [0, 1]}, {"kind": "cz", "q": [1, 2]}],
        ]}))
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

    def test_topology_without_processors(self, tmp_path, capsys, circ):
        topo = tmp_path / "nonodes.json"
        topo.write_text(json.dumps({"nodes": 0, "edges": []}))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and err == f"distqc compile: error: {topo}: topology has no processors\n"

    def test_topology_without_edges(self, tmp_path, capsys, circ):
        topo = tmp_path / "noedges.json"
        topo.write_text(json.dumps({"nodes": 9}))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and f"{topo}: missing key 'edges'" in err

    def test_condition_on_unmeasured_bit(self, tmp_path, capsys, topo):
        circ = tmp_path / "cond.json"
        circ.write_text(json.dumps({"qubits": 9, "layers": [
            [{"kind": "cx", "q": [0, 1]}],
            [{"kind": "pauli", "q": [2], "basis": "X", "cond": ["b1"]}],
        ]}))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and "layer 1: pauli on qubit 2 reads bit 1" in err

    def test_qubit_twice_in_layer_steiner(self, tmp_path, capsys, topo):
        circ = tmp_path / "dup.json"
        circ.write_text(json.dumps({"qubits": 9, "layers": [
            [{"kind": "cz", "q": [0, 1]}, {"kind": "cz", "q": [1, 2]}],
        ]}))
        rc = run(["compile", "--circuit", str(circ), "--topology", str(topo),
                  "--backend", "steiner"])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1 and "qubit 1 used twice" in err

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"qubits": 4, "layers": 5}, '"layers" must be a JSON array, got 5'),
            ({"qubits": 4, "layers": [7]}, "layer 0 must be a JSON array, got 7"),
            ({"qubits": 4, "layers": [[], {"kind": "cz"}]},
             'layer 1 must be a JSON array, got {"kind": "cz"}'),
            ({"qubits": 4, "layers": [[], [{"kind": "cz", "q": 5}]]},
             'layer 1: cz gate "q" must be a JSON array, got 5'),
            ({"qubits": 4, "layers": [[], [{"kind": "cz", "q": [0, 0.5]}]]},
             "layer 1: cz gate qubit must be a non-negative integer, got 0.5"),
            ({"qubits": 4, "layers": [[], [], [{"kind": "cz"}]]}, "layer 2: missing key 'q'"),
        ],
        ids=["layers-number", "layer-number", "layer-object", "gate-q-number", "gate-q-float",
             "gate-no-q"],
    )
    def test_circuit_lists_checked(self, tmp_path, capsys, topo, doc, message):
        # iterating a number failed with Python's own 'int' object is not iterable
        circ = tmp_path / "bad.json"
        circ.write_text(json.dumps(doc))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and err == f"distqc compile: error: {circ}: {message}\n"

    @pytest.mark.parametrize(
        "edges,message",
        [
            (3, 'topology "edges" must be a JSON array, got 3'),
            ([[0, 1, 1], 4], "edge 1 must be a JSON array [u, v, capacity], got 4"),
            ([[0, 1]], "edge 0 must be a JSON array [u, v, capacity], got [0, 1]"),
        ],
        ids=["edges-number", "edge-number", "edge-short"],
    )
    def test_topology_edges_checked(self, tmp_path, capsys, circ, edges, message):
        topo = tmp_path / "bad.json"
        topo.write_text(json.dumps({"nodes": 9, "edges": edges}))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and err == f"distqc compile: error: {topo}: {message}\n"

    def test_placement_map_checked(self, tmp_path, capsys, topo, circ):
        placement = tmp_path / "p.json"
        placement.write_text(json.dumps({"map": 0}))
        rc, err = self.compile_rc(capsys, circ, topo, "--placement", str(placement))
        assert rc == 2 and err == f'distqc compile: error: {placement}: placement "map" must be a JSON array, got 0\n'

    def test_verify_extended_given_logical_circuit(self, capsys, circ):
        rc = run(["verify", "--extended", str(circ), "--logical", str(circ)])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1
        assert err.startswith(f"distqc verify: error: {circ}: missing key")

    @pytest.mark.parametrize("command", ["compile", "verify"])
    @pytest.mark.parametrize(
        "content,message",
        [(None, "No such file or directory"), ("{\"qubits\": 2,", "malformed JSON: Expecting")],
    )
    def test_unreadable_input_file(self, tmp_path, capsys, topo, circ, command, content, message):
        bad = tmp_path / "in.json"
        if content is not None:
            bad.write_text(content)
        if command == "compile":
            argv = ["compile", "--circuit", str(bad), "--topology", str(topo), "--backend", "flow-greedy"]
        else:
            argv = ["verify", "--extended", str(bad), "--logical", str(circ)]
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1
        assert err.startswith(f"distqc {command}: error: {bad}: {message}")

    @pytest.fixture
    def compiled_cx(self, tmp_path, topo):
        logical = tmp_path / "cx.json"
        logical.write_text(json.dumps(Circuit.from_layers(2, [[cx(0, 1)]]).to_json()))
        ext = tmp_path / "cx_ext.json"
        assert run(["compile", "--circuit", str(logical), "--topology", str(topo),
                    "--backend", "flow-greedy", "--extended-out", str(ext)]) == 0
        return ext

    def verify_rc(self, capsys, ext, logical):
        capsys.readouterr()
        rc = run(["verify", "--extended", str(ext), "--logical", str(logical)])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("distqc verify: error:")
        return rc, err

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
        circ.write_text(json.dumps({"qubits": 9, "layers": [
            [{"kind": "cx", "q": [0, 4]}],
            [{"kind": "bell", "q": [0, 1], "variant": "phi+"}],
        ]}))
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
            ([[{"kind": "pauli", "q": [0], "basis": "X", "cond": [7]}]], {}, "layer 0: bad xor token: 7"),
            ([[{"kind": "meas", "q": [1]}]], {}, "layer 0: meas on qubit 1 emits no bit"),
            ([], [], "frame must map q<qubit> keys to x and z token lists"),
            ([], {"q0": ["1"]}, "frame entry q0 must hold only x and z token lists"),
            ([], {"q0": {"y": ["1"]}}, "frame entry q0 must hold only x and z token lists"),
            # read as qubit 1, the two entries would cancel to an empty frame
            ([], {"q1": {"x": ["1"]}, "q01": {"x": ["1"]}}, "bad frame key 'q01', expected q<qubit>"),
            # the simulator would keep only the later outcome
            ([[{"kind": "meas", "q": [0], "bit": 2}], [{"kind": "meas", "q": [1], "bit": 2}]], {},
             "layer 1: bit 2 emitted twice"),
            # read as bit 1, the two tokens would cancel to an empty correction
            ([[{"kind": "meas", "q": [1], "bit": 1}]], {"q0": {"x": ["b1", "b01"]}},
             "bad xor token: 'b01'"),
            (3, {}, '"layers" must be a JSON array, got 3'),
            ([[], 4], {}, "layer 1 must be a JSON array, got 4"),
            # a string was iterated as its characters: "1" read as ["1"]
            ([[{"kind": "pauli", "q": [0], "basis": "X", "cond": "1"}]], {},
             'layer 0: pauli gate "cond" must be a JSON array, got "1"'),
            ([], {"q0": {"x": "1"}}, "frame entry q0 must hold only x and z token lists"),
            ([[{"kind": "meas", "q": [1], "bit": 1}], [{"kind": "cz", "q": [0, 0.5]}]], {},
             "layer 1: cz gate qubit must be a non-negative integer, got 0.5"),
        ],
        ids=["unemitted-cond", "unemitted-frame-bit", "negative-frame-key",
             "frame-qubit-out-of-range", "int-cond-token", "meas-without-bit",
             "frame-not-object", "frame-entry-not-object", "frame-entry-unknown-axis",
             "leading-zero-frame-key", "bit-emitted-twice", "leading-zero-cond-token",
             "layers-number", "layer-number", "cond-string", "frame-tokens-string", "gate-float-qubit"],
    )
    def test_verify_malformed_extended(self, tmp_path, capsys, layers, frame, message):
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps({"qubits": 2, "data": 1, "layers": layers, "frame": frame}))
        logical = tmp_path / "logical.json"
        logical.write_text(json.dumps({"qubits": 1, "layers": []}))
        rc, err = self.verify_rc(capsys, ext, logical)
        assert rc == 2 and err == f"distqc verify: error: {ext}: {message}\n"

    @pytest.mark.parametrize(
        "layer,message",
        [
            # the simulator would entangle the flipped qubit, not a fresh |0>
            ([{"kind": "pauli", "q": [4], "basis": "X", "cond": ["1"]}],
             "bell gate on qubits [4, 5] needs fresh qubits: qubit 4 is acted on by an earlier gate"),
            ([{"kind": "bell", "q": [1, 2], "variant": "phi+"}],
             "bell gate on qubits [1, 2] needs fresh qubits: qubit 1 is a data qubit"),
        ],
        ids=["after-pauli", "on-data-qubit"],
    )
    def test_verify_bell_on_used_qubit(self, tmp_path, capsys, layer, message):
        logical = tmp_path / "cx.json"
        logical.write_text(json.dumps(Circuit.from_layers(4, [[cx(0, 3)]]).to_json()))
        topo = tmp_path / "topo.json"
        assert run(["gen-topology", "--kind", "rect-low", "--g", "1", "--out", str(topo)]) == 0
        ext = tmp_path / "ext.json"
        assert run(["compile", "--circuit", str(logical), "--topology", str(topo),
                    "--backend", "flow-greedy", "--extended-out", str(ext)]) == 0
        doc = json.loads(ext.read_text())
        assert {"kind": "bell", "q": [4, 5], "variant": "phi+"} in doc["layers"][0]
        doc["layers"].insert(0, layer)
        ext.write_text(json.dumps(doc))
        rc, err = self.verify_rc(capsys, ext, logical)
        assert rc == 2 and err == f"distqc verify: error: {ext}: {message}\n"

    def test_verify_unknown_extended_key(self, tmp_path, capsys, compiled_cx):
        # read without the key, the circuit would have an empty frame
        doc = json.loads(compiled_cx.read_text())
        doc["frames"] = doc.pop("frame")
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps(doc))
        logical = tmp_path / "cx.json"
        rc, err = self.verify_rc(capsys, ext, logical)
        assert rc == 2 and err == f'distqc verify: error: {ext}: extended circuit has unknown key "frames"\n'

    @staticmethod
    def measure_then_six_remote_cx(bit):
        """A 9-qubit circuit whose expansion on rect-low g=3 (round robin)
        emits the 32 bits above its one logical bit."""
        return Circuit.from_layers(9, [
            [meas(0, "Z", bit)], [cx(1, 8), cx(2, 6)], [cx(3, 7), cx(4, 5)], [cx(8, 1), cx(6, 3)],
        ])

    @pytest.mark.parametrize("bit", [MAX_BIT_ID, MAX_BIT_ID - 31])
    def test_compile_refuses_output_above_bit_cap(self, tmp_path, capsys, topo, bit):
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps(self.measure_then_six_remote_cx(bit).to_json()))
        rc, err = self.compile_rc(capsys, circ, topo)
        last = bit + 32
        assert rc == 2 and err == f"distqc compile: error: bit id {last} is above the cap {MAX_BIT_ID}\n"

    def test_compile_output_at_bit_cap_reads_back(self, tmp_path, capsys, topo):
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps(self.measure_then_six_remote_cx(MAX_BIT_ID - 32).to_json()))
        ext = tmp_path / "ext.json"
        assert run(["compile", "--circuit", str(circ), "--topology", str(topo),
                    "--backend", "flow-greedy", "--extended-out", str(ext)]) == 0
        extended = ExtendedCircuit.from_json(json.loads(ext.read_text()))
        assert max(g.bit for g in extended.gates if g.kind == "meas") == MAX_BIT_ID

    def test_non_string_condition_token(self, tmp_path, capsys, topo, compiled_cx):
        circ = tmp_path / "cond.json"
        circ.write_text(json.dumps({"qubits": 9, "layers": [
            [{"kind": "meas", "q": [0], "bit": 7}],
            [{"kind": "pauli", "q": [1], "basis": "X", "cond": [7]}],
        ]}))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and err == f"distqc compile: error: {circ}: layer 1: bad xor token: 7\n"
        rc, err = self.verify_rc(capsys, compiled_cx, circ)
        assert rc == 2 and err == f"distqc verify: error: {circ}: layer 1: bad xor token: 7\n"

    def test_condition_token_above_bit_cap(self, tmp_path, capsys, topo, compiled_cx):
        circ = tmp_path / "cond.json"
        circ.write_text(json.dumps({"qubits": 9, "layers": [
            [{"kind": "meas", "q": [0], "bit": 7}],
            [{"kind": "pauli", "q": [1], "basis": "X", "cond": ["b7", "b1048577"]}],
        ]}))
        message = "bit id 1048577 is above the cap 1048576"
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and err == f"distqc compile: error: {circ}: layer 1: {message}\n"
        rc, err = self.verify_rc(capsys, compiled_cx, circ)
        assert rc == 2 and err == f"distqc verify: error: {circ}: layer 1: {message}\n"
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps({"qubits": 2, "data": 1, "layers": [],
                                   "frame": {"q0": {"z": ["b1048577"]}}}))
        logical = tmp_path / "logical.json"
        logical.write_text(json.dumps({"qubits": 1, "layers": []}))
        rc, err = self.verify_rc(capsys, ext, logical)
        assert rc == 2 and err == f"distqc verify: error: {ext}: {message}\n"

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
            # every expansion mask would be ten million bits wide
            ({"kind": "meas", "q": [0], "bit": 10000000}, "bit id 10000000 is above the cap 1048576"),
            # read without the key: an X fan-in, and a Z measurement
            ({"kind": "fanin", "q": [0, 4, 8], "bases": "Z"}, 'fanin gate has unknown key "bases"'),
            ({"kind": "meas", "q": [0], "bit": 1, "Basis": "X"}, 'meas gate has unknown key "Basis"'),
            (["cz", 0, 1], "gate must be a JSON object"),
            ("cz", "gate must be a JSON object"),
        ],
        ids=["yhalf-two-qubits", "pauli-two-qubits", "cx-three-operands", "cx-one-operand",
             "fanin-one-operand", "yhalf-basis", "unknown-kind", "float-qubit", "bool-qubit",
             "negative-qubit", "string-bit", "cx-repeated-operand", "fanin-repeated-operand",
             "bit-above-cap", "fanin-misspelt-basis", "meas-misspelt-basis", "gate-list",
             "gate-string"],
    )
    def test_malformed_gate(self, tmp_path, capsys, topo, compiled_cx, gate, message):
        # compiled as a logical circuit, and verified as each of the two inputs
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps({"qubits": 9, "layers": [[gate]]}))
        rc, err = self.compile_rc(capsys, circ, topo)
        assert rc == 2 and err == f"distqc compile: error: {circ}: layer 0: {message}\n"
        rc, err = self.verify_rc(capsys, compiled_cx, circ)
        assert rc == 2 and err == f"distqc verify: error: {circ}: layer 0: {message}\n"
        ext, logical = self.write_pair(tmp_path, gate, [])
        rc, err = self.verify_rc(capsys, ext, logical)
        assert rc == 2 and err == f"distqc verify: error: {ext}: layer 0: {message}\n"

    @pytest.mark.parametrize(
        "role,what",
        [("circuit", "circuit"), ("topology", "topology"), ("placement", "placement"),
         ("logical", "circuit")],
    )
    def test_input_not_an_object(self, tmp_path, capsys, topo, circ, compiled_cx, role, what):
        # a list would otherwise fail on Python's own indexing message
        bad = tmp_path / "list.json"
        bad.write_text(json.dumps([9, []]))
        if role == "logical":
            rc, err = self.verify_rc(capsys, compiled_cx, bad)
            command = "verify"
        else:
            files = {"circuit": circ, "topology": topo, **{role: bad}}
            extra = ["--placement", str(bad)] if role == "placement" else []
            rc, err = self.compile_rc(capsys, files["circuit"], files["topology"], *extra)
            command = "compile"
        assert rc == 2 and err == f"distqc {command}: error: {bad}: {what} must be a JSON object\n"

    @pytest.mark.parametrize("role", ["circuit", "topology", "placement"])
    def test_unknown_top_level_key(self, tmp_path, capsys, topo, circ, role):
        files = {"circuit": circ, "topology": topo, "placement": tmp_path / "p.json"}
        files["placement"].write_text(json.dumps(Placement.identity(9).to_json()))
        doc = json.loads(files[role].read_text())
        doc["note"] = "misspelt or stray"
        files[role].write_text(json.dumps(doc))
        placement = ["--placement", str(files["placement"])]
        rc, err = self.compile_rc(capsys, files["circuit"], files["topology"], *placement)
        assert rc == 2 and err == f'distqc compile: error: {files[role]}: {role} has unknown key "note"\n'

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

    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_non_positive_samples_refused(self, tmp_path, capsys, samples):
        # it would write a CSV holding only its header and exit 0
        out = tmp_path / "bench.csv"
        rc = run(["bench", "--samples", samples, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err == f"distqc bench: error: samples must be at least 1, got {samples}\n"

    @pytest.mark.parametrize("option,value", [("--g", ""), ("--sizes", "4,x")])
    def test_non_integer_list_names_its_option(self, tmp_path, capsys, option, value):
        # bare int() named no option: invalid literal for int() with base 10
        out = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            run(["bench", option, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and not out.exists()
        assert err.splitlines()[-1] == (
            f"distqc bench: error: argument {option}: expected comma-separated integers, got {value!r}"
        )

    def test_oversize_exact_cell_refused_before_any_compile(self, tmp_path, capsys):
        # the default size 64 is far above the exact solver's 10 commodities
        out = tmp_path / "bench.csv"
        rc = run(["bench", "--backends", "flow-greedy,flow-exact", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err == (
            "distqc bench: error: flow-exact cell rect-low g=2 size 64: exact solver limited to "
            "10 commodities on 25 nodes (got k=64, nodes=6)\n"
        )

    def test_exact_cells_within_limits_run(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = run(["bench", "--backends", "flow-exact", "--sizes", "8", "--samples", "1",
                  "--out", str(out), "--no-timing"])
        assert rc == 0 and len(out.read_text().strip().splitlines()) == 1 + 4


@pytest.mark.parametrize("bad,message", [("missing/out.json", "No such file or directory"), ("", "Is a directory")])
@pytest.mark.parametrize("command", ["gen-topology", "gen-circuit", "compile --out", "compile --extended-out", "bench"])
def test_unwritable_output_refused(tmp_path, capsys, monkeypatch, topo, circ, command, bad, message):
    # each wrote through a bare open() and exited 1 with a traceback; bench
    # did so only after its whole matrix had run
    out = tmp_path / bad
    name, _, option = command.partition(" ")
    argv = {
        "gen-topology": ["--kind", "hex", "--g", "2"],
        "gen-circuit": ["--type", "hardest-fanin", "--qubits", "3"],
        "compile": ["--circuit", str(circ), "--topology", str(topo), "--backend", "flow-greedy"],
        "bench": ["--topologies", "rect-low", "--g", "2", "--sizes", "4", "--samples", "1"],
    }[name]

    def no_compile(*args):
        raise AssertionError("compiled before refusing the output path")

    monkeypatch.setattr("distqc.bench.compile_backend", no_compile)
    capsys.readouterr()
    rc = run([name, *argv, option or "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"distqc {name}: error: {out}: {message}\n"


def _checkout_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's distqc."""
    src = str(Path(distqc.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_cli_import_leaves_networkx_unloaded():
    # networkx is a test reference only; numpy, the one runtime dependency,
    # is loaded only by the exact Steiner program's numpy tables and the
    # distance matrix, so a flow run and its JSON leave it unloaded, and so
    # does a steiner run whose trees are all base cases or small enough for
    # list tables (verify-corpus's cx, cz and 3-qubit fan-ins on rect-low
    # g = 2); a steiner run with a larger tree loads it
    code = """
import random, sys
import distqc.cli
from distqc.bench import compile_backend, gen_random_cz_circuit
from distqc.circuit import Circuit, Placement, cx, cz, fanin
from distqc.netmodel import gen_rect_low
print('networkx' in sys.modules, 'numpy' in sys.modules)
graph, placement = gen_rect_low(3), Placement.identity(9)
circuit = gen_random_cz_circuit(9, 30, random.Random(1))
extended, _ = compile_backend('flow-greedy', circuit, placement, graph)
assert extended.to_json()['frame']
print('numpy' in sys.modules)
small = Circuit.from_layers(6, [[cx(0, 5), fanin(1, [2, 4])], [cz(3, 1), fanin(5, [0, 2])]])
extended, _ = compile_backend('steiner', small, Placement.identity(6), gen_rect_low(2))
assert extended.e_count == 10
print('numpy' in sys.modules)
compile_backend('steiner', circuit, placement, graph)
print('numpy' in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=_checkout_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False", "False", "False", "True"]


def test_module_entry_runs_the_cli():
    out = subprocess.run(
        [sys.executable, "-m", "distqc", "--help"], env=_checkout_env(), capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: distqc ")
    assert "gen-topology" in out.stdout
