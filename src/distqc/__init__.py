"""distqc: compiling layered quantum circuits onto distributed architectures.

The pipeline: model the architecture as its capacitated processor-level
quotient graph (netmodel), extract remote interactions from a placed layered circuit
(circuit), schedule them over discrete entanglement rounds (flow) or per-gate
entanglement trees (steiner), expand every remote gate into a Bell-pair
protocol with classically deferred corrections (telegate, pauli, pushing),
and verify the result against the source with a stabilizer simulator
(stabsim).  bench and cli wrap the benchmark matrix and the command line.
"""

from .circuit import (
    Circuit,
    CommoditySet,
    Gate,
    Placement,
    extract_commodities,
)
from .flow import (
    FlowSchedule,
    ScheduleMetrics,
    check_feasible,
    compile_circuit_flow,
    iterative_greedy,
    metrics,
    quickest_flow,
    solve_mcf_exact,
)
from .netmodel import QuotientGraph, edge_node_ratio, gen_hex, gen_rect_high, gen_rect_low
from .pauli import PauliFrame, XorExpr
from .pushing import normalize_frame, push_pauli
from .stabsim import StabilizerState, channel_equivalent
from .steiner import (
    SteinerInstance,
    compile_circuit_steiner,
    cz_to_dense_fanin,
    steiner_tree_approx,
    steiner_tree_exact,
)
from .telegate import ExtendedCircuit, expand_fanin_tree, expand_telegate_cx, expand_telegate_cz

__version__ = "0.1.0"
