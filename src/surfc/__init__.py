"""surfc: a surface-code circuit mapping and scheduling compiler.

Transforms logical CNOT circuits into cycle-by-cycle encoded schedules on a
2D-lattice chip, for both the double-defect (braiding) and lattice-surgery
models, minimizing the cycle count.

The exhaustive layering-width oracle of ``surfc oracle`` (``OracleBudget``,
``optimal_pm``) is not re-exported here: it serves that command and the tests
only, so it is imported from ``surfc.oracle``.
"""
from .chip import (
    ChipLayout,
    ChipModel,
    ChipSpec,
    channel_bandwidth,
    chip_capacity,
    config_dims,
    derive_layout,
    dims_for_avg_bandwidth,
)
from .circuits import CnotGate, CommGraph, GateDag, LogicalCircuit, build_comm_graph, build_dag, circuit
from .errors import (
    BudgetExceededError,
    CircuitError,
    InfeasibleError,
    QasmError,
    SchedulingError,
    SurfcError,
)
from .generate import gen_random_circuit
from .harness import RunConfig, RunReport, compare, run, run_full, sweep
from .placement import (
    ArrayShape,
    CutType,
    TileMapping,
    adjust_bandwidth,
    baseline_cuts,
    baseline_mapping,
    establish_mapping,
    init_cut_types,
    mapping_cost,
)
from .profiler import LayerSchedule, para_finding
from .qasm import parse_qasm
from .router import CycleOccupancy, RoutePath, find_path, route_batch_guaranteed
from .scheduler import (
    EncodedSchedule,
    bipartite_prefix,
    schedule_limited,
    schedule_sufficient,
    validate,
)

__version__ = "0.1.0"
