"""Cycle-by-cycle schedule construction and validation.

Two producers:

* ``schedule_limited`` — greedy per-cycle list scheduling for scarce fabric.
  Ready gates are served in priority order (longest dependent chain first,
  then most dependents, then gate id) or in program order.  Lattice-surgery
  gates and opposite-cut braids take one cycle if a route is free.  A same-cut
  pair is either executed directly (three cycles, route held throughout) or
  one tile's cut is modified first (three cycles tile-local, then a one-cycle
  braid).  ``ecmas`` scores that choice by the M-value, which weighs cycles
  against lane pressure; a tile that has sat idle lets the modification be
  backdated into those idle cycles, which is exactly the idle credit the
  M-value assumes.  The ``LIMITED`` table names the strategies: ``ecmas`` and
  the three baselines differ only in the serving order and the same-cut rule.

* ``schedule_sufficient`` — when the chip capacity covers the layering width,
  each layer becomes one cycle of batch-routed gates.  For double defect the
  layer stream is cut into maximal prefixes whose communication sub-graph
  stays bipartite; each prefix runs under a two-coloring of its sub-graph and
  successive prefixes are separated by a three-cycle global cut remap.

``validate`` replays any schedule against the raw rules (completeness,
dependency order, per-cycle capacities, multi-cycle contiguity, cut
bookkeeping) and is run on every schedule the test suite produces.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .chip import ChipLayout, ChipModel
from .circuits import GateDag, LogicalCircuit, build_dag
from .errors import InfeasibleError, SchedulingError
from .placement import CutType, TileMapping, coloring_cuts
from .profiler import LayerSchedule, bipartite_prefix
from .router import (
    CycleOccupancy,
    RoutePath,
    find_path,
    resource_capacities,
    route_batch_guaranteed,
)

Tile = tuple[int, int]


class ActionKind(Enum):
    BRAID = "braid"     # double defect, opposite cuts, one cycle
    BELL = "bell"       # lattice surgery, one cycle, possibly empty route
    DIRECT = "direct"   # double defect, same cuts, three cycles with route held
    MODIFY = "modify"   # cut-type change, three cycles, tile-local


@dataclass(frozen=True, slots=True)
class Action:
    kind: ActionKind
    gate: int | None = None
    route: RoutePath | None = None
    tile: Tile | None = None
    new_cut: CutType | None = None
    phase: int | None = None  # 1..3 for DIRECT / MODIFY

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "gate": self.gate,
            "route": [list(n) for n in self.route.nodes] if self.route is not None else None,
            "tile": list(self.tile) if self.tile is not None else None,
            "cut": self.new_cut.value if self.new_cut is not None else None,
            "phase": self.phase,
        }


@dataclass
class EncodedSchedule:
    """The cycles of a schedule with the layout and mapping it runs on; the
    mapping alone holds the initial cut types (double defect)."""

    cycles: list[list[Action]]
    layout: ChipLayout
    mapping: TileMapping

    @property
    def model(self) -> ChipModel:
        return self.layout.model

    @property
    def delta(self) -> int:
        return len(self.cycles)

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "cycles": [
                {"index": i, "actions": [a.to_json_dict() for a in acts]}
                for i, acts in enumerate(self.cycles)
            ],
        }


@dataclass(frozen=True, slots=True)
class MValueInputs:
    m_t: int
    m_s: int
    theta: float

    @property
    def value(self) -> float:
        return self.m_t + self.theta * self.m_s


def m_value(
    circuit: LogicalCircuit,
    dag: GateDag,
    cuts: dict[int, CutType],
    gate: int,
    qubit: int,
    idle_cycles: int,
    ready_others: int,
    total_bandwidth: int,
    ) -> MValueInputs:
    """Score modifying ``qubit``'s tile to unblock a same-cut ``gate``.

    m_t: cycle delta of modify-then-braid (4) against direct (3), minus the
    idle credit — every cycle the tile already sat idle is a cycle the
    modification could have been running.  m_s: lane-cycle delta; a braid
    after modification holds one route-cycle against three for direct, so the
    baseline is -1, nudged by whether children on this qubit would end up
    same-cut (bad) or opposite-cut (good) after the flip.  theta scales lane
    pressure: many ready gates over little total bandwidth makes lanes
    precious.  Scaling theta further by the qubit count was ablation-tested
    and consistently wastes cycles, so pressure is demand over supply alone.
    """
    credit = min(3, idle_cycles)
    m_t = (4 - credit) - 3
    flipped = cuts[qubit].flipped
    m_s = -1
    for child in dag.children[gate]:
        cq, tq = circuit.gates[child].qubits
        if qubit in (cq, tq):
            other = tq if cq == qubit else cq
            m_s += 1 if cuts[other] is flipped else -1
    theta = 2.0 * ready_others / max(total_bandwidth, 1)
    return MValueInputs(m_t=m_t, m_s=m_s, theta=theta)


class _State:
    """Mutable bookkeeping for one limited-resources scheduling job.

    Gates become ready by event: once every parent of a gate has started, the
    gate is filed in ``arrivals`` under the cycle after its parents' last
    completion, and joins the ready list when the scheduler reaches that
    cycle.  Each qubit's operand tile and current cut are kept per qubit; the
    cut changes as flips land."""

    def __init__(self, circuit: LogicalCircuit, layout: ChipLayout, mapping: TileMapping,
                 dag: GateDag):
        self.circuit = circuit
        self.layout = layout
        self.mapping = mapping
        self.dag = dag
        self.occ = CycleOccupancy(layout, mapping.data_tiles(layout))
        self.cycles: list[list[Action]] = []
        self.op_tile = {q: mapping.abs_tile(layout, q) for q in mapping.positions}
        self.qubit_at = {cell: q for q, cell in mapping.positions.items()}
        cuts = mapping.cuts
        self.cut: dict[int, CutType] = {q: cuts[q] for q in mapping.positions} if cuts else {}
        self.pending_flips: list[tuple[int, Tile, CutType]] = []  # (effective cycle, tile, cut)
        self.last_busy: dict[Tile, int] = {}
        self.indeg = [len(self.dag.parents[v]) for v in range(circuit.g)]
        self.earliest = [0] * circuit.g
        self.arrivals: dict[int, list[int]] = {0: [v for v in range(circuit.g) if not self.indeg[v]]}
        self.started = [False] * circuit.g
        self.done = 0

    def add_action(self, t: int, action: Action) -> None:
        while len(self.cycles) <= t:
            self.cycles.append([])
        self.cycles[t].append(action)

    def hold_tile(self, tile: Tile, start: int, duration: int) -> None:
        self.occ.commit_tile(tile, start, duration)
        self.last_busy[tile] = max(self.last_busy.get(tile, -1), start + duration - 1)

    def idle_cycles(self, tile: Tile, t: int) -> int:
        return t - self.last_busy.get(tile, -1) - 1

    def apply_flips(self, t: int) -> None:
        for eff, tile, cut in list(self.pending_flips):
            if eff <= t:
                self.cut[self.qubit_at[tile]] = cut
                self.pending_flips.remove((eff, tile, cut))

    def complete(self, gate: int, tc: int) -> None:
        self.started[gate] = True
        self.done += 1
        for c in self.dag.children[gate]:
            self.indeg[c] -= 1
            self.earliest[c] = max(self.earliest[c], tc + 1)
            if not self.indeg[c]:
                self.arrivals.setdefault(self.earliest[c], []).append(c)


# strategy -> (serve ready gates in program order, same-cut rule): "mvalue"
# scores modify against direct, "time" takes the earlier completion and
# "channel" always modifies, which holds the fewest lane-cycles
LIMITED = {
    "ecmas": (False, "mvalue"),
    "circuit-order": (True, "mvalue"),
    "time-first": (False, "time"),
    "channel-first": (False, "channel"),
}


def schedule_limited(
    circuit: LogicalCircuit,
    layout: ChipLayout,
    mapping: TileMapping,
    strategy: str = "ecmas",
    dag: GateDag | None = None,
) -> EncodedSchedule:
    """Greedy per-cycle scheduling under scarce communication resources.

    Double-defect tiles start from the cut types that ``mapping`` carries.
    ``strategy`` is a key of ``LIMITED``, which fixes the serving order of
    ready gates (priority: criticality, dependents, id; or program order) and
    the same-cut rule.  ``dag`` is ``build_dag(circuit)``, built here when
    not given.
    """
    if strategy not in LIMITED:
        raise InfeasibleError(f"unknown limited-resource scheduler {strategy!r}")
    program_order, samecut = LIMITED[strategy]
    model = layout.model
    if model is ChipModel.DOUBLE_DEFECT and mapping.cuts is None:
        raise InfeasibleError("double-defect scheduling needs an initial cut assignment")
    st = _State(circuit, layout, mapping, build_dag(circuit) if dag is None else dag)
    g = circuit.g
    if g == 0:
        return EncodedSchedule([], layout, mapping)
    desc = st.dag.descendant_counts()
    prio = [(-st.dag.depth_to_sink[v], -desc[v], v) for v in range(g)]
    order = None if program_order else prio.__getitem__
    ready: list[int] = []
    t = 0
    guard = 0
    while st.done < g:
        st.apply_flips(t)
        arrivals = st.arrivals.pop(t, None)
        if arrivals:
            ready += arrivals
            ready.sort(key=order)
        committed = False
        for v in ready:
            if _try_gate(st, t, v, ready_count=len(ready), samecut=samecut):
                committed = True
        if not committed and not st.occ.busy_tiles(t):
            stuck = ready[0] if ready else None
            raise SchedulingError(
                f"gate {stuck} cannot be routed on this chip "
                f"(cycle {t}, model {model.value}); mapping leaves it unreachable"
            )
        ready = [v for v in ready if not st.started[v]]
        guard += 1
        if guard > 40 * g + 1000:
            raise SchedulingError("scheduler failed to converge; suspected livelock")
        st.occ.release(t - 3)  # a backdated modification reaches back three cycles
        t += 1
    while st.cycles and not st.cycles[-1]:
        st.cycles.pop()
    return EncodedSchedule(st.cycles, layout, mapping)


def _try_gate(st: _State, t: int, v: int, ready_count: int, samecut: str) -> bool:
    gate = st.circuit.gates[v]
    ta, tb = st.op_tile[gate.control], st.op_tile[gate.target]
    if st.occ.tile_busy(t, ta) or st.occ.tile_busy(t, tb):
        return False
    if st.layout.model is ChipModel.LATTICE_SURGERY:
        kind, path = ActionKind.BELL, find_path(st.occ, t, ta, tb)
    elif st.cut[gate.control] is not st.cut[gate.target]:
        kind, path = ActionKind.BRAID, find_path(st.occ, t, ta, tb)
    else:
        return _try_same_cut(st, t, v, ta, tb, ready_count, samecut)
    if path is None:
        return False
    st.occ.commit_route(path, t, 1)
    st.hold_tile(ta, t, 1)
    st.hold_tile(tb, t, 1)
    st.add_action(t, Action(kind, gate=v, route=path))
    st.complete(v, t)
    return True


def _try_same_cut(st: _State, t: int, v: int, ca: Tile, cb: Tile,
                  ready_count: int, samecut: str) -> bool:
    gate = st.circuit.gates[v]
    idle_a, idle_b = st.idle_cycles(ca, t), st.idle_cycles(cb, t)
    if samecut == "channel":
        choice = "modify"
    elif samecut == "time":
        # modify-then-braid finishes at t - min(3, idle) + 3; direct at t + 2
        best_idle = max(idle_a, idle_b)
        choice = "modify" if (3 - min(3, best_idle)) + 1 <= 2 else "direct"
    else:
        mv_a = m_value(st.circuit, st.dag, st.cut, v, gate.control,
                       idle_a, ready_count - 1, st.layout.total_bandwidth)
        mv_b = m_value(st.circuit, st.dag, st.cut, v, gate.target,
                       idle_b, ready_count - 1, st.layout.total_bandwidth)
        best = min(mv_a.value, mv_b.value)
        choice = "modify" if best < 0 else "direct"
    if choice == "modify":
        if samecut == "mvalue":
            pick_a = mv_a.value <= mv_b.value
        else:
            pick_a = idle_a >= idle_b
        tile, idle = (ca, idle_a) if pick_a else (cb, idle_b)
        return _commit_modify(st, t, tile, idle)
    path = find_path(st.occ, t, ca, cb, duration=3)
    if path is None:
        return False
    st.occ.commit_route(path, t, 3)
    st.hold_tile(ca, t, 3)
    st.hold_tile(cb, t, 3)
    for phase in (1, 2, 3):
        st.add_action(t + phase - 1, Action(ActionKind.DIRECT, gate=v, route=path, phase=phase))
    st.complete(v, t + 2)
    return True


def _commit_modify(st: _State, t: int, tile: Tile, idle: int) -> bool:
    """Start (possibly backdated) cut modification; the waiting gate braids
    once the flip lands.  Returns True: the modification itself is progress."""
    start = t - min(3, max(0, idle))
    new_cut = st.cut[st.qubit_at[tile]].flipped
    st.hold_tile(tile, start, 3)
    for phase in (1, 2, 3):
        st.add_action(start + phase - 1,
                      Action(ActionKind.MODIFY, tile=tile, new_cut=new_cut, phase=phase))
    st.pending_flips.append((start + 3, tile, new_cut))
    st.apply_flips(t)  # a fully backdated modify is already effective
    return True


def require_capacity(layout: ChipLayout, pm: int) -> None:
    """``schedule_sufficient``'s precondition: the chip routes a whole layer
    of the layering (``pm`` gates) in one cycle."""
    if layout.capacity < pm:
        raise InfeasibleError(
            f"chip capacity {layout.capacity} < layering width {pm}; use schedule_limited"
        )


def schedule_sufficient(
    layers: LayerSchedule,
    layout: ChipLayout,
    mapping: TileMapping,
    circuit: LogicalCircuit,
) -> EncodedSchedule:
    """One batch-routed cycle per layer; double defect additionally remaps cut
    types between maximal bipartite layer prefixes (three cycles per remap).
    The schedule's mapping carries the cuts of the first prefix."""
    model = layout.model
    require_capacity(layout, layers.pm)
    if circuit.g == 0:
        return EncodedSchedule([], layout, mapping)
    data = mapping.data_tiles(layout)
    occ = CycleOccupancy(layout, data)
    cycles: list[list[Action]] = []

    def batch(layer_gates, t: int, kind: ActionKind):
        pairs = [
            (mapping.abs_tile(layout, circuit.gates[gid].control),
             mapping.abs_tile(layout, circuit.gates[gid].target))
            for gid in layer_gates
        ]
        paths = route_batch_guaranteed(layout, pairs, data, fabric=occ.fabric)
        acts = []
        for gid, path, (ta, tb) in zip(layer_gates, paths, pairs):
            occ.commit_route(path, t, 1)
            occ.commit_tile(ta, t, 1)
            occ.commit_tile(tb, t, 1)
            acts.append(Action(kind, gate=gid, route=path))
        return acts

    if model is ChipModel.LATTICE_SURGERY:
        for i, layer in enumerate(layers.layers):
            cycles.append(batch(layer, i, ActionKind.BELL))
        return EncodedSchedule(cycles, layout, mapping)

    initial_cuts: dict[int, CutType] | None = None
    tile_cut: dict[Tile, CutType] = {}
    start = 0
    t = 0
    while start < layers.alpha:
        coloring, end = bipartite_prefix(layers, start, circuit)
        seg_cuts = coloring_cuts(coloring, circuit.n)
        if initial_cuts is None:
            initial_cuts = seg_cuts
            for q, cell in mapping.positions.items():
                tile_cut[cell] = seg_cuts[q]
        else:
            # three-cycle global remap; only tiles whose cut flips act
            flips = []
            for q in coloring:
                cell = mapping.tile_of(q)
                want = seg_cuts[q]
                if tile_cut[cell] is not want:
                    flips.append((cell, want))
            if flips:
                for phase in (1, 2, 3):
                    cycles.append([
                        Action(ActionKind.MODIFY, tile=cell, new_cut=want, phase=phase)
                        for cell, want in flips
                    ])
                for cell, want in flips:
                    occ.commit_tile(cell, t, 3)
                    tile_cut[cell] = want
                t += 3
        for i in range(start, end):
            cycles.append(batch(layers.layers[i], t, ActionKind.BRAID))
            t += 1
        start = end
    return EncodedSchedule(cycles, layout, mapping.with_cuts(initial_cuts))


# ---------------------------------------------------------------------------
# validation

def validate(
    schedule: EncodedSchedule,
    circuit: LogicalCircuit,
    layout: ChipLayout | None = None,
    mapping: TileMapping | None = None,
) -> list[str]:
    """Replay a schedule against the ground rules; returns all violations.
    ``layout`` and ``mapping`` default to the schedule's own.  Cut
    bookkeeping starts from the cuts of ``schedule.mapping``."""
    layout = schedule.layout if layout is None else layout
    mapping = schedule.mapping if mapping is None else mapping
    v: list[str] = []
    model = schedule.model
    dag = build_dag(circuit)
    cap = resource_capacities(layout)
    capacity: dict[tuple, int] = {}  # cap(res), memoised per resource
    data_tiles = mapping.data_tiles(layout)
    gates = circuit.gates
    tile_of = {q: mapping.abs_tile(layout, q) for q in mapping.positions}

    def operand_tiles(gid: int) -> tuple[Tile, Tile]:
        gate = gates[gid]
        return tile_of[gate.control], tile_of[gate.target]

    # gather per-gate execution spans, first action kinds and per-cycle
    # resource/tile usage
    gate_span: dict[int, tuple[int, int]] = {}
    gate_kind: dict[int, ActionKind] = {}
    modify_at: set[tuple[Tile, int, int]] = set()  # (tile, phase, cycle)
    modify_starts: list[tuple[Tile, int, CutType]] = []  # phase 1: (tile, cycle, cut)
    seen_direct: dict[int, list[tuple[int, int, RoutePath]]] = {}
    # a direct gate's route object and its resources, derived once for all
    # three phases; dropped at phase 3
    direct_held: dict[int, tuple[RoutePath, list[tuple]]] = {}
    for t, actions in enumerate(schedule.cycles):
        tiles_this_cycle: list[Tile] = []
        routed: list[tuple] = []  # the resources of every route held at t
        for a in actions:
            kind, gid = a.kind, a.gate
            if gid is not None:
                gate_kind.setdefault(gid, kind)
            if kind is ActionKind.BRAID or kind is ActionKind.BELL:
                if gid in gate_span:
                    v.append(f"gate {gid} executed more than once")
                gate_span[gid] = (t, t)
                if a.route is not None:
                    routed += a.route.resources()
                ta, tb = operand_tiles(gid)
                tiles_this_cycle += (ta, tb)
                _check_route(v, a, ta, tb, model)
            elif kind is ActionKind.DIRECT:
                route = a.route
                seen_direct.setdefault(gid, []).append((t, a.phase, route))
                if route is not None:
                    held = direct_held.get(gid)
                    if held is None or held[0] is not route:
                        held = direct_held[gid] = route, route.resources()
                    if a.phase == 3:
                        del direct_held[gid]
                    routed += held[1]
                tiles_this_cycle += operand_tiles(gid)
            elif kind is ActionKind.MODIFY:
                modify_at.add((a.tile, a.phase, t))
                if a.phase == 1:
                    modify_starts.append((a.tile, t, a.new_cut))
                tiles_this_cycle.append(a.tile)
        for res, used in Counter(routed).items():
            limit = capacity.get(res)
            if limit is None:
                limit = capacity[res] = cap(res)
            if used > limit:
                v.append(f"cycle {t}: resource {res} used {used} > capacity {limit}")
        seen_tiles = set(tiles_this_cycle)
        if len(seen_tiles) < len(tiles_this_cycle):
            seen_tiles = set()
            for tile in tiles_this_cycle:
                if tile in seen_tiles:
                    v.append(f"cycle {t}: tile {tile} used by two actions")
                seen_tiles.add(tile)
        if model is ChipModel.LATTICE_SURGERY:
            for a in actions:
                if a.route is not None:
                    for node in a.route.nodes:
                        if node in data_tiles:
                            v.append(f"cycle {t}: route crosses data tile {node}")
                        if node in seen_tiles:
                            v.append(f"cycle {t}: route tile {node} collides with an operand")

    # direct gates: three consecutive phases with a pinned route
    for gid, entries in seen_direct.items():
        entries.sort()
        if [p for _, p, _ in entries] != [1, 2, 3]:
            v.append(f"gate {gid}: direct execution phases are {[p for _, p, _ in entries]}")
            continue
        times = [t for t, _, _ in entries]
        if times[1] != times[0] + 1 or times[2] != times[0] + 2:
            v.append(f"gate {gid}: direct execution not contiguous at {times}")
        if len({e[2].nodes for e in entries}) != 1:
            v.append(f"gate {gid}: direct execution changed route between phases")
        if gid in gate_span:
            v.append(f"gate {gid} executed more than once")
        gate_span[gid] = (times[0], times[2])

    # modify actions: each phase-1 start needs phases 2 and 3 right after it
    flips: list[tuple[int, Tile, CutType]] = []  # (effective cycle, tile, cut)
    for tile, t0, cut in sorted(modify_starts, key=lambda m: m[:2]):
        for ph in (2, 3):
            if (tile, ph, t0 + ph - 1) not in modify_at:
                v.append(f"tile {tile}: cut modification at {t0} missing phase {ph}")
        flips.append((t0 + 3, tile, cut))

    for gid in range(circuit.g):
        if gid not in gate_span:
            v.append(f"gate {gid} never executed")
    for u in range(circuit.g):
        for w in dag.children[u]:
            if u in gate_span and w in gate_span:
                if gate_span[u][1] >= gate_span[w][0]:
                    v.append(
                        f"dependency violated: gate {w} starts at {gate_span[w][0]} "
                        f"but parent {u} completes at {gate_span[u][1]}"
                    )

    # cut bookkeeping: braids need opposite cuts, directs equal cuts
    initial_cuts = schedule.mapping.cuts
    if model is ChipModel.DOUBLE_DEFECT and initial_cuts is not None:
        tile_cut = {mapping.tile_of(q): initial_cuts[q] for q in mapping.positions}
        flips.sort(key=lambda f: f[0])  # by cycle alone: cut types have no order
        fi = 0
        for t, gid in sorted((span[0], gid) for gid, span in gate_span.items()):
            while fi < len(flips) and flips[fi][0] <= t:
                _, tile, cut = flips[fi]
                tile_cut[tile] = cut
                fi += 1
            ca, cb = operand_tiles(gid)
            kind = gate_kind[gid]
            if kind is ActionKind.BRAID and tile_cut[ca] is tile_cut[cb]:
                v.append(f"gate {gid}: braid between same-cut tiles at cycle {t}")
            if kind is ActionKind.DIRECT and tile_cut[ca] is not tile_cut[cb]:
                v.append(f"gate {gid}: 3-cycle direct execution between opposite cuts at {t}")
    return v


def _check_route(v, action, ta: Tile, tb: Tile, model) -> None:
    nodes = action.route.nodes
    if model is ChipModel.LATTICE_SURGERY:
        if not nodes:
            if abs(ta[0] - tb[0]) + abs(ta[1] - tb[1]) != 1:
                v.append(f"gate {action.gate}: empty route between non-adjacent tiles")
            return
        chain = [ta, *nodes, tb]
        for x, y in zip(chain, chain[1:]):
            if abs(x[0] - y[0]) + abs(x[1] - y[1]) != 1:
                v.append(f"gate {action.gate}: route chain broken between {x} and {y}")
        return
    if len(nodes) < 2:
        v.append(f"gate {action.gate}: corridor route must hold at least one segment")
        return
    # each end on one of the four corners of its operand tile
    (ra, ca), (rb, cb) = nodes[0], nodes[-1]
    if not (0 <= ra - ta[0] <= 1 and 0 <= ca - ta[1] <= 1
            and 0 <= rb - tb[0] <= 1 and 0 <= cb - tb[1] <= 1):
        v.append(f"gate {action.gate}: route endpoints not on operand tiles")
    for (i1, j1), (i2, j2) in zip(nodes, nodes[1:]):
        if abs(i1 - i2) + abs(j1 - j2) != 1:
            v.append(f"gate {action.gate}: junction route broken at {(i1, j1)}->{(i2, j2)}")
