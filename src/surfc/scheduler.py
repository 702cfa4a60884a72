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

``validate`` replays any schedule once against the raw rules (completeness,
dependency order, per-cycle capacities, multi-cycle contiguity, cut
bookkeeping) and is run on every schedule the test suite produces.  A
malformed schedule gives violations, never an exception: a qubit with no
tile ends the replay, an action of a kind the model does not have or that
names no gate is skipped, and a route off the fabric holds no resources.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product

from .chip import ChipLayout, ChipModel
from .circuits import GateDag, LogicalCircuit, build_dag
from .errors import InfeasibleError, SchedulingError, SurfcError
from .placement import CutType, TileMapping, coloring_cuts
from .profiler import LayerSchedule, bipartite_prefix
from .router import (
    CycleOccupancy,
    Fabric,
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


@dataclass(frozen=True, slots=True, init=False)
class Action:
    kind: ActionKind
    gate: int | None = None
    route: RoutePath | None = None
    tile: Tile | None = None
    new_cut: CutType | None = None
    phase: int | None = None  # 1..3 for DIRECT / MODIFY

    def __init__(self, kind: ActionKind, gate: int | None = None, route: RoutePath | None = None,
                 tile: Tile | None = None, new_cut: CutType | None = None, phase: int | None = None):
        _set_kind(self, kind)
        _set_gate(self, gate)
        _set_route(self, route)
        _set_tile(self, tile)
        _set_new_cut(self, new_cut)
        _set_phase(self, phase)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "gate": self.gate,
            "route": [list(n) for n in self.route.nodes] if self.route is not None else None,
            "tile": list(self.tile) if self.tile is not None else None,
            "cut": self.new_cut.value if self.new_cut is not None else None,
            "phase": self.phase,
        }


_set_kind, _set_gate, _set_route, _set_tile, _set_new_cut, _set_phase = (
    getattr(Action, name).__set__ for name in Action.__slots__)  # in field order


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


_FLIPPED = {CutType.X: CutType.Z, CutType.Z: CutType.X}


def _m_values(children: list[int], controls: list[int], targets: list[int],
              cut: dict[int, CutType], a: int, b: int, idle_a: int, idle_b: int,
              ready_others: int, total_bandwidth: int) -> tuple[float, float]:
    """The M-values of modifying the tile of operand ``a`` or of ``b`` to
    unblock a same-cut gate, in one pass over the gate's ``children``.

    An operand's M-value is ``m_t + theta * m_s``.  m_t: cycle delta of
    modify-then-braid (4) against direct (3), minus the idle credit: every
    cycle the tile already sat idle (at most 3) is a cycle the modification
    could have been running.  m_s: lane-cycle delta; a braid after
    modification holds one route-cycle against three for direct, so the
    baseline is -1, nudged by +1 for each child on this qubit that the flip
    would make same-cut and -1 for each it would make opposite-cut.  theta
    scales lane pressure, ``2 * ready_others / max(total_bandwidth, 1)``: many
    ready gates over little total bandwidth make lanes precious.  Scaling
    theta further by the qubit count was ablation-tested and consistently
    wastes cycles, so pressure is demand over supply alone.  A negative
    value favours modifying."""
    flip_a, flip_b = _FLIPPED[cut[a]], _FLIPPED[cut[b]]
    theta = 2.0 * ready_others / max(total_bandwidth, 1)
    s_a = s_b = -1
    for child in children:
        cq, tq = controls[child], targets[child]
        if cq == a or tq == a:
            s_a += 1 if cut[tq if cq == a else cq] is flip_a else -1
        if cq == b or tq == b:
            s_b += 1 if cut[tq if cq == b else cq] is flip_b else -1
    return ((4 - min(3, idle_a)) - 3) + theta * s_a, ((4 - min(3, idle_b)) - 3) + theta * s_b


class _State:
    """Mutable bookkeeping for one limited-resources scheduling job.

    Gates become ready by event: once every parent of a gate has started, the
    gate is filed in ``arrivals`` under the cycle after its parents' last
    completion, and joins the ready list when the scheduler reaches that
    cycle.  Each qubit's operand tile and current cut are kept per qubit; the
    cut changes as flips land.  A flip is filed in ``flips`` under the cycle it
    lands and popped when the scheduler reaches that cycle; a tile is held
    through its modification, so no two of its flips land in one cycle.  A
    flip backdated by the full three cycles lands at once, unfiled.  Every
    tile hold starts by the current cycle ``t`` and is one interval, so a
    tile is busy at ``t`` when ``last_busy[tile]``, its last held cycle, is
    ``>= t``; with no braid at ``t``, some tile is when ``busy_until``, the
    latest end of a ``hold_tile`` hold, is."""

    def __init__(self, circuit: LogicalCircuit, layout: ChipLayout, mapping: TileMapping,
                 dag: GateDag):
        self.total_bandwidth = layout.total_bandwidth  # a sum over every channel line
        self.dag = dag
        self.occ = CycleOccupancy(layout, mapping.data_tiles(layout))
        self.cycles: list[list[Action]] = []
        self.op_tile = {q: mapping.abs_tile(layout, q) for q in mapping.positions}
        self.qubit_at = {cell: q for q, cell in mapping.positions.items()}
        cuts = mapping.cuts
        self.cut: dict[int, CutType] = {q: cuts[q] for q in mapping.positions} if cuts else {}
        self.flips: dict[int, list[tuple[int, CutType]]] = {}  # cycle -> (qubit, new cut)
        self.last_busy: dict[Tile, int] = dict.fromkeys(self.op_tile.values(), -1)
        self.busy_until = -1
        self.indeg = [len(self.dag.parents[v]) for v in range(circuit.g)]
        self.earliest = [0] * circuit.g
        self.arrivals: dict[int, list[int]] = {0: [v for v in range(circuit.g) if not self.indeg[v]]}
        self.started = [False] * circuit.g
        self.controls = [gate.control for gate in circuit.gates]
        self.targets = [gate.target for gate in circuit.gates]
        self.done = 0
        # the three phase records of each (tile, new cut is X) modification;
        # frozen and compared by value, so one set serves every modification
        self.modify_records: dict[tuple[Tile, bool], tuple[Action, Action, Action]] = {}

    def add_phases(self, start: int, actions: tuple[Action, ...]) -> None:
        cycles, end = self.cycles, start + len(actions)
        while len(cycles) < end:
            cycles.append([])
        for k, action in enumerate(actions):
            cycles[start + k].append(action)

    def hold_tile(self, tile: Tile, start: int, duration: int) -> None:
        assert start > self.last_busy[tile], f"tile {tile} double-booked at cycle {start}"
        self.last_busy[tile] = end = start + duration - 1
        self.busy_until = max(self.busy_until, end)

    def apply_flips(self, t: int) -> None:
        for q, cut in self.flips.pop(t, ()):
            self.cut[q] = cut

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

    Each gate's operand qubits and its (control tile, target tile) pair are
    read into lists once, before the cycle loop; the loop tests a ready
    gate's pair against the tile ledger ``last_busy`` and books a braid's or
    Bell merge's one-cycle holds there itself.  The three
    phase records of a cut modification are built once per (tile, new cut)
    and reused by every later modification alike: actions are frozen and
    compare by value, so the schedule and its JSON are those of fresh
    records.  A modification's flip is filed under the cycle it lands, and
    one backdated by the full three cycles lands at once.  The ``mvalue``
    rule scores both operands in one pass over the gate's children, read
    from the operand lists (``_m_values``).
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
    # each gate's operand qubits and tiles, read once
    controls, targets = st.controls, st.targets
    op_tile = st.op_tile
    pairs = [(op_tile[c], op_tile[q]) for c, q in zip(controls, targets)]
    ls = model is ChipModel.LATTICE_SURGERY
    occ, cut, cycles, last_busy = st.occ, st.cut, st.cycles, st.last_busy
    ready: list[int] = []
    t = 0
    guard = 0
    while st.done < g:
        st.apply_flips(t)
        arrivals = st.arrivals.pop(t, None)
        if arrivals:
            ready += arrivals
            ready.sort(key=order)
        while len(cycles) <= t:
            cycles.append([])
        acts = cycles[t]
        ready_count = len(ready)
        committed = False
        for v in ready:
            ta, tb = pairs[v]
            if last_busy[ta] >= t or last_busy[tb] >= t:
                continue
            if ls:
                kind = ActionKind.BELL
            elif cut[controls[v]] is not cut[targets[v]]:
                kind = ActionKind.BRAID
            else:
                if _try_same_cut(st, t, v, ta, tb, ready_count, samecut):
                    committed = True
                continue
            found = find_path(occ, t, ta, tb)
            if found is None:
                continue
            path, ids = found
            occ.commit_route(path, ids, t, 1)
            # one-cycle holds of the two operand tiles, free at ``t``
            last_busy[ta] = last_busy[tb] = t
            acts.append(Action(kind, gate=v, route=path))
            st.complete(v, t)
            committed = True
        if not committed and st.busy_until < t:
            stuck = ready[0] if ready else None
            raise SchedulingError(
                f"gate {stuck} cannot be routed on this chip "
                f"(cycle {t}, model {model.value}); mapping leaves it unreachable"
            )
        ready = [v for v in ready if not st.started[v]]
        guard += 1
        if guard > 40 * g + 1000:
            raise SchedulingError("scheduler failed to converge; suspected livelock")
        occ.release(t - 3)  # a backdated modification reaches back three cycles
        t += 1
    return EncodedSchedule(st.cycles, layout, mapping)


def _try_same_cut(st: _State, t: int, v: int, ca: Tile, cb: Tile,
                  ready_count: int, samecut: str) -> bool:
    idle_a, idle_b = t - st.last_busy[ca] - 1, t - st.last_busy[cb] - 1
    if samecut == "channel":
        choice = "modify"
    elif samecut == "time":
        # modify-then-braid finishes at t - min(3, idle) + 3; direct at t + 2
        best_idle = max(idle_a, idle_b)
        choice = "modify" if (3 - min(3, best_idle)) + 1 <= 2 else "direct"
    else:
        va, vb = _m_values(st.dag.children[v], st.controls, st.targets, st.cut, st.controls[v],
                           st.targets[v], idle_a, idle_b, ready_count - 1, st.total_bandwidth)
        choice = "modify" if va < 0 or vb < 0 else "direct"
    if choice == "modify":
        if samecut == "mvalue":
            pick_a = va <= vb
        else:
            pick_a = idle_a >= idle_b
        tile, idle = (ca, idle_a) if pick_a else (cb, idle_b)
        return _commit_modify(st, t, tile, idle)
    found = find_path(st.occ, t, ca, cb, duration=3)
    if found is None:
        return False
    path, ids = found
    st.occ.commit_route(path, ids, t, 3)
    st.hold_tile(ca, t, 3)
    st.hold_tile(cb, t, 3)
    st.add_phases(t, tuple(Action(ActionKind.DIRECT, gate=v, route=path, phase=p) for p in (1, 2, 3)))
    st.complete(v, t + 2)
    return True


def _commit_modify(st: _State, t: int, tile: Tile, idle: int) -> bool:
    """Start (possibly backdated) cut modification; the waiting gate braids
    once the flip lands.  Returns True: the modification itself is progress."""
    start = t - min(3, max(0, idle))
    q = st.qubit_at[tile]
    new_cut = _FLIPPED[st.cut[q]]
    st.hold_tile(tile, start, 3)
    key = (tile, new_cut is CutType.X)
    records = st.modify_records.get(key)
    if records is None:
        records = st.modify_records[key] = tuple(
            Action(ActionKind.MODIFY, tile=tile, new_cut=new_cut, phase=phase) for phase in (1, 2, 3))
    st.add_phases(start, records)
    if start + 3 <= t:  # fully backdated: already effective
        st.cut[q] = new_cut
    else:
        st.flips.setdefault(start + 3, []).append((q, new_cut))
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
    The schedule's mapping carries the cuts of the first prefix.

    No occupancy ledger is kept, since every cycle holds one batch or one
    remap phase and nothing else.  Ring repair counts each resource's use
    against its capacity as it commits a route.  The batch precondition
    rejects a repeated tile, and a remap names each qubit's tile once.
    ``validate`` replays both rules on the finished schedule."""
    model = layout.model
    require_capacity(layout, layers.pm)
    if circuit.g == 0:
        return EncodedSchedule([], layout, mapping)
    data = mapping.data_tiles(layout)
    fabric = Fabric(layout, data)
    cycles: list[list[Action]] = []
    op_tile = {q: mapping.abs_tile(layout, q) for q in mapping.positions}
    gate_tiles = [(op_tile[g.control], op_tile[g.target]) for g in circuit.gates]

    def batch(layer_gates, kind: ActionKind):
        pairs = [gate_tiles[gid] for gid in layer_gates]
        paths = route_batch_guaranteed(layout, pairs, data, fabric=fabric)
        return [Action(kind, gate=gid, route=path) for gid, path in zip(layer_gates, paths)]

    if model is ChipModel.LATTICE_SURGERY:
        return EncodedSchedule([batch(layer, ActionKind.BELL) for layer in layers.layers],
                               layout, mapping)

    initial_cuts: dict[int, CutType] | None = None
    tile_cut: dict[Tile, CutType] = {}
    start = 0
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
                tile_cut.update(flips)
        cycles.extend(batch(layer, ActionKind.BRAID) for layer in layers.layers[start:end])
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
    Tiles and initial cuts come from the schedule's own layout and mapping;
    a ``layout`` other than it, or a ``mapping`` with other tile positions
    (its cuts may differ, as a ``resu`` schedule's do), raises ``SurfcError``.

    Each cycle's use of the resources of ``RoutePath.resources`` is counted
    once, by keys: a lattice-surgery tile is its own key, and a double-defect
    junction or segment an integer (``_junction_keys``) looked up from the
    route's coordinates.  Only a key used more often than the narrowest
    bandwidth is held against its own capacity; a message names its tuple
    resource.  A double-defect route found whole in the grid, with its ends
    on its operands' corners, has nothing more to check.  A malformed
    schedule gives violations, never an exception:

    * a circuit qubit with no tile ends the replay, one violation per qubit;
    * an action of a kind its model lacks (double defect has no Bell merge,
      lattice surgery only those), a direct or modify action whose phase is
      not 1, 2 or 3, a modify action whose tile holds no qubit, or a braid,
      Bell or direct action whose gate is not an ``int`` in ``0..g-1``, is
      one violation, and skipped;
    * a route that is missing, of the other model, off the fabric (the
      junction grid, or the free lattice-surgery tiles, so that no route
      meets an operand) or with a double-defect step between non-neighbours
      holds no resources.  ``_check_route`` reports it, and the other faults
      of each braid or Bell route and each distinct route of a direct gate.
    """
    if layout is not None and layout != schedule.layout:
        raise SurfcError("validate: the layout argument is not the schedule's layout")
    if mapping is not None and mapping.positions != schedule.mapping.positions:
        raise SurfcError("validate: the mapping argument places qubits elsewhere")
    layout, mapping = schedule.layout, schedule.mapping
    tile_of = {q: mapping.abs_tile(layout, q) for q in mapping.positions}
    v = [f"qubit {q} has no tile" for q in range(circuit.n) if q not in tile_of]
    if v:
        return v
    model = schedule.model
    dd = model is ChipModel.DOUBLE_DEFECT
    dag = build_dag(circuit)
    cap = resource_capacities(layout)
    g = circuit.g
    operand = [(tile_of[c], tile_of[t]) for _, c, t in circuit.gates]
    if dd:
        grid, node_key, edge_key = _junction_keys(layout.array_r + 1, layout.array_c + 1)
        fabric = frozenset(node_key)  # the nodes a route may hold: junctions, or free tiles
        corners = {(r, c): frozenset(((r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)))
                   for r, c in tile_of.values()}
        narrowest = layout.bandwidth  # 1 or more on every double-defect layout
    else:
        fabric = _tiles(layout.grid_rows, layout.grid_cols) - mapping.data_tiles(layout)
        narrowest = 1

    def route_keys(route: RoutePath | None) -> list:
        """A double-defect route's keys; none where ``_check_route`` objects."""
        if route is None or route.model is not model:
            return []
        nodes = route.nodes
        try:
            return [*map(node_key.__getitem__, nodes), *map(edge_key.__getitem__, zip(nodes, nodes[1:]))]
        except (KeyError, TypeError):
            return []

    # per-gate execution spans (first cycle, last cycle) and first action kinds
    first, last = [_NEVER] * g, [-1] * g
    first_kind: list[ActionKind | None] = [None] * g
    modify_at: set[tuple[Tile, int, int]] = set()  # (tile, phase, cycle)
    modify_starts: list[tuple[Tile, int, CutType]] = []  # phase 1: (tile, cycle, cut)
    seen_direct: dict[int, list[tuple[int, int, RoutePath]]] = {}
    braid, bell, direct, modify = ActionKind.BRAID, ActionKind.BELL, ActionKind.DIRECT, ActionKind.MODIFY
    model_kinds = (braid, direct, modify) if dd else (bell,)
    for t, actions in enumerate(schedule.cycles):
        tiles_this_cycle: list[Tile] = []
        keys: list = []  # the keys of every route held at t
        for a in actions:
            kind, gid = a.kind, a.gate
            if kind not in model_kinds:
                v.append(f"cycle {t}: action kind {kind} on a {model.value} chip")
                continue
            if dd and kind is not braid and a.phase not in (1, 2, 3):
                v.append(f"cycle {t}: {kind.value} action phase {a.phase!r} is not 1, 2 or 3")
                continue
            if kind is modify:
                try:
                    mapped = a.tile in corners
                except TypeError:  # an unhashable tile
                    mapped = False
                if not mapped:
                    v.append(f"cycle {t}: modify action tile {a.tile!r} holds no qubit")
                    continue
                modify_at.add((a.tile, a.phase, t))
                if a.phase == 1:
                    modify_starts.append((a.tile, t, a.new_cut))
                tiles_this_cycle.append(a.tile)
                continue
            if gid.__class__ is not int or not 0 <= gid < g:
                v.append(f"cycle {t}: {kind.value} action names no gate of the circuit: {gid!r}")
                continue
            if first_kind[gid] is None:
                first_kind[gid] = kind
            route = a.route
            ta, tb = operand[gid]
            tiles_this_cycle += (ta, tb)
            if kind is direct:
                seen_direct.setdefault(gid, []).append((t, a.phase, route))
                route_held = route_keys(route)
            else:
                if last[gid] >= 0:
                    v.append(f"gate {gid} executed more than once")
                first[gid] = last[gid] = t
                if not dd:
                    route_held = route.nodes if _check_route(v, gid, route, ta, tb, model, fabric) else ()
                else:
                    route_held = route_keys(route)
                    # a route whose keys were all found is unbroken and on
                    # the fabric: only its ends are left to check
                    if not (len(route_held) > 1 and route.nodes[0] in corners[ta]
                            and route.nodes[-1] in corners[tb]):
                        _check_route(v, gid, route, ta, tb, model, fabric)
            keys += route_held
        if len(set(keys)) < len(keys):
            # a repeated key: over capacity past the narrowest bandwidth and its own
            used = Counter(keys)
            if max(used.values()) > narrowest:
                for k, n in used.items():
                    if n > narrowest:
                        res = ("jhv"[k // len(grid)], *grid[k % len(grid)]) if dd else ("t", *k)
                        limit = cap(res)
                        if n > limit:
                            v.append(f"cycle {t}: resource {res} used {n} > capacity {limit}")
        seen_tiles = set(tiles_this_cycle)
        if len(seen_tiles) < len(tiles_this_cycle):
            seen_tiles = set()
            for tile in tiles_this_cycle:
                if tile in seen_tiles:
                    v.append(f"cycle {t}: tile {tile} used by two actions")
                seen_tiles.add(tile)

    # direct gates: three consecutive phases with a pinned route
    for gid, entries in seen_direct.items():
        entries.sort(key=lambda e: e[:2])
        routes = dict.fromkeys(route for _, _, route in entries)
        for route in routes:
            _check_route(v, gid, route, *operand[gid], model, fabric)
        if [p for _, p, _ in entries] != [1, 2, 3]:
            v.append(f"gate {gid}: direct execution phases are {[p for _, p, _ in entries]}")
            continue
        times = [t for t, _, _ in entries]
        if times[1] != times[0] + 1 or times[2] != times[0] + 2:
            v.append(f"gate {gid}: direct execution not contiguous at {times}")
        if len(routes) != 1:
            v.append(f"gate {gid}: direct execution changed route between phases")
        if last[gid] >= 0:
            v.append(f"gate {gid} executed more than once")
        first[gid], last[gid] = times[0], times[2]

    # modify actions: each phase-1 start needs phases 2 and 3 right after it
    flips: list[tuple[int, Tile, CutType]] = []  # (effective cycle, tile, cut)
    for tile, t0, cut in sorted(modify_starts, key=lambda m: m[:2]):
        for ph in (2, 3):
            if (tile, ph, t0 + ph - 1) not in modify_at:
                v.append(f"tile {tile}: cut modification at {t0} missing phase {ph}")
        flips.append((t0 + 3, tile, cut))

    v += [f"gate {gid} never executed" for gid in range(g) if last[gid] < 0]
    for u, children in enumerate(dag.children):
        end = last[u]
        if end >= 0:
            for w in children:
                if end >= first[w]:  # never for a gate never executed
                    v.append(f"dependency violated: gate {w} starts at {first[w]} "
                             f"but parent {u} completes at {end}")

    # cut bookkeeping: braids need opposite cuts, directs equal cuts
    initial_cuts = mapping.cuts
    if dd and initial_cuts is not None:
        tile_cut = {mapping.tile_of(q): initial_cuts[q] for q in mapping.positions}
        flips.sort(key=lambda f: f[0])  # by cycle alone: cut types have no order
        fi = 0
        for t, gid in sorted((first[gid], gid) for gid in range(g) if last[gid] >= 0):
            while fi < len(flips) and flips[fi][0] <= t:
                _, tile, cut = flips[fi]
                tile_cut[tile] = cut
                fi += 1
            ca, cb = operand[gid]
            kind = first_kind[gid]
            if kind is braid and tile_cut[ca] is tile_cut[cb]:
                v.append(f"gate {gid}: braid between same-cut tiles at cycle {t}")
            if kind is direct and tile_cut[ca] is not tile_cut[cb]:
                v.append(f"gate {gid}: 3-cycle direct execution between opposite cuts at {t}")
    return v


_NEVER = 1 << 62  # validate's first cycle of a gate never executed


@lru_cache(maxsize=8)
def _tiles(rows: int, cols: int) -> frozenset[Tile]:
    """Every tile of a ``rows x cols`` grid, cached per shape."""
    return frozenset(product(range(rows), range(cols)))


def _junction_keys(rows: int, cols: int) -> tuple[list[Tile], dict, dict]:
    """``validate``'s integer keys on a ``rows x cols`` junction grid:
    ``(grid, node_key, edge_key)``.  ``grid`` lists the junctions row-major
    and ``node_key`` maps each to its index ``k``, the key of resource
    ``("j", *grid[k])``; ``edge_key`` maps each ordered pair of neighbouring
    junctions to the key of the segment between them, ``k + len(grid)`` for
    ``("h", *grid[k])`` and ``k + 2 * len(grid)`` for ``("v", *grid[k])``,
    where ``grid[k]`` is the segment's west or north end."""
    n = rows * cols
    grid = [(i, j) for i in range(rows) for j in range(cols)]
    edge_key = {(grid[k], grid[k + 1]): n + k for k in range(n - 1) if (k + 1) % cols}
    edge_key.update({(grid[k], grid[k + cols]): 2 * n + k for k in range(n - cols)})
    edge_key.update({(b, a): k for (a, b), k in edge_key.items()})
    return grid, dict(zip(grid, range(n))), edge_key


def _check_route(v: list[str], gid: int, route: RoutePath | None, ta: Tile, tb: Tile,
                 model: ChipModel, fabric: frozenset[Tile]) -> bool:
    """Append to ``v`` what is wrong with ``route``, gate ``gid``'s route from
    tile ``ta`` to ``tb`` on a ``model`` chip with the nodes ``fabric``; True
    when it holds its nodes: it is there, of ``model`` and on ``fabric``."""
    if route is None or route.model is not model:
        v.append(f"gate {gid}: no {model.value} route")
        return False
    nodes = route.nodes
    if not fabric.issuperset(nodes):
        v.append(f"gate {gid}: route node {next(n for n in nodes if n not in fabric)} is off the fabric")
        return False
    if model is ChipModel.LATTICE_SURGERY:
        if not nodes:
            if abs(ta[0] - tb[0]) + abs(ta[1] - tb[1]) != 1:
                v.append(f"gate {gid}: empty route between non-adjacent tiles")
            return True
        x0, x1 = ta
        for y0, y1 in nodes:
            if abs(x0 - y0) + abs(x1 - y1) != 1:
                v.append(f"gate {gid}: route chain broken between {(x0, x1)} and {(y0, y1)}")
            x0, x1 = y0, y1
        if abs(x0 - tb[0]) + abs(x1 - tb[1]) != 1:
            v.append(f"gate {gid}: route chain broken between {(x0, x1)} and {tb}")
        return True
    if len(nodes) < 2:
        v.append(f"gate {gid}: corridor route must hold at least one segment")
        return True
    # each end on one of the four corners of its operand tile
    (ra, ca), (rb, cb) = nodes[0], nodes[-1]
    if not (0 <= ra - ta[0] <= 1 and 0 <= ca - ta[1] <= 1
            and 0 <= rb - tb[0] <= 1 and 0 <= cb - tb[1] <= 1):
        v.append(f"gate {gid}: route endpoints not on operand tiles")
    for (i1, j1), (i2, j2) in zip(nodes, nodes[1:]):
        if abs(i1 - i2) + abs(j1 - j2) != 1:
            v.append(f"gate {gid}: junction route broken at {(i1, j1)}->{(i2, j2)}")
    return True
