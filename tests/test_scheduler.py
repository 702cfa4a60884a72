import math
import random
from collections import Counter
from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import check_schedule, random_tiny_circuit, uniform_dd_layout, uniform_ls_layout
from surfc import scheduler
from surfc.bench import ghz
from surfc.chip import ChipLayout, ChipModel
from surfc.circuits import LogicalCircuit, build_comm_graph, build_dag, circuit
from surfc.errors import InfeasibleError, SchedulingError, SurfcError
from surfc.generate import gen_random_circuit
from surfc.harness import RunConfig, compile_once, load_circuit
from surfc.placement import (
    ArrayShape,
    CutType,
    TileMapping,
    baseline_mapping,
    init_cut_types,
)
from surfc.profiler import para_finding
from surfc.router import RoutePath, resource_capacities
from surfc.scheduler import (
    LIMITED,
    Action,
    ActionKind,
    EncodedSchedule,
    bipartite_prefix,
    schedule_limited,
    schedule_sufficient,
    validate,
)

DD = ChipModel.DOUBLE_DEFECT
LS = ChipModel.LATTICE_SURGERY


def _dd_setup(circ, rows, cols, cuts_map=None, bandwidth=1):
    layout = uniform_dd_layout(rows, cols, bandwidth=bandwidth)
    mapping = baseline_mapping("snake", circ.n, ArrayShape(rows, cols))
    cuts = cuts_map if cuts_map is not None else init_cut_types(circ)
    return layout, mapping.with_cuts(cuts), cuts


class TestScheduleLimited:
    def test_single_cnot_opposite_cuts_one_cycle(self):
        c = circuit(2, [(0, 1)])
        layout, mapping, cuts = _dd_setup(c, 1, 2)
        assert cuts[0] is not cuts[1]
        sched = schedule_limited(c, layout, mapping)
        check_schedule(sched, c, layout, mapping)
        assert sched.delta == 1
        assert sched.cycles[0][0].kind is ActionKind.BRAID

    def test_hold_tile_refuses_an_overlapping_hold(self):
        # the tile ledger's double-booking check: a hold starts after the
        # last cycle of the tile's latest hold
        c = circuit(2, [(0, 1)])
        layout, mapping, _ = _dd_setup(c, 1, 2)
        st = scheduler._State(c, layout, mapping, build_dag(c))
        tile = st.op_tile[0]
        st.hold_tile(tile, 2, 3)  # cycles 2-4
        for start, duration in ((1, 3), (2, 1), (4, 3)):
            with pytest.raises(AssertionError, match="double-booked"):
                st.hold_tile(tile, start, duration)
        st.hold_tile(tile, 5, 1)
        assert st.last_busy[tile] == st.busy_until == 5

    def test_single_cnot_same_cuts_three_cycles(self):
        c = circuit(2, [(0, 1)])
        same = {0: CutType.X, 1: CutType.X}
        layout, mapping, cuts = _dd_setup(c, 1, 2, cuts_map=same)
        sched = schedule_limited(c, layout, mapping)
        check_schedule(sched, c, layout, mapping)
        assert sched.delta == 3
        assert all(a.kind is ActionKind.DIRECT for acts in sched.cycles for a in acts)

    def test_ghz_chain_tracks_critical_path(self):
        c = ghz(23)
        layout, mapping, cuts = _dd_setup(c, 5, 5)
        sched = schedule_limited(c, layout, mapping)
        check_schedule(sched, c, layout, mapping)
        assert sched.delta == 22

    def test_lattice_surgery_adjacent_merges(self):
        c = ghz(9)
        layout = uniform_ls_layout(3, 3, gap=0)
        mapping = baseline_mapping("snake", 9, ArrayShape(3, 3))
        sched = schedule_limited(c, layout, mapping)
        check_schedule(sched, c, layout, mapping)
        assert sched.delta == 8

    def test_unroutable_gate_identified(self):
        # zero-fabric lattice chip, diagonal pair: no merge, no chain
        c = circuit(4, [(0, 3)])
        layout = uniform_ls_layout(2, 2, gap=0)
        mapping = TileMapping(ArrayShape(2, 2), {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
        with pytest.raises(SchedulingError) as err:
            schedule_limited(c, layout, mapping)
        assert "gate 0" in str(err.value)

    def test_same_cut_pair_later_reuses_flip(self):
        c = circuit(2, [(0, 1), (0, 1)])
        same = {0: CutType.Z, 1: CutType.Z}
        layout, mapping, cuts = _dd_setup(c, 1, 2, cuts_map=same)
        sched = schedule_limited(c, layout, mapping)
        check_schedule(sched, c, layout, mapping)

    def test_empty_circuit(self):
        c = circuit(3, [])
        layout, mapping, cuts = _dd_setup(c, 1, 3)
        sched = schedule_limited(c, layout, mapping)
        assert sched.delta == 0


class TestGatePriority:
    """The priority terms: longest chain of dependents and transitive
    dependents, each counting the gate itself."""

    @staticmethod
    def _terms(c):
        dag = build_dag(c)
        return (dag.depth_to_sink[0], dag.descendant_counts()[0] + 1)

    def test_sink_gate(self):
        assert self._terms(circuit(2, [(0, 1)])) == (1, 1)

    def test_head_of_chain(self):
        assert self._terms(circuit(2, [(0, 1)] * 5)) == (5, 5)

    def test_diamond_head(self):
        assert self._terms(circuit(4, [(0, 1), (0, 2), (1, 3), (2, 3)])) == (3, 4)


@dataclass(frozen=True, slots=True)
class MValueInputs:
    m_t: int
    m_s: int
    theta: float

    @property
    def value(self) -> float:
        return self.m_t + self.theta * self.m_s


def m_value(circ, dag, cuts, gate, qubit, idle_cycles, ready_others, total_bandwidth) -> MValueInputs:
    """The terms of the M-value of modifying ``qubit``'s tile to unblock a
    same-cut ``gate``, term by term as ``scheduler._m_values`` defines them;
    the reference that its one-pass values must match bit for bit."""
    credit = min(3, idle_cycles)
    m_t = (4 - credit) - 3
    flipped = cuts[qubit].flipped
    m_s = -1
    for child in dag.children[gate]:
        _, cq, tq = circ.gates[child]
        if qubit in (cq, tq):
            other = tq if cq == qubit else cq
            m_s += 1 if cuts[other] is flipped else -1
    theta = 2.0 * ready_others / max(total_bandwidth, 1)
    return MValueInputs(m_t=m_t, m_s=m_s, theta=theta)


class TestMValue:
    def _inputs(self, idle, ready_others, total_bw, pairs=((0, 1),), cuts=None):
        c = circuit(4, list(pairs))
        dag = build_dag(c)
        cuts = cuts or {q: CutType.X for q in range(4)}
        return m_value(c, dag, cuts, 0, c.gates[0].control, idle, ready_others, total_bw)

    def test_idle_tile_saturating_credit(self):
        mv = self._inputs(idle=5, ready_others=0, total_bw=10)
        assert mv.m_t == -2
        assert mv.value < 0  # modify

    def test_fresh_tile_no_pressure_goes_direct(self):
        mv = self._inputs(idle=0, ready_others=0, total_bw=10)
        assert mv.theta == 0
        assert mv.value == mv.m_t == 1  # direct

    def test_congestion_flips_to_modify(self):
        # heavy demand over little supply: lane saving dominates
        mv = self._inputs(idle=0, ready_others=6, total_bw=4)
        assert mv.m_s <= -1
        assert mv.theta == pytest.approx(3.0)
        assert mv.value < 0  # modify

    def test_lookahead_counts_children_on_the_tile(self):
        # gate 0 on (0,1); child gate 1 on (0,2); flipping qubit 0's tile to Z
        # makes the child same-cut against qubit 2's Z: worse m_s
        cuts = {0: CutType.X, 1: CutType.X, 2: CutType.Z, 3: CutType.X}
        mv = self._inputs(idle=0, ready_others=0, total_bw=10,
                          pairs=((0, 1), (0, 2)), cuts=cuts)
        assert mv.m_s == 0  # -1 baseline +1 for the child turning same-cut


_PAIRS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] != p[1]),
                  min_size=1, max_size=8)


class TestMValuesOnePass:
    """The limited scheduler's one-pass ``_m_values`` against ``m_value``, its
    definition: both values bit for bit, and the same modify-or-direct choice
    and tile."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(pairs=_PAIRS, gate=st.integers(0, 7), x_cut=st.lists(st.booleans(), min_size=5, max_size=5),
           idle_a=st.integers(-1, 5), idle_b=st.integers(-1, 5), ready=st.integers(1, 40),
           total_bw=st.integers(0, 8))
    # gate 0's children: on neither operand, on one, one child on both, two children
    @example(pairs=[(0, 1)], gate=0, x_cut=[True] * 5, idle_a=0, idle_b=0, ready=1, total_bw=1)
    @example(pairs=[(0, 1), (0, 2)], gate=0, x_cut=[True, True, False, True, True],
             idle_a=0, idle_b=5, ready=7, total_bw=4)
    @example(pairs=[(0, 1), (1, 0)], gate=0, x_cut=[True] * 5, idle_a=-1, idle_b=2, ready=40, total_bw=0)
    @example(pairs=[(0, 1), (2, 0), (1, 3)], gate=0, x_cut=[False, False, True, False, True],
             idle_a=3, idle_b=1, ready=12, total_bw=8)
    def test_same_values_and_choice(self, pairs, gate, x_cut, idle_a, idle_b, ready, total_bw):
        c = circuit(5, pairs)
        v = gate % len(pairs)
        dag = build_dag(c)
        cuts = {q: CutType.X if x else CutType.Z for q, x in enumerate(x_cut)}
        a, b = c.gates[v].control, c.gates[v].target
        va, vb = scheduler._m_values(dag.children[v], [g.control for g in c.gates],
                                     [g.target for g in c.gates], cuts, a, b,
                                     idle_a, idle_b, ready - 1, total_bw)
        ref_a = m_value(c, dag, cuts, v, a, idle_a, ready - 1, total_bw).value
        ref_b = m_value(c, dag, cuts, v, b, idle_b, ready - 1, total_bw).value
        assert [va.hex(), vb.hex()] == [ref_a.hex(), ref_b.hex()]

        def choice(value_a, value_b):  # None: direct; else the tile's qubit to modify
            return None if min(value_a, value_b) >= 0 else (a if value_a <= value_b else b)

        assert choice(va, vb) == choice(ref_a, ref_b)


class TestBaselineSchedulers:
    def test_circuit_order_matches_on_independent_gates(self):
        c = circuit(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        layout, mapping, cuts = _dd_setup(c, 2, 4)
        a = schedule_limited(c, layout, mapping)
        b = schedule_limited(c, layout, mapping, strategy="circuit-order")
        check_schedule(b, c, layout, mapping)
        assert a.delta == b.delta

    def test_time_first_goes_direct_on_fresh_tiles(self):
        c = circuit(2, [(0, 1)])
        same = {0: CutType.X, 1: CutType.X}
        layout, mapping, cuts = _dd_setup(c, 1, 2, cuts_map=same)
        sched = schedule_limited(c, layout, mapping, strategy="time-first")
        check_schedule(sched, c, layout, mapping)
        assert sched.delta == 3
        assert sched.cycles[0][0].kind is ActionKind.DIRECT

    def test_channel_first_modifies(self):
        c = circuit(2, [(0, 1)])
        same = {0: CutType.X, 1: CutType.X}
        layout, mapping, cuts = _dd_setup(c, 1, 2, cuts_map=same)
        sched = schedule_limited(c, layout, mapping, strategy="channel-first")
        check_schedule(sched, c, layout, mapping)
        kinds = {a.kind for acts in sched.cycles for a in acts}
        assert ActionKind.MODIFY in kinds
        assert sched.delta == 4  # 3-cycle flip then a braid

    def test_unknown_baseline(self):
        c = circuit(2, [(0, 1)])
        layout, mapping, cuts = _dd_setup(c, 1, 2)
        with pytest.raises(InfeasibleError):
            schedule_limited(c, layout, mapping, strategy="nope")


class TestBipartitePrefix:
    def test_path_layers_consume_everything(self):
        c = ghz(6)
        layers = para_finding(build_dag(c))
        coloring, end = bipartite_prefix(layers, 0, c)
        assert end == layers.alpha
        for gate in c.gates:
            assert coloring[gate.control] != coloring[gate.target]

    def test_odd_ring_stops_growth(self):
        # layers: {(0,1),(2,3)} then {(1,2)} then {(0,3)} wait that is even;
        # use a triangle closed at the third layer
        c = circuit(3, [(0, 1), (1, 2), (2, 0)])
        layers = para_finding(build_dag(c))
        assert layers.alpha == 3
        coloring, end = bipartite_prefix(layers, 0, c)
        assert end == 2  # the closing edge of the triangle is left out

    def test_two_adjacent_layers_always_consumable(self):
        rng = random.Random(31337)
        for trial in range(60):
            n = rng.randint(6, 12)
            c = gen_random_circuit(
                n, rng.randint(2, 6),
                rng.randint(1, min(3, n // 2)), seed=trial,
            )
            layers = para_finding(build_dag(c))
            start = 0
            while start < layers.alpha:
                _, end = bipartite_prefix(layers, start, c)
                assert end - start >= 2 or end == layers.alpha
                start = end


class TestScheduleSufficient:
    def test_two_layer_circuit_no_remap(self):
        c = circuit(6, [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)])
        layers = para_finding(build_dag(c))
        assert layers.alpha == 2
        layout = uniform_dd_layout(2, 3)
        mapping = baseline_mapping("snake", 6, ArrayShape(2, 3))
        sched = schedule_sufficient(layers, layout, mapping, c)
        check_schedule(sched, c, layout, sched.mapping)
        assert sched.delta == 2
        assert not any(a.kind is ActionKind.MODIFY for acts in sched.cycles for a in acts)

    def test_bipartite_stream_is_alpha(self):
        c = ghz(9)
        layers = para_finding(build_dag(c))
        layout = uniform_dd_layout(3, 3)
        mapping = baseline_mapping("snake", 9, ArrayShape(3, 3))
        sched = schedule_sufficient(layers, layout, mapping, c)
        check_schedule(sched, c, layout, sched.mapping)
        assert sched.delta == layers.alpha

    def test_remap_blocks_cost_three_cycles(self):
        # triangle forces a second segment: delta = alpha + 3
        c = circuit(3, [(0, 1), (1, 2), (2, 0)])
        layers = para_finding(build_dag(c))
        layout = uniform_dd_layout(1, 3)
        mapping = baseline_mapping("snake", 3, ArrayShape(1, 3))
        sched = schedule_sufficient(layers, layout, mapping, c)
        check_schedule(sched, c, layout, sched.mapping)
        assert sched.delta == layers.alpha + 3

    def test_lattice_surgery_alpha_exact(self):
        c = gen_random_circuit(8, 5, 2, seed=4)
        layers = para_finding(build_dag(c))
        layout = uniform_ls_layout(3, 3, gap=1)
        mapping = baseline_mapping("snake", 8, ArrayShape(3, 3))
        sched = schedule_sufficient(layers, layout, mapping, c)
        check_schedule(sched, c, layout, mapping)
        assert sched.delta == layers.alpha

    def test_capacity_precondition(self):
        c = circuit(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        layers = para_finding(build_dag(c))
        layout = uniform_dd_layout(3, 3)  # capacity 3 < pm 4
        mapping = baseline_mapping("snake", 8, ArrayShape(3, 3))
        with pytest.raises(InfeasibleError):
            schedule_sufficient(layers, layout, mapping, c)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(4, 16), depth=st.integers(1, 12), data=st.data(),
           model=st.sampled_from((DD, LS)), mapping=st.sampled_from(("snake", "random")),
           seed=st.integers(0, 2**16))
    def test_delta_is_alpha_plus_the_remaps(self, n, depth, data, model, mapping, seed):
        # lattice surgery routes each layer in one cycle; double defect adds
        # exactly three cycles per remap block, whose first cycle is phase 1
        par = data.draw(st.integers(1, n // 2))
        config = RunConfig(random_params=(n, depth, par), model=model, chip="sufficient",
                           scheduler="resu", mapping=mapping, seed=seed)
        c = load_circuit(config)
        sched, layers = compile_once(config, c)
        assert validate(sched, c) == []
        remaps = sum(1 for acts in sched.cycles
                     if acts[0].kind is ActionKind.MODIFY and acts[0].phase == 1)
        assert sched.delta == layers.alpha + 3 * remaps
        assert model is DD or remaps == 0


def _one_gate(cycles, cut=CutType.Z, positions=None):
    """``cycles`` as the schedule of one gate, from qubit 0 in cell (0, 0) of
    a 2x2 double-defect array, with cut X, to qubit 1 in cell (0, 1), with
    ``cut``; returns the schedule and its circuit."""
    mapping = TileMapping(ArrayShape(2, 2), positions or {0: (0, 0), 1: (0, 1)},
                          cuts={0: CutType.X, 1: cut})
    return EncodedSchedule(cycles, uniform_dd_layout(2, 2), mapping), circuit(2, [(0, 1)])


def _one_ls_gate(cycles):
    """``cycles`` as the schedule of one gate between the data tiles (1, 1)
    and (1, 3) of a 1x2 lattice-surgery array, 3x5 tiles; returns the
    schedule and its circuit."""
    mapping = TileMapping(ArrayShape(1, 2), {0: (0, 0), 1: (0, 1)})
    return EncodedSchedule(cycles, uniform_ls_layout(1, 2), mapping), circuit(2, [(0, 1)])


_EDGE = RoutePath(DD, ((0, 0), (0, 1)))  # a route between the tiles of ``_one_gate``


def _braid(gate=0, route=_EDGE):
    return [[Action(ActionKind.BRAID, gate=gate, route=route)]]


def _direct(route):
    return [[Action(ActionKind.DIRECT, gate=0, route=route, phase=p)] for p in (1, 2, 3)]


def _modify():
    return [[Action(ActionKind.MODIFY, tile=(0, 0), new_cut=CutType.Z, phase=p)] for p in (1, 2, 3)]


def _with_first(cycles, action):
    """``cycles`` with ``action`` added to their first cycle."""
    return [[*cycles[0], action], *cycles[1:]]


class TestValidate:
    def test_producers_pass(self, rng):
        for _ in range(20):
            c = random_tiny_circuit(rng)
            layout, mapping, cuts = _dd_setup(c, 2, 3)
            sched = schedule_limited(c, layout, mapping)
            assert validate(sched, c, layout, mapping) == []

    def test_dependency_violation_detected(self):
        c = circuit(2, [(0, 1), (1, 0)])
        layout, mapping, cuts = _dd_setup(c, 1, 2)
        route = RoutePath(DD, ((0, 0), (0, 1)))
        route2 = RoutePath(DD, ((1, 0), (1, 1)))
        bad = EncodedSchedule(
            [[Action(ActionKind.BRAID, gate=1, route=route)],
             [Action(ActionKind.BRAID, gate=0, route=route2)]],
            layout, mapping,
        )
        violations = validate(bad, c, layout, mapping)
        assert any("dependency" in v for v in violations)

    def test_capacity_violation_detected(self):
        c = circuit(4, [(0, 1), (2, 3)])
        layout = uniform_dd_layout(1, 4)
        mapping = TileMapping(
            ArrayShape(1, 4), {0: (0, 0), 1: (0, 3), 2: (0, 1), 3: (0, 2)},
            cuts={0: CutType.X, 1: CutType.Z, 2: CutType.X, 3: CutType.Z},
        )
        shared = RoutePath(DD, ((0, 1), (0, 2), (0, 3)))
        inner = RoutePath(DD, ((0, 2), (0, 3)))
        bad = EncodedSchedule(
            [[Action(ActionKind.BRAID, gate=0, route=shared),
              Action(ActionKind.BRAID, gate=1, route=inner)]],
            layout, mapping,
        )
        violations = validate(bad, c, layout, mapping)
        assert any("capacity" in v for v in violations)

    def test_same_cut_braid_detected(self):
        c = circuit(2, [(0, 1)])
        same = {0: CutType.X, 1: CutType.X}
        layout, mapping, cuts = _dd_setup(c, 1, 2, cuts_map=same)
        bad = EncodedSchedule(
            [[Action(ActionKind.BRAID, gate=0, route=RoutePath(DD, ((0, 0), (0, 1))))]],
            layout, mapping,
        )
        violations = validate(bad, c, layout, mapping)
        assert any("same-cut" in v for v in violations)

    def test_opposite_cut_direct_detected(self):
        c = circuit(2, [(0, 1)])
        opposite = {0: CutType.X, 1: CutType.Z}
        layout, mapping, cuts = _dd_setup(c, 1, 2, cuts_map=opposite)
        route = RoutePath(DD, ((0, 0), (0, 1)))
        bad = EncodedSchedule(
            [[Action(ActionKind.DIRECT, gate=0, route=route, phase=p)] for p in (1, 2, 3)],
            layout, mapping,
        )
        assert validate(bad, c, layout, mapping) == [
            "gate 0: 3-cycle direct execution between opposite cuts at 0"
        ]

    def test_two_modifications_of_one_tile_reported(self):
        c = circuit(2, [(0, 1)])
        layout, mapping, cuts = _dd_setup(c, 1, 2, cuts_map={0: CutType.X, 1: CutType.Z})
        modify = [[Action(ActionKind.MODIFY, tile=(0, 0), new_cut=cut, phase=p)
                   for cut in (CutType.Z, CutType.X)] for p in (1, 2, 3)]
        braid = [Action(ActionKind.BRAID, gate=0, route=RoutePath(DD, ((0, 0), (0, 1))))]
        bad = EncodedSchedule([*modify, braid], layout, mapping)
        assert validate(bad, c, layout, mapping) == [
            f"cycle {t}: tile (0, 0) used by two actions" for t in range(3)
        ]

    def test_one_junction_route_between_tiles_sharing_it(self):
        # (0, 1) is a corner of both tiles, so both route ends are on them
        c = circuit(2, [(0, 1)])
        layout, mapping, cuts = _dd_setup(c, 1, 2, cuts_map={0: CutType.X, 1: CutType.Z})
        bad = EncodedSchedule(
            [[Action(ActionKind.BRAID, gate=0, route=RoutePath(DD, ((0, 1),)))]], layout, mapping)
        assert validate(bad, c) == ["gate 0: corridor route must hold at least one segment"]

    def test_arguments_must_agree_with_the_schedule(self):
        # positions, tiles and cuts all come from the schedule; a layout or a
        # mapping that would place the operands elsewhere is refused
        c = circuit(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        layout, mapping, cuts = _dd_setup(c, 2, 2)
        sched = schedule_limited(c, layout, mapping)
        swapped = TileMapping(ArrayShape(2, 2), {0: (1, 1), 1: (1, 0), 2: (0, 1), 3: (0, 0)}, cuts)
        with pytest.raises(SurfcError, match="mapping argument"):
            validate(sched, c, layout, swapped)
        with pytest.raises(SurfcError, match="layout argument"):
            validate(sched, c, uniform_dd_layout(2, 2, bandwidth=2), mapping)
        flipped = mapping.with_cuts({q: cut.flipped for q, cut in cuts.items()})
        assert validate(sched, c, uniform_dd_layout(2, 2), flipped) == []
        # a resu schedule carries its own cuts; the caller's mapping has none
        resu = schedule_sufficient(para_finding(build_dag(c)), layout, mapping, c)
        assert validate(resu, c, layout, replace(mapping, cuts=None)) == []

    def test_missing_gate_detected(self):
        c = circuit(2, [(0, 1)])
        layout, mapping, cuts = _dd_setup(c, 1, 2)
        empty = EncodedSchedule([], layout, mapping)
        violations = validate(empty, c, layout, mapping)
        assert any("never executed" in v for v in violations)

    # messages pinned on hand-built schedules: a 1x4 array, a direct gate
    # between the same-cut tiles (0, 0) and (0, 1) over cycles 0-2, and a
    # braid between the opposite-cut tiles (0, 2) and (0, 3) in each cycle
    # whose route shares junctions and segments with the direct one
    _DIRECT_A = ((0, 1), (1, 1))
    _DIRECT_B = ((0, 1), (0, 2), (1, 2))
    _BRAID = ((1, 2), (1, 1), (0, 1), (0, 2), (0, 3))

    def _direct_and_braids(self, direct_routes):
        c = circuit(4, [(0, 1), (2, 3), (2, 3), (2, 3)])
        layout = uniform_dd_layout(1, 4)
        mapping = TileMapping(
            ArrayShape(1, 4), {0: (0, 0), 1: (0, 1), 2: (0, 2), 3: (0, 3)},
            cuts={0: CutType.X, 1: CutType.X, 2: CutType.X, 3: CutType.Z},
        )
        cycles = [[Action(ActionKind.DIRECT, gate=0, route=route, phase=p),
                   Action(ActionKind.BRAID, gate=p, route=RoutePath(DD, self._BRAID))]
                  for p, route in zip((1, 2, 3), direct_routes)]
        return validate(EncodedSchedule(cycles, layout, mapping), c)

    def test_direct_phases_with_equal_distinct_routes(self):
        # three equal route objects count as one route held for three cycles
        routes = [RoutePath(DD, self._DIRECT_A) for _ in range(3)]
        assert len({id(r) for r in routes}) == 3
        assert self._direct_and_braids(routes) == [
            f"cycle {t}: resource {res} used 2 > capacity 1"
            for t in range(3) for res in (("j", 0, 1), ("j", 1, 1), ("v", 0, 1))
        ]

    def test_direct_route_changed_in_phase_two(self):
        a, b = RoutePath(DD, self._DIRECT_A), RoutePath(DD, self._DIRECT_B)
        on_a = [("j", 0, 1), ("j", 1, 1), ("v", 0, 1)]
        on_b = [("j", 0, 1), ("j", 0, 2), ("j", 1, 2), ("h", 0, 1)]
        # each phase is replayed on the route it holds, the third on the
        # first route object again
        assert self._direct_and_braids([a, b, a]) == [
            *(f"cycle 0: resource {res} used 2 > capacity 1" for res in on_a),
            *(f"cycle 1: resource {res} used 2 > capacity 1" for res in on_b),
            *(f"cycle 2: resource {res} used 2 > capacity 1" for res in on_a),
            "gate 0: direct execution changed route between phases",
        ]
        assert self._direct_and_braids([a, a, b])[-1] == "gate 0: direct execution changed route between phases"

    def test_route_ends_one_step_off_the_tiles(self):
        # a braid between tiles (1, 1) and (1, 3) of a 3x5 array: every
        # junction within one step of a tile's four corners as the first
        # (last) junction, and a straight route from (to) a corner of the
        # other tile
        c = circuit(2, [(0, 1)])
        layout = uniform_dd_layout(3, 5)
        mapping = TileMapping(ArrayShape(3, 5), {0: (1, 1), 1: (1, 3)},
                              cuts={0: CutType.X, 1: CutType.Z})

        def walk(a, b):
            (i, j), nodes = a, [a]
            while (i, j) != b:
                if i != b[0]:
                    i += 1 if b[0] > i else -1
                else:
                    j += 1 if b[1] > j else -1
                nodes.append((i, j))
            return tuple(nodes)

        off = 0
        for tile, other, first in (((1, 1), (2, 4), True), ((1, 3), (1, 1), False)):
            corners = {(tile[0] + di, tile[1] + dj) for di in (0, 1) for dj in (0, 1)}
            for end in [(tile[0] + di, tile[1] + dj) for di in range(-1, 3) for dj in range(-1, 3)]:
                nodes = walk(end, other) if first else walk(other, end)
                schedule = EncodedSchedule(
                    [[Action(ActionKind.BRAID, gate=0, route=RoutePath(DD, nodes))]], layout, mapping)
                off += end not in corners
                assert validate(schedule, c) == (
                    [] if end in corners else ["gate 0: route endpoints not on operand tiles"])
        assert off == 2 * 12

    @pytest.mark.parametrize("schedule, c, expected", [
        pytest.param(*_one_gate(_braid(gate=1)),
                     ["cycle 0: braid action names no gate of the circuit: 1",
                      "gate 0 never executed"], id="gate id past the last"),
        pytest.param(*_one_gate(_braid(gate=-1)),
                     ["cycle 0: braid action names no gate of the circuit: -1",
                      "gate 0 never executed"], id="gate id -1"),
        pytest.param(*_one_gate(_braid(gate=None)),
                     ["cycle 0: braid action names no gate of the circuit: None",
                      "gate 0 never executed"], id="no gate"),
        pytest.param(*_one_gate(_braid(route=None)), ["gate 0: no dd route"],
                     id="braid with no route"),
        pytest.param(*_one_gate(_braid(route=RoutePath(LS, ((0, 0), (0, 1))))),
                     ["gate 0: no dd route"], id="route of the other model"),
        pytest.param(*_one_gate(_braid(route=RoutePath(DD, ((0, 1), (0, 2), (0, 3), (0, 2))))),
                     ["gate 0: route node (0, 3) is off the fabric"], id="junction past the grid"),
        pytest.param(*_one_gate(_braid(route=RoutePath(DD, ((0, 0), (-1, 0), (-1, 1), (0, 1))))),
                     ["gate 0: route node (-1, 0) is off the fabric"], id="junction above the grid"),
        pytest.param(*_one_ls_gate([[Action(ActionKind.BELL, gate=0, route=RoutePath(LS, (
                         (0, 1), (-1, 1), (-2, 1), (-2, 2), (-2, 3), (-1, 3), (0, 3))))]]),
                     ["gate 0: route node (-1, 1) is off the fabric"],
                     id="lattice-surgery tiles above the grid"),
        pytest.param(*_one_gate(_direct(RoutePath(DD, ((0, 0), (2, 2)))), cut=CutType.X),
                     ["gate 0: route endpoints not on operand tiles",
                      "gate 0: junction route broken at (0, 0)->(2, 2)"], id="broken direct route"),
        pytest.param(*_one_gate(_direct(RoutePath(DD, ())), cut=CutType.X),
                     ["gate 0: corridor route must hold at least one segment"],
                     id="empty direct route"),
        pytest.param(*_one_gate(_direct(None), cut=CutType.X), ["gate 0: no dd route"],
                     id="direct with no route"),
        pytest.param(*_one_gate(_braid(), positions={0: (0, 0)}), ["qubit 1 has no tile"],
                     id="unmapped qubit"),
        pytest.param(*_one_ls_gate([
            [Action(ActionKind.BELL, gate=0, route=RoutePath(LS, ((1, 2),)))],
            *([Action(ActionKind.MODIFY, tile=(0, 2), new_cut=CutType.X, phase=p)] for p in (1, 2, 3))]),
            [f"cycle {t}: action kind ActionKind.MODIFY on a ls chip" for t in (1, 2, 3)],
            id="cut modification on lattice surgery"),
        pytest.param(*_one_gate(_with_first(_direct(_EDGE), Action(
                         ActionKind.DIRECT, gate=0, route=_EDGE)), cut=CutType.X),
                     ["cycle 0: direct action phase None is not 1, 2 or 3"], id="direct with no phase"),
        pytest.param(*_one_gate(_with_first([*_modify(), *_braid()], Action(
                         ActionKind.MODIFY, new_cut=CutType.Z, phase=1)), cut=CutType.X),
                     ["cycle 0: modify action tile None holds no qubit"], id="modify with no tile"),
        pytest.param(*_one_gate(_with_first([*_modify(), *_braid()], Action(
                         ActionKind.MODIFY, tile=[0, 0], new_cut=CutType.Z, phase=1)), cut=CutType.X),
                     ["cycle 0: modify action tile [0, 0] holds no qubit"], id="modify with a list tile"),
    ])
    def test_malformed_schedule_is_a_violation(self, schedule, c, expected):
        # schedules that the replay once raised on or accepted
        assert validate(schedule, c) == expected


class TestDeltaLowerBound:
    def test_delta_at_least_alpha_everywhere(self, rng):
        for _ in range(15):
            c = random_tiny_circuit(rng)
            layout, mapping, cuts = _dd_setup(c, 2, 3)
            for maker in (
                lambda: schedule_limited(c, layout, mapping),
                lambda: schedule_limited(c, layout, mapping, strategy="circuit-order"),
                lambda: schedule_limited(c, layout, mapping, strategy="time-first"),
                lambda: schedule_limited(c, layout, mapping, strategy="channel-first"),
            ):
                sched = maker()
                check_schedule(sched, c, layout, mapping)


# ---------------------------------------------------------------------------
# the replay on integer keys against the replay on tuple resources

Tile = tuple[int, int]


def _reference_validate(
    schedule: EncodedSchedule,
    circuit: LogicalCircuit,
    layout: ChipLayout | None = None,
    mapping: TileMapping | None = None,
) -> list[str]:
    """``validate`` as it was when it replayed every cycle on tuple
    resources, kept verbatim: the reference of ``TestValidateAgainstTupleReplay``."""
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
                _reference_check_route(v, a, ta, tb, model)
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


def _reference_check_route(v, action, ta: Tile, tb: Tile, model) -> None:
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


def _base_schedules(seed: int):
    """Schedules of one random circuit from every ``LIMITED`` strategy and
    from ``resu``, on a double-defect or a lattice-surgery layout; yields
    (name, schedule, circuit)."""
    rng = random.Random(seed)
    model = rng.choice((DD, LS))
    rows, cols = rng.choice(((2, 2), (2, 3), (3, 3)))
    n = rng.randint(2, rows * cols)
    if n >= 4 and rng.random() < 0.5:
        c = gen_random_circuit(n, rng.randint(2, 6), rng.randint(1, n // 2), seed=rng.randrange(1000))
    else:
        c = random_tiny_circuit(rng, max_n=n, max_g=12)
    shape = ArrayShape(rows, cols)
    mapping = baseline_mapping(rng.choice(("snake", "random")), c.n, shape, seed=seed)
    if model is DD:
        layout = uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 3))
        if rng.random() < 0.5:  # each line its own bandwidth: 1, 3 or 4 at d=2
            h = tuple(rng.choice((0, 10, 15)) for _ in range(rows + 1))
            w = tuple(rng.choice((0, 10, 15)) for _ in range(cols + 1))
            layout = ChipLayout(model=DD, d=2, m1=rows * 10 + sum(h), m2=cols * 10 + sum(w),
                                array_r=rows, array_c=cols, h_widths=h, v_widths=w)
        if rng.random() < 0.5:
            cuts = init_cut_types(c)
        else:  # random cuts make same-cut pairs, and so directs and modifications
            cuts = {q: rng.choice((CutType.X, CutType.Z)) for q in range(c.n)}
        mapping = mapping.with_cuts(cuts)
    else:
        layout = uniform_ls_layout(rows, cols, gap=rng.randint(1, 2))
    for strategy in LIMITED:
        try:
            yield strategy, schedule_limited(c, layout, mapping, strategy=strategy), c
        except SchedulingError:  # a lattice-surgery pair walled off
            pass
    try:
        yield "resu", schedule_sufficient(para_finding(build_dag(c)), layout, mapping, c), c
    except InfeasibleError:  # capacity below the layering width
        pass


def _mutations(schedule: EncodedSchedule, rng: random.Random):
    """Malformed copies of ``schedule``; yields (kind, schedule)."""
    cycles = schedule.cycles
    model = schedule.model
    layout = schedule.layout
    dd = model is DD
    rows = layout.array_r + 1 if dd else layout.grid_rows
    cols = layout.array_c + 1 if dd else layout.grid_cols
    g = len({a.gate for acts in cycles for a in acts if a.gate is not None})
    located = [(t, k, a) for t, acts in enumerate(cycles) for k, a in enumerate(acts)]

    def edited(edits, extra=()):
        """A copy with the actions at (t, k) replaced (None drops one) and
        the (t, action) pairs of ``extra`` appended."""
        out = [list(acts) for acts in cycles]
        for (t, k), action in sorted(edits.items(), key=lambda e: (-e[0][0], -e[0][1])):
            if action is None:
                del out[t][k]
            else:
                out[t][k] = action
        for t, action in extra:
            while len(out) <= t:
                out.append([])
            out[t].append(action)
        return EncodedSchedule(out, schedule.layout, schedule.mapping)

    def pick(test):
        found = [(t, k, a) for t, k, a in located if test(a)]
        return rng.choice(found) if found else None

    if located:
        t, k, a = rng.choice(located)
        yield "dropped action", edited({(t, k): None})
        yield "moved action", edited({(t, k): None}, [(rng.randrange(len(cycles) + 2), a)])
    hit = pick(lambda a: a.kind in (ActionKind.BRAID, ActionKind.BELL))
    if hit:
        t, k, a = hit
        yield "duplicated braid", edited({}, [(rng.randrange(len(cycles)), a)])
        yield "gate out of range", edited({(t, k): replace(a, gate=rng.choice((g, g + 2, -1, -g)))})
        if rng.random() < 0.2:
            yield "no gate", edited({(t, k): replace(a, gate=None)})
            yield "no route", edited({(t, k): replace(a, route=None)})
    hit = pick(lambda a: a.kind is ActionKind.DIRECT)
    if hit:
        t, k, a = hit
        yield "shifted direct phase", edited({(t, k): None}, [(max(0, t + rng.choice((-1, 1))), a)])
        other = pick(lambda b: b.route is not None and b.route != a.route)
        if other:
            yield "direct route changed", edited({(t, k): replace(a, route=other[2].route)})
        yield "direct phase renumbered", edited({(t, k): replace(a, phase=rng.choice((1, 2, 3, 4)))})
        yield "direct phase out of range", edited({}, [(t, replace(a, phase=rng.choice((None, 0, 4))))])
        # the same route in every phase, so that only the route check sees it
        phases = [(t2, k2, b) for t2, k2, b in located if b.kind is ActionKind.DIRECT and b.gate == a.gate]
        (i, j), rest = a.route.nodes[0], a.route.nodes[1:]
        diagonal = (i + 1 if i + 1 < rows else i - 1, j + 1 if j + 1 < cols else j - 1)
        for kind, route in (("broken direct route", RoutePath(model, ((i, j), diagonal, *rest))),
                            ("empty direct route", RoutePath(model, ())),
                            ("direct with no route", None)):
            yield kind, edited({(t2, k2): replace(b, route=route) for t2, k2, b in phases})
    hit = pick(lambda a: a.kind is ActionKind.MODIFY and a.phase in (2, 3))
    if hit:
        t, k, a = hit
        yield "missing modify phase", edited({(t, k): None})
        yield "modify moved", edited({(t, k): replace(a, tile=rng.choice(
            [b.tile for _, _, b in located if b.tile is not None]))})
    hit = pick(lambda a: a.kind is ActionKind.MODIFY and a.phase == 1)
    if hit:
        t, k, a = hit
        nowhere = rng.choice((None, (-1, 0), (rows, cols)))
        yield "modify of no qubit", edited({}, [(t, replace(a, tile=nowhere))])
    routed = [(t, k, a) for t, k, a in located if a.route is not None and a.route.nodes]
    if routed:
        t, k, a = rng.choice(routed)
        same = [(k2, b) for t2, k2, b in routed if t2 == t and k2 != k]
        if same:
            k2, b = rng.choice(same)
            yield "overloaded resources", edited({(t, k2): replace(b, route=a.route)})
        else:
            yield "overloaded resources", edited({}, [(t, replace(a, gate=(a.gate + 1) % max(g, 1)))])
        nodes = list(a.route.nodes)
        i = rng.randrange(len(nodes))
        off = rng.choice(((-1, nodes[i][1]), (nodes[i][0], -1), (rows, nodes[i][1]),
                          (nodes[i][0], cols), (rows + 3, cols + 3), (-2, -5)))
        yield "out-of-grid node", edited({(t, k): replace(a, route=RoutePath(model, tuple(
            nodes[:i] + [off] + nodes[i + 1:])))})
        if len(nodes) >= 3:
            yield "broken step", edited({(t, k): replace(a, route=RoutePath(model, tuple(
                nodes[:i] + nodes[i + 1:])))})
        if not dd:
            data = sorted(schedule.mapping.data_tiles(layout))
            yield "route over a data tile", edited({(t, k): replace(a, route=RoutePath(model, tuple(
                nodes[:i] + [rng.choice(data)] + nodes[i + 1:])))})
        yield "tile held on a route", edited({}, [(t, Action(
            ActionKind.MODIFY, tile=rng.choice(nodes), new_cut=CutType.X, phase=1))])
        other = LS if dd else DD
        yield "route of the other model", edited({(t, k): replace(a, route=RoutePath(other, a.route.nodes))})
    positions = dict(schedule.mapping.positions)
    del positions[rng.choice(sorted(positions))]
    yield "unmapped qubit", EncodedSchedule(cycles, layout, replace(schedule.mapping, positions=positions))


def _well_formed(schedule: EncodedSchedule, circ) -> bool:
    """Every qubit has a tile, every action is of a kind its model has, every
    direct or modify action is in phase 1, 2 or 3, every modify action is on
    a qubit's tile, every braid, Bell or direct action names a gate of
    ``circ``, and each of their routes is a path on the schedule's fabric: of
    its model, on its grid and off its lattice-surgery data tiles, and each
    step between neighbours.  A direct route also passes the reference's
    route check, which the reference never ran on one."""
    layout, mapping, model = schedule.layout, schedule.mapping, schedule.model
    if any(q not in mapping.positions for q in range(circ.n)):
        return False
    rows, cols = ((layout.array_r + 1, layout.array_c + 1) if model is DD
                  else (layout.grid_rows, layout.grid_cols))
    data = mapping.data_tiles(layout)
    tiles = {mapping.abs_tile(layout, q) for q in mapping.positions}
    for acts in schedule.cycles:
        for a in acts:
            if (a.kind is ActionKind.BELL) != (model is LS):
                return False
            if a.kind in (ActionKind.DIRECT, ActionKind.MODIFY) and a.phase not in (1, 2, 3):
                return False
            if a.kind is ActionKind.MODIFY:
                if a.tile not in tiles:
                    return False
                continue
            if type(a.gate) is not int or not 0 <= a.gate < circ.g:
                return False
            route = a.route
            if route is None or route.model is not model:
                return False
            nodes = route.nodes
            if not all(0 <= i < rows and 0 <= j < cols for i, j in nodes) or not data.isdisjoint(nodes):
                return False
            if any(abs(i1 - i2) + abs(j1 - j2) != 1 for (i1, j1), (i2, j2) in zip(nodes, nodes[1:])):
                return False
            if a.kind is ActionKind.DIRECT:
                gate = circ.gates[a.gate]
                ta, tb = (mapping.abs_tile(layout, q) for q in (gate.control, gate.target))
                problems = []
                _reference_check_route(problems, a, ta, tb, model)
                if problems:
                    return False
    return True


def _compare(schedule: EncodedSchedule, circ) -> str:
    """Asserts that ``validate`` raises nothing; that it reports a violation
    where the reference raises or the schedule is not well formed; and that
    it gives the reference's violations otherwise.  Returns the outcome."""
    got = validate(schedule, circ)
    try:
        want = _reference_validate(schedule, circ)
    except Exception:  # a malformed schedule the reference cannot replay
        assert got
        return "reference raises"
    if not _well_formed(schedule, circ):
        assert got
        return "malformed"
    assert got == want
    return "violations" if want else "valid"


def _validate_cases(seed: int) -> Counter:
    rng = random.Random(seed)
    kinds = Counter()
    for name, schedule, circ in _base_schedules(seed):
        assert _compare(schedule, circ) == "valid"
        kinds[name] += 1
        for kind, mutated in _mutations(schedule, rng):
            kinds[kind] += 1
            kinds[_compare(mutated, circ)] += 1
    return kinds


class TestValidateAgainstTupleReplay:
    """``validate`` gives the violation list of the tuple replay it replaced
    (``_reference_validate``) on the schedules of every producer and on
    well-formed copies of them with faults; on a malformed copy, where the
    reference may raise or miss the fault, it raises nothing and reports a
    violation."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_same_violations(self, seed):
        _validate_cases(seed)

    def test_chain_links_checked_in_order(self):
        grid = frozenset((r, c) for r in range(2) for c in range(7))
        # the first and the last link of the chain broken, then a middle one too
        ta, tb = (0, 0), (0, 6)
        for nodes, broken in [
            (((1, 1), (1, 2), (1, 3), (1, 4), (1, 5)), [((0, 0), (1, 1)), ((1, 5), (0, 6))]),
            (((1, 1), (1, 2), (1, 4), (1, 5)),
             [((0, 0), (1, 1)), ((1, 2), (1, 4)), ((1, 5), (0, 6))]),
            (((0, 1), (0, 2), (0, 3), (0, 4), (0, 5)), []),
        ]:
            action = Action(ActionKind.BELL, gate=7, route=RoutePath(LS, nodes))
            got, expected = [], []
            scheduler._check_route(got, 7, action.route, ta, tb, LS, grid)
            _reference_check_route(expected, action, ta, tb, LS)
            assert got == expected == [f"gate 7: route chain broken between {x} and {y}"
                                       for x, y in broken]

    def test_keys_name_the_tuple_resources(self):
        for rows, cols in ((1, 1), (1, 4), (3, 2), (4, 5)):
            grid, node_key, edge_key = scheduler._junction_keys(rows, cols)
            assert grid == [(i, j) for i in range(rows) for j in range(cols)]
            key_resource = [(kind, i, j) for kind in "jhv" for i, j in grid]
            assert {key_resource[k]: node for node, k in node_key.items()} == {
                ("j", i, j): (i, j) for i, j in grid}
            steps = [(a, b) for a in grid for b in grid
                     if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1]
            assert sorted(edge_key) == sorted(steps)
            for (a, b), k in edge_key.items():
                assert key_resource[k] == RoutePath(DD, (a, b)).resources()[2]

    def test_every_producer_and_mutation(self):
        kinds = sum((_validate_cases(seed) for seed in range(40)), Counter())
        expected = [*LIMITED, "resu", "dropped action", "moved action", "duplicated braid",
                    "gate out of range", "no gate", "no route", "shifted direct phase",
                    "direct route changed", "direct phase renumbered", "direct phase out of range",
                    "missing modify phase", "modify moved", "modify of no qubit",
                    "overloaded resources", "out-of-grid node", "broken step",
                    "route over a data tile", "tile held on a route", "route of the other model",
                    "broken direct route", "empty direct route", "direct with no route",
                    "unmapped qubit", "reference raises", "malformed", "violations", "valid"]
        assert set(kinds) == set(expected) and min(kinds.values()) >= 10, kinds
