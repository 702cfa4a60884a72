import math
import random

import pytest

from conftest import check_schedule, random_tiny_circuit, uniform_dd_layout, uniform_ls_layout
from surfc.bench import ghz
from surfc.chip import ChipModel
from surfc.circuits import build_comm_graph, build_dag, circuit
from surfc.errors import InfeasibleError, SchedulingError
from surfc.generate import gen_random_circuit
from surfc.placement import (
    ArrayShape,
    CutType,
    TileMapping,
    baseline_mapping,
    init_cut_types,
)
from surfc.profiler import para_finding
from surfc.router import RoutePath
from surfc.scheduler import (
    Action,
    ActionKind,
    EncodedSchedule,
    bipartite_prefix,
    m_value,
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
