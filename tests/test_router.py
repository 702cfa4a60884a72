import copy
import hashlib
import itertools
import random
import re
import sys
from collections import Counter
from dataclasses import replace
from unittest.mock import patch

import pytest
from conftest import uniform_dd_layout, uniform_ls_layout
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_oracle import routing_feasible
from reference_search import res_id, resource_ids, rooted_bfs, trace_back

from surfc import router
from surfc.chip import ChipLayout, ChipModel, ChipSpec, chip_capacity, config_dims, derive_layout
from surfc.errors import SchedulingError
from surfc.oracle import OracleBudget
from surfc.placement import ArrayShape, baseline_mapping
from surfc.router import (
    CycleOccupancy,
    Fabric,
    RoutePath,
    find_path,
    route_batch_guaranteed,
)

DD = ChipModel.DOUBLE_DEFECT
LS = ChipModel.LATTICE_SURGERY


def _bits(mask: int) -> list[int]:
    """Ascending ids of the set bits of ``mask``."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _route(found):
    """The route of a ``find_path`` result; None on a miss."""
    return None if found is None else found[0]


def tile_corners(tile):
    r, c = tile
    return ((r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1))


class TestFindPath:
    def test_adjacent_tiles_single_segment(self):
        layout = uniform_dd_layout(3, 3)
        occ = CycleOccupancy(layout)
        found = find_path(occ, 0, (0, 0), (0, 1))
        assert found is not None and len(found[0].nodes) == 2  # one segment

    def test_saturated_corridor_blocks(self):
        # adjacent tiles on a strip admit two seam routes; once both are
        # taken every corner junction is at capacity and routing fails
        layout = uniform_dd_layout(1, 2)  # 2x3 junction grid, bandwidth 1
        occ = CycleOccupancy(layout)
        for _ in range(2):
            found = find_path(occ, 0, (0, 0), (0, 1))
            assert found is not None
            occ.commit_route(*found, 0, 1)
        assert find_path(occ, 0, (0, 0), (0, 1)) is None

    def test_three_sequential_routes_on_bandwidth_one(self):
        # typical case [the guarantee itself is exercised through the batch
        # router]: greedy shortest-first lands all three on seeded layouts
        rng = random.Random(20240917)
        successes = 0
        for _ in range(40):
            g = rng.randint(3, 6)
            layout = uniform_dd_layout(g, g)
            tiles = [(r, c) for r in range(g) for c in range(g)]
            rng.shuffle(tiles)
            occ = CycleOccupancy(layout)
            paths = []
            for k in range(3):
                found = find_path(occ, 0, tiles[2 * k], tiles[2 * k + 1])
                if found is None:
                    break
                occ.commit_route(*found, 0, 1)
                paths.append(found[0])
            if len(paths) == 3:
                successes += 1
        assert successes >= 36  # greedy order loses only rare adversarial draws

    def test_shortest_among_feasible(self, rng):
        # exhaustive path enumerator cross-check on small grids
        layout = uniform_dd_layout(3, 3)
        graph_rows = graph_cols = 4

        def all_paths(src, dst):
            best = None
            goals = set(tile_corners(dst))
            def dfs(node, visited, length):
                nonlocal best
                if node in goals and length >= 1:
                    best = length if best is None else min(best, length)
                    return
                for dr, dc in ((-1, 0), (0, 1), (1, 0), (0, -1)):
                    nxt = (node[0] + dr, node[1] + dc)
                    if 0 <= nxt[0] < graph_rows and 0 <= nxt[1] < graph_cols and nxt not in visited:
                        dfs(nxt, visited | {nxt}, length + 1)
            for start in tile_corners(src):
                dfs(start, {start}, 0)
            return best

        occ = CycleOccupancy(layout)
        for _ in range(10):
            src, dst = rng.sample([(r, c) for r in range(3) for c in range(3)], 2)
            path, _ = find_path(occ, 0, src, dst)
            assert len(path.nodes) - 1 == all_paths(src, dst)


class TestCommit:
    def test_duration_three_frees_later(self):
        layout = uniform_dd_layout(2, 2)
        occ = CycleOccupancy(layout)
        path, ids = find_path(occ, 0, (0, 0), (1, 1))
        occ.commit_route(path, ids, 0, 3)
        # the route holds its lanes through cycle 2, so that cycle detours
        # around it; cycle 3 gets the original route back
        assert find_path(occ, 2, (0, 0), (1, 1))[0].nodes == ((1, 0), (2, 0), (2, 1))
        assert find_path(occ, 3, (0, 0), (1, 1))[0].nodes == path.nodes == ((0, 1), (1, 1))
        # the same lane is busy at cycle 2 and free at cycle 3
        res = path.resources()[1]
        assert _usage(occ, 2)[res_id(occ.fabric, res)] == 1
        assert _usage(occ, 3)[res_id(occ.fabric, res)] == 0

    def test_two_lanes_then_segment_blocked(self):
        layout = uniform_dd_layout(1, 2, bandwidth=2)
        occ = CycleOccupancy(layout)
        seam = RoutePath(DD, ((0, 0), (0, 1)))
        ids = resource_ids(occ.fabric, seam)
        occ.commit_route(seam, ids, 0, 1)
        occ.commit_route(seam, ids, 0, 1)
        # the segment itself is now at its two-lane capacity
        with pytest.raises(AssertionError):
            occ.commit_route(seam, ids, 0, 1)
        # routing between the tiles still succeeds through other channels
        assert find_path(occ, 0, (0, 0), (0, 1)) is not None

    def test_double_commit_is_internal_error(self):
        layout = uniform_dd_layout(1, 2)
        occ = CycleOccupancy(layout)
        path, ids = find_path(occ, 0, (0, 0), (0, 1))
        occ.commit_route(path, ids, 0, 1)
        with pytest.raises(AssertionError):
            occ.commit_route(path, ids, 0, 1)


def _random_paths(seed: int) -> tuple[Fabric, list[RoutePath]]:
    """Routes ``find_path`` finds on one random DD or LS fabric as earlier
    routes fill it, random walks on its node grid and a sequence of random
    nodes (not routes, but node sequences all the same)."""
    rng = random.Random(seed)
    model = rng.choice((DD, LS))
    rows, cols = rng.choice([(1, 2), (2, 1), (2, 2), (3, 4), (4, 3)])
    if model is DD:
        layout = uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 3))
        tiles = [(r, c) for r in range(rows) for c in range(cols)]
        grid = (rows + 1, cols + 1)
    else:
        layout = uniform_ls_layout(rows, cols, gap=rng.randint(1, 2))
        tiles = [(layout.row_tracks[r], layout.col_tracks[c])
                 for r in range(rows) for c in range(cols)]
        grid = (layout.grid_rows, layout.grid_cols)
    occ = CycleOccupancy(layout, frozenset(tiles) if model is LS else frozenset())
    paths = []
    for _ in range(6):
        found = find_path(occ, 0, *rng.sample(tiles, 2))
        if found is not None:
            paths.append(found[0])
            occ.commit_route(*found, 0)
    for _ in range(4):
        walk = [(rng.randrange(grid[0]), rng.randrange(grid[1]))]
        for _ in range(rng.randint(0, 8)):
            i, j = walk[-1]
            steps = [(i + di, j + dj) for di, dj in ((-1, 0), (0, 1), (1, 0), (0, -1))
                     if 0 <= i + di < grid[0] and 0 <= j + dj < grid[1]]
            walk.append(rng.choice(steps))
        paths.append(RoutePath(model, tuple(walk)))
    jumps = [(rng.randrange(grid[0]), rng.randrange(grid[1])) for _ in range(rng.randint(0, 5))]
    paths.append(RoutePath(model, tuple(jumps)))
    return occ.fabric, paths


class TestResourceIds:
    """The tests' ``resource_ids`` computes from the nodes the ids that
    ``res_id`` gives the tuple resources of ``RoutePath.resources``."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_same_as_tuple_resources(self, seed):
        fabric, paths = _random_paths(seed)
        for path in paths:
            assert resource_ids(fabric, path) == [res_id(fabric, r) for r in path.resources()]

    def test_one_hop_and_empty_routes(self):
        fabric = Fabric(uniform_dd_layout(1, 2))
        for nodes in (((0, 1), (1, 1)), ((1, 1), (0, 1)), ((0, 2), (0, 1))):
            path = RoutePath(DD, nodes)
            assert resource_ids(fabric, path) == [res_id(fabric, r) for r in path.resources()]
            assert len(resource_ids(fabric, path)) == 3
        assert resource_ids(Fabric(uniform_ls_layout(1, 2)), RoutePath(LS, ())) == []

    def test_over_commit_names_the_resource_and_cycle(self):
        occ = CycleOccupancy(uniform_dd_layout(1, 2))
        path = RoutePath(DD, ((0, 0), (0, 1)))
        ids = resource_ids(occ.fabric, path)
        occ.commit_route(path, ids, 6)
        with pytest.raises(AssertionError,
                           match=re.escape("lane over-commit on ('j', 0, 0) at cycle 6")):
            occ.commit_route(path, ids, 5, 3)
        # horizontal lines at one lane, vertical ones at two: a horizontal
        # seam's junctions take two routes, its segment one
        occ = CycleOccupancy(replace(uniform_dd_layout(1, 2, bandwidth=2), h_widths=(0, 0)))
        ids = resource_ids(occ.fabric, path)
        occ.commit_route(path, ids, 0)
        with pytest.raises(AssertionError,
                           match=re.escape("lane over-commit on ('h', 0, 0) at cycle 0")):
            occ.commit_route(path, ids, 0)


def _reference_graph(layout, data):
    """``(adj, cap, open, east, south, terminals)`` of ``Fabric(layout,
    data)`` built step by step from tile coordinates, with a tuple test
    against the data tiles per step; ``terminals`` maps every tile a route
    may attach to (array cells for double defect, grid tiles for lattice
    surgery) to its terminal ids."""
    dd = layout.model is DD
    data = frozenset() if dd else data
    rows, cols = ((layout.array_r + 1, layout.array_c + 1) if dd
                  else (layout.grid_rows, layout.grid_cols))
    tiles = [(r, c) for r in range(rows) for c in range(cols)]
    nodes = rows * cols
    bw_h, bw_v = layout.bw_h, layout.bw_v
    if dd:
        cap = [max(bw_h[i], bw_v[j]) for i, j in tiles]
        cap += [bw_h[i] if j < cols - 1 else 0 for i, j in tiles]
        cap += [bw_v[j] if i < rows - 1 else 0 for i, j in tiles]
    else:
        cap = [1] * nodes
    adj = []
    for n, (r, c) in enumerate(tiles):
        out = []
        for dr, dc in ((-1, 0), (0, 1), (1, 0), (0, -1)):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols) or (nr, nc) in data:
                continue
            if dd:
                end = n if dr + dc > 0 else nr * cols + nc  # the north or west end
                out.append((nr * cols + nc, end + (nodes if dr == 0 else 2 * nodes)))
            else:  # a route holds tiles only: the tile entered is the resource
                out.append((nr * cols + nc, nr * cols + nc))
        adj.append(tuple(out))
    free = sum(1 << n for n in range(nodes) if cap[n] > 0 and tiles[n] not in data)
    east = sum(1 << n for n in range(nodes) if n % cols < cols - 1 and (not dd or cap[nodes + n] > 0))
    south = sum(1 << n for n in range(nodes - cols) if not dd or cap[2 * nodes + n] > 0)
    if dd:
        terminals = {(r, c): (r * cols + c, r * cols + c + 1, (r + 1) * cols + c, (r + 1) * cols + c + 1)
                     for r in range(rows - 1) for c in range(cols - 1)}
    else:
        terminals = {t: tuple(sorted(m for m, _ in adj[n])) for n, t in enumerate(tiles)}
    return adj, cap, free, east, south, terminals


class TestFabricBuild:
    """``Fabric`` built by row and column arithmetic on node ids is the
    fabric of the step-by-step build, field by field, on both models."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_as_reference(self, seed):
        rng = random.Random(seed)
        model = rng.choice((DD, LS))
        if rng.random() < 0.5:
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            layout = (uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 3)) if model is DD
                      else uniform_ls_layout(rows, cols, gap=rng.randint(0, 2)))
        else:
            n, d = rng.randint(1, 30), rng.choice((2, 3))
            m1, m2 = config_dims(rng.choice(("min", "4x", "sufficient")), n, d, model,
                                 pm=rng.randint(1, max(1, n // 2)))
            layout = derive_layout(ChipSpec(model, m1, m2 + rng.choice((0, 7, 15)), d), n)
        cells = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
        data = frozenset(rng.sample(cells, rng.choice((0, len(cells), rng.randint(0, len(cells))))))
        fabric = Fabric(layout, data)
        adj, cap, free, east, south, terminals = _reference_graph(layout, data)
        assert fabric.adj == adj and fabric.cap == cap
        assert (fabric.open, fabric.east, fabric.south) == (free, east, south)
        for tile, ids in terminals.items():
            assert fabric.terminals(tile) == ids
            assert fabric.terminal_mask(tile) == router._mask(ids)


class TestBatchCommitIds:
    """Ring repair returns each route of a batch with the ids its search
    recorded: those of the route's resources, whose commit books the usage
    and full mask that the validator's count of the batch's resources gives."""

    def _batches(self):
        yield from itertools.islice(_ls_sweep_batches(), 300)
        rng = random.Random(77)
        for _ in range(150):
            g = rng.randint(3, 6)
            bandwidth = rng.randint(1, 3)
            tiles = rng.sample([(r, c) for r in range(g) for c in range(g)], 2 * chip_capacity(bandwidth))
            yield uniform_dd_layout(g, g, bandwidth), frozenset(), list(zip(tiles[::2], tiles[1::2]))
        # ring repair fails on this batch in every order; a restart routes it
        yield uniform_dd_layout(3, 3, 1), frozenset(), [((2, 1), (0, 2)), ((0, 1), (2, 2)), ((1, 2), (1, 1))]

    def test_commits_by_the_search_ids(self, ring_repairs):
        batches = 0
        for layout, data, pairs in self._batches():
            batches += 1
            occ = CycleOccupancy(layout, data)
            fabric = occ.fabric
            paths = route_batch_guaranteed(layout, pairs, data, fabric=fabric)
            routed = ring_repairs[-1]  # the repair that routed the batch
            assert len(routed) == len(paths)
            held = Counter()
            for (path, ids), returned in zip(routed, paths):
                assert path is returned and ids == [res_id(fabric, r) for r in path.resources()]
                occ.commit_route(path, ids, 0)
                held.update(path.resources())
            capacity = router.resource_capacities(layout)
            assert (_usage(occ, 0), occ.full(0)) == _booked(fabric, capacity, held)
        assert len(ring_repairs) > batches  # restarts included


def _booked(fabric: Fabric, capacity, held: Counter) -> tuple[list[int], int]:
    """The usage list and full mask of a cycle that holds the resources
    counted in ``held``, as ``RoutePath.resources`` tuples: the validator's
    view of the cycle, with ``capacity`` from ``resource_capacities``, put
    on ``fabric``'s ids."""
    usage, full = [0] * fabric.size, 0
    for res, k in held.items():
        n = res_id(fabric, res)
        usage[n] = k
        if k == capacity(res):
            full |= 1 << n
    return usage, full


def _usage(occ: CycleOccupancy, cycle: int) -> list[int]:
    """The use of each resource id of ``occ`` at ``cycle``: the double-defect
    usage list, and on lattice surgery, whose tiles hold one route and which
    keeps no such list, the bits of the full mask."""
    fabric = occ.fabric
    if fabric.model is LS:
        return [occ.full(cycle) >> i & 1 for i in range(fabric.size)]
    return occ._usage.get(cycle, [0] * fabric.size)


@pytest.fixture
def ring_repairs(monkeypatch):
    """Records what each ``_ring_repair`` call returns: one per batch, plus
    one per restart."""
    calls = []
    repair = router._ring_repair

    def counted(*args, **kwargs):
        routed = repair(*args, **kwargs)
        calls.append(routed)
        return routed

    monkeypatch.setattr(router, "_ring_repair", counted)
    return calls


class TestRouteBatchGuaranteed:
    def test_single_gate_shortest(self):
        layout = uniform_dd_layout(4, 4)
        [path] = route_batch_guaranteed(layout, [((0, 0), (0, 1))])
        assert len(path.nodes) == 2

    def test_adversarial_nested_pairs(self):
        # one pair's tiles inside the bounding box of another; oracle-verified feasible
        layout = uniform_dd_layout(3, 3)
        pairs = [((0, 0), (2, 2)), ((1, 1), (1, 2)), ((0, 2), (2, 0))]
        assert routing_feasible(layout, pairs, budget=OracleBudget())
        paths = route_batch_guaranteed(layout, pairs)
        usage = {}
        for p in paths:
            for res in p.resources():
                usage[res] = usage.get(res, 0) + 1
        assert all(v <= 1 for v in usage.values())

    def test_four_gates_bandwidth_three(self, rng):
        layout = uniform_dd_layout(4, 4, bandwidth=3)
        tiles = [(r, c) for r in range(4) for c in range(4)]
        for _ in range(50):
            rng.shuffle(tiles)
            pairs = [(tiles[2 * i], tiles[2 * i + 1]) for i in range(4)]
            assert len(route_batch_guaranteed(layout, pairs)) == 4

    def test_capacity_precondition_enforced(self):
        layout = uniform_dd_layout(3, 3)
        pairs = [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2)), ((2, 0), (2, 1))]
        with pytest.raises(SchedulingError):
            route_batch_guaranteed(layout, pairs)  # 4 > capacity(1) = 3

    def test_overlapping_tiles_rejected(self):
        layout = uniform_dd_layout(3, 3)
        with pytest.raises(SchedulingError):
            route_batch_guaranteed(layout, [((0, 0), (0, 1)), ((0, 0), (1, 1))])

    def test_lattice_surgery_batch(self):
        layout = uniform_ls_layout(3, 3, gap=1)
        tracks_r, tracks_c = layout.row_tracks, layout.col_tracks
        data = frozenset((tracks_r[i], tracks_c[j]) for i in range(3) for j in range(3))
        pairs = [
            ((tracks_r[0], tracks_c[0]), (tracks_r[2], tracks_c[2])),
            ((tracks_r[0], tracks_c[2]), (tracks_r[2], tracks_c[0])),
            ((tracks_r[1], tracks_c[1]), (tracks_r[0], tracks_c[1])),
        ]
        paths = route_batch_guaranteed(layout, pairs, data)
        seen = set()
        for p in paths:
            for node in p.nodes:
                assert node not in data
                assert node not in seen
                seen.add(node)

    def test_ring_repair_over_commit_is_internal_error(self, monkeypatch):
        # ring repair checks each resource's use against its capacity as it
        # commits: a search handing back the previous gate's route again
        # puts that route's first tile over its one lane
        layout = uniform_ls_layout(3, 3, gap=1)
        tracks_r, tracks_c = layout.row_tracks, layout.col_tracks
        data = frozenset((tracks_r[i], tracks_c[j]) for i in range(3) for j in range(3))
        pairs = [((tracks_r[0], tracks_c[0]), (tracks_r[2], tracks_c[2])),
                 ((tracks_r[0], tracks_c[2]), (tracks_r[2], tracks_c[0]))]
        fabric = Fabric(layout, data)
        first = router._bfs_route(fabric, 0, *pairs[0])
        route = first[0]
        assert route.nodes
        monkeypatch.setattr(router, "_bfs_route", lambda *args, **kwargs: first)
        with pytest.raises(AssertionError,
                           match=re.escape(f"lane over-commit on {route.resources()[0]}")):
            router._ring_repair(fabric, pairs, [0, 1])

    def test_random_restart_tier(self, ring_repairs):
        # ring repair fails on this batch in every batch order; only the
        # seeded restarts, which shuffle the neighbour order too, route it
        layout = uniform_dd_layout(3, 3, 1)
        pairs = [((2, 1), (0, 2)), ((0, 1), (2, 2)), ((1, 2), (1, 1))]
        fabric = Fabric(layout)
        for order in itertools.permutations(range(len(pairs))):
            assert router._ring_repair(fabric, pairs, list(order)) is None
        ring_repairs.clear()
        paths = route_batch_guaranteed(layout, pairs)
        assert len(ring_repairs) > 1
        cap = router.resource_capacities(layout)
        usage = {}
        for (a, b), p in zip(pairs, paths):
            assert p.nodes[0] in tile_corners(a) and p.nodes[-1] in tile_corners(b)
            for res in p.resources():
                usage[res] = usage.get(res, 0) + 1
        assert all(u <= cap(res) for res, u in usage.items())

    def test_lattice_surgery_batch_sweep(self, ring_repairs):
        # capacity-sized batches among the data tiles of 3x3 to 8x8 arrays
        # with channels one and two tiles wide; a few need a restart
        batches = 0
        for layout, data, pairs in _ls_sweep_batches():
            batches += 1
            paths = route_batch_guaranteed(layout, pairs, data)
            seen = set()
            for (a, b), p in zip(pairs, paths):
                if p.nodes:
                    assert router._adjacent(a, p.nodes[0]) and router._adjacent(p.nodes[-1], b)
                else:
                    assert router._adjacent(a, b)
                for node in p.nodes:
                    assert node not in seen and node not in data
                    seen.add(node)
        assert len(ring_repairs) > batches


def _ls_sweep_batches():
    """``(layout, data tiles, pairs)`` of 1000 capacity-sized lattice-surgery
    batches among the data tiles of 3x3 to 8x8 arrays, with channels one and
    two tiles wide."""
    rng = random.Random(20261018)
    for _ in range(1000):
        layout = uniform_ls_layout(rng.randint(3, 8), rng.randint(3, 8), gap=rng.choice((1, 2)))
        data = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
        tiles = rng.sample(data, 2 * layout.capacity)
        yield layout, frozenset(data), list(zip(tiles[::2], tiles[1::2]))


class TestTheoremTwoSmoke:
    """Small-scale version of the acceptance property; the full 1000-trial
    suites live in the acceptance module."""

    @pytest.mark.parametrize("bandwidth", [1, 3, 5])
    def test_random_batches_route(self, bandwidth, rng):
        k = chip_capacity(bandwidth)
        done = 0
        while done < 60:
            g = rng.randint(3, 8)
            if g * g < 2 * k:
                continue
            layout = uniform_dd_layout(g, g, bandwidth=bandwidth)
            tiles = [(r, c) for r in range(g) for c in range(g)]
            rng.shuffle(tiles)
            pairs = [(tiles[2 * i], tiles[2 * i + 1]) for i in range(k)]
            paths = route_batch_guaranteed(layout, pairs)
            usage = {}
            caps = {}
            from surfc.router import resource_capacities
            cap = resource_capacities(layout)
            for p in paths:
                for res in p.resources():
                    usage[res] = usage.get(res, 0) + 1
                    assert usage[res] <= cap(res)
            done += 1


def _full_mask(fabric: Fabric, usage: list[int]) -> int:
    """The bitmask of the resources of capacity above 0 that ``usage``
    fills."""
    return sum(1 << i for i, (u, c) in enumerate(zip(usage, fabric.cap)) if c > 0 and u >= c)


def _reference_route(fabric: Fabric, usage: list[int], src, dst):
    """The route search of ``find_path`` and ring repair on ``rooted_bfs``
    with ``usage`` walls: ``(route, region)``, where on a miss with a free
    start ``region`` is the bitmask of every node that ``rooted_bfs`` reaches
    from the free goals that are no start, else 0."""
    model = fabric.model
    if model is LS and router._adjacent(src, dst):
        return RoutePath(model, ()), 0
    cap = fabric.cap
    goals = fabric.terminals(dst)
    starts = [n for n in fabric.terminals(src) if usage[n] < cap[n]]
    if model is LS:
        for n in starts:
            if n in goals:
                return fabric.route((n,)), 0
    parent, end = rooted_bfs(fabric, starts, usage, goals)
    if end is not None:
        return fabric.route(trace_back(parent, end)), 0
    swept = [n for n in goals if usage[n] < cap[n] and n not in starts] if starts else []
    return None, sum(1 << n for n in rooted_bfs(fabric, swept, usage)[0])


def _same_as_reference(fabric: Fabric, usage: list[int], src, dst):
    """Asserts that ``router._bfs_route`` on the walls of ``usage`` returns
    the reference route and region, with the ids of the route's resources;
    returns the reference."""
    full = _full_mask(fabric, usage)
    route, ids, region = router._bfs_route(fabric, full, src, dst)
    reference = _reference_route(fabric, usage, src, dst)
    assert (route, region) == reference
    assert ids == (None if route is None else [res_id(fabric, r) for r in route.resources()])
    return reference


def _same_levels_as_bfs(fabric: Fabric, usage: list[int], starts, goals):
    """Asserts that ``_level_route`` on the masks of free ``starts`` and of
    ``goals`` disjoint from them returns the path of ``rooted_bfs`` from
    ``starts`` in ascending order, and the segments on that path; and on a
    miss None, None and the region ``rooted_bfs`` reaches from the free
    goals."""
    full = _full_mask(fabric, usage)
    path, segments, region = router._level_route(fabric, full, router._mask(starts), router._mask(goals))
    parent, end = rooted_bfs(fabric, sorted(starts), usage, goals)
    if end is None:
        swept = rooted_bfs(fabric, [n for n in sorted(goals) if usage[n] < fabric.cap[n]], usage)[0]
        assert (path, segments, region) == (None, None, sum(1 << n for n in swept))
        return None
    assert region == 0
    assert path == list(trace_back(parent, end))
    if fabric.model is LS:  # routes hold tiles only
        assert segments is None
    else:
        assert segments == [next(s for m, s in fabric.adj[n] if m == nxt)
                            for n, nxt in zip(path, path[1:])]
    return path


def _shuffled(fabric: Fabric, rng: random.Random) -> Fabric:
    """``fabric`` with each node's neighbour order shuffled, as the batch
    router's restarts shuffle it."""
    out = copy.copy(fabric)
    out.adj = [tuple(rng.sample(nbrs, len(nbrs))) for nbrs in fabric.adj]
    return out


class TestLevelSearch:
    """The level-set search returns the route ``rooted_bfs`` returns, and on
    a miss the region it reached, on every query."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_route_as_bfs(self, seed):
        # both models, bandwidth 1-3, arrays up to 6x6, randomly saturated
        # resources, half the time a wall with one gap for long detours, and
        # a third of the time shuffled neighbour orders
        rng = random.Random(seed)
        model, bandwidth = rng.choice((DD, LS)), rng.randint(1, 3)
        rows, cols = rng.choice([(r, c) for r in range(1, 7) for c in range(1, 7) if r * c >= 2])
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        if model is DD:
            layout = uniform_dd_layout(rows, cols, bandwidth=bandwidth)
            tiles = cells
        else:
            layout = uniform_ls_layout(rows, cols, gap=bandwidth)
            tiles = [(layout.row_tracks[r], layout.col_tracks[c])
                     for r, c in rng.sample(cells, rng.randint(2, len(cells)))]
        fabric = Fabric(layout, frozenset(tiles) if model is LS else frozenset())
        if rng.random() < 1 / 3:
            fabric = _shuffled(fabric, rng)
        usage = [0] * fabric.size
        density = rng.choice((0.0, 0.1, 0.25, 0.4))
        for res in range(fabric.size):
            if rng.random() < density:
                usage[res] = fabric.cap[res]
        width = fabric.cols
        height = len(fabric.tiles) // width
        if rng.random() < 0.5 and min(height, width) >= 3:
            if rng.random() < 0.5:  # a full grid row but one node
                k, gap = rng.randrange(1, height - 1), rng.choice((0, width - 1, rng.randrange(width)))
                wall = [k * width + j for j in range(width) if j != gap]
            else:  # a full grid column but one node
                k, gap = rng.randrange(1, width - 1), rng.choice((0, height - 1, rng.randrange(height)))
                wall = [i * width + k for i in range(height) if i != gap]
            for n in wall:
                usage[n] = fabric.cap[n]
        pairs = [tuple(rng.sample(tiles, 2)) for _ in range(8)]
        if model is DD:  # tiles that share a corner: a start is also a goal
            r, c = rng.choice(tiles)
            near = [(r + dr, c + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                    if (dr, dc) != (0, 0) and (r + dr, c + dc) in tiles]
            pairs.append(((r, c), rng.choice(near)))
        else:  # a fabric tile next to a data tile: an empty route
            r, c = rng.choice(tiles)
            pairs.append(((r, c), (r, c + 1)))
        for src, dst in pairs:
            _same_as_reference(fabric, usage, src, dst)
        # node-level queries: starts in random order, goals disjoint from them
        free = [n for n in range(len(fabric.tiles))
                if usage[n] < fabric.cap[n] and fabric.tiles[n] not in fabric.data]
        for _ in range(4):
            picked = rng.sample(free, min(len(free), rng.randint(0, 6)))
            split = rng.randint(0, len(picked))
            _same_levels_as_bfs(fabric, usage, picked[:split], picked[split:])

    def test_detour_around_a_wall(self):
        # a saturated junction column between the tiles leaves one gap, one
        # row below the direct route
        fabric = Fabric(uniform_dd_layout(2, 4))
        usage = [0] * fabric.size
        for i in (0, 1):
            usage[res_id(fabric, ("j", i, 2))] = 1
        path, _ = _same_as_reference(fabric, usage, (0, 0), (0, 3))
        assert path.nodes == ((1, 1), (2, 1), (2, 2), (2, 3), (1, 3))

    def test_true_miss_returns_the_reachable_region(self):
        # a saturated junction row walls the goal's free corners, on the
        # bottom row, off from the top three rows
        fabric = Fabric(uniform_dd_layout(4, 4))
        usage = [0] * fabric.size
        for j in range(5):
            usage[res_id(fabric, ("j", 3, j))] = 1
        path, region = _same_as_reference(fabric, usage, (0, 0), (3, 3))
        assert path is None
        assert [fabric.tiles[n] for n in _bits(region)] == [(4, j) for j in range(5)]

    def test_only_ring_repair_floods(self, monkeypatch):
        # a saturated junction row walls the source off from the goal's free
        # corners: ``find_path`` misses with the region its sweep reached,
        # and only ring repair's ring floods, from the starts, once
        flooded = []
        real = router.flood
        monkeypatch.setattr(router, "flood", lambda *args: flooded.append(args) or real(*args))
        occ = CycleOccupancy(uniform_dd_layout(4, 4))
        wall = RoutePath(DD, tuple((3, j) for j in range(5)))
        occ.commit_route(wall, resource_ids(occ.fabric, wall), 0)
        assert find_path(occ, 0, (0, 0), (3, 3)) is None and not flooded
        assert [occ.fabric.tiles[n] for n in _bits(occ.walled[0, 1])] == [(4, j) for j in range(5)]
        ring = router._saturated_frontier(occ.fabric, occ.full(0), (0, 0))
        assert len(flooded) == 1 and ring == sum(1 << res_id(occ.fabric, ("j", 3, j)) for j in range(5))

    def test_forward_walk_skips_a_full_edge(self):
        # (0, 2) is on a shortest route, reached from the second start, and
        # comes first in the first start's neighbour order, but the segment
        # between them is full: the route goes south first
        fabric = Fabric(uniform_dd_layout(3, 3))
        usage = [0] * fabric.size
        usage[res_id(fabric, ("h", 0, 1))] = 1
        ids = {t: n for n, t in enumerate(fabric.tiles)}
        path = _same_levels_as_bfs(fabric, usage, [ids[0, 1], ids[0, 3]], [ids[1, 2]])
        assert [fabric.tiles[n] for n in path] == [(0, 1), (1, 1), (1, 2)]

    def test_empty_starts_and_full_goals(self):
        fabric = Fabric(uniform_dd_layout(3, 3))
        usage = [0] * fabric.size
        # no start: the sweep from the goals reaches every node
        assert router._level_route(fabric, 0, 0, fabric.terminal_mask((2, 2))) == (None, None, fabric.open)
        # every corner of the goal tile full: nothing to sweep from
        for n in fabric.terminals((2, 2)):
            usage[n] = fabric.cap[n]
        assert _same_levels_as_bfs(fabric, usage, fabric.terminals((0, 0)), fabric.terminals((2, 2))) is None
        assert _same_as_reference(fabric, usage, (0, 0), (2, 2)) == (None, 0)
        # every corner of the source tile full: no start, an empty region
        usage = [0] * fabric.size
        for n in fabric.terminals((0, 0)):
            usage[n] = fabric.cap[n]
        assert _same_as_reference(fabric, usage, (0, 0), (2, 2)) == (None, 0)

    @pytest.mark.parametrize("rows, cols", [(1, 7), (7, 1), (2, 5), (5, 2)])
    def test_single_line_fabrics(self, rows, cols):
        # junction grids one or two nodes wide: a shift past the end of a
        # row must not wrap into the next one
        layout = ChipLayout(model=DD, d=2, m1=100, m2=100, array_r=rows - 1,
                            array_c=cols - 1, h_widths=(0,) * rows, v_widths=(0,) * cols)
        rng = random.Random(rows * 10 + cols)
        for _ in range(40):
            fabric = Fabric(layout)
            if rng.random() < 0.5:
                fabric = _shuffled(fabric, rng)
            usage = [fabric.cap[i] if rng.random() < 0.15 else 0 for i in range(fabric.size)]
            free = [n for n in range(len(fabric.tiles)) if usage[n] < fabric.cap[n]]
            picked = rng.sample(free, min(len(free), rng.randint(2, 4)))
            split = rng.randint(1, len(picked) - 1)
            _same_levels_as_bfs(fabric, usage, picked[:split], picked[split:])
        # the end of one row next to the start of the next
        fabric = Fabric(layout)
        idle = [0] * fabric.size
        last = rows * cols - 1
        for start, goal in ((cols - 1, cols % (rows * cols)), (0, last), (last, 0)):
            path = _same_levels_as_bfs(fabric, idle, [start], [goal])
            (r1, c1), (r2, c2) = fabric.tiles[start], fabric.tiles[goal]
            assert len(path) - 1 == abs(r1 - r2) + abs(c1 - c2)

    def test_lattice_surgery_single_tile_and_adjacent_pairs(self):
        layout = uniform_ls_layout(2, 2, gap=1)
        tr, tc = layout.row_tracks, layout.col_tracks
        data = frozenset((r, c) for r in tr for c in tc)
        fabric = Fabric(layout, data)
        idle = [0] * fabric.size
        # two data tiles one fabric tile apart: that tile is the route
        path, _ = _same_as_reference(fabric, idle, (tr[0], tc[0]), (tr[0], tc[1]))
        assert path.nodes == ((tr[0], tc[0] + 1),)
        # a data tile next to a fabric tile: an empty route
        path, _ = _same_as_reference(fabric, idle, (tr[0], tc[0]), (tr[0], tc[0] + 1))
        assert path.nodes == ()
        # the single tile taken: the route goes round it, through the row above
        usage = idle.copy()
        usage[res_id(fabric, ("t", tr[0], tc[0] + 1))] = 1
        path, _ = _same_as_reference(fabric, usage, (tr[0], tc[0]), (tr[0], tc[1]))
        assert path.nodes == ((tr[0] - 1, tc[0]), (tr[0] - 1, tc[0] + 1), (tr[0] - 1, tc[1]))


def _mask_queries(seed: int) -> Counter:
    """Queries on one random DD or LS occupancy, checked against
    ``_reference_route``: ``find_path`` over durations 1 and 3, with the ids
    it returns for the commit, and ``_bfs_route`` with its region on the
    same usage, half the time with every terminal of the source or of
    the target filled.  Operand pairs are random or one step apart, straight
    or diagonal, and a third of the fabrics have shuffled neighbour orders.
    The ids are those ``resource_ids`` derives from the route's nodes, and
    after each commit of them every cycle holds the usage and full mask
    that the validator's count of the committed routes' resources gives.
    Returns the count of each kind of query met."""
    rng = random.Random(seed)
    model = rng.choice((DD, LS))
    rows, cols = rng.choice([(r, c) for r in range(1, 6) for c in range(1, 6) if r * c >= 2])
    if model is DD:
        layout = uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 3))
        data = frozenset()
        tiles = [(r, c) for r in range(rows) for c in range(cols)]
    else:
        layout = uniform_ls_layout(rows, cols, gap=rng.randint(1, 2))
        cells = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
        data = frozenset(rng.sample(cells, rng.randint(1, len(cells))))
        tiles = [(r, c) for r in range(layout.grid_rows) for c in range(layout.grid_cols)]
    occ = CycleOccupancy(layout, data)
    capacity = router.resource_capacities(layout)
    held: dict[int, Counter] = {}  # cycle -> resources committed at it
    if rng.random() < 1 / 3:
        occ.fabric = _shuffled(occ.fabric, rng)
    fabric, cap = occ.fabric, occ.fabric.cap
    for tile in tiles:  # the lowest-bit rule rests on this order
        terminals = fabric.terminals(tile)
        assert list(terminals) == sorted(set(terminals))
        assert fabric.terminal_mask(tile) == router._mask(terminals)
    kinds = Counter()
    for _ in range(40):
        a = rng.choice(tiles)
        near = [(a[0] + dr, a[1] + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                if (dr, dc) != (0, 0) and (a[0] + dr, a[1] + dc) in tiles]
        b = rng.choice(near if rng.random() < 0.4 else [t for t in tiles if t != a])
        cycle, duration = rng.randrange(4), rng.choice((1, 3))
        usage = [max(col) for col in zip(*(_usage(occ, t) for t in range(cycle, cycle + duration)))]
        filled = rng.choice((None, None, a, b))
        if filled is not None:
            for n in fabric.terminals(filled):
                usage[n] = max(usage[n], cap[n])
        route, region = _same_as_reference(fabric, usage, a, b)
        free = fabric.open & ~_full_mask(fabric, usage)
        starts, goals = fabric.terminal_mask(a) & free, fabric.terminal_mask(b) & free
        shared = len(_bits(fabric.terminal_mask(a) & fabric.terminal_mask(b)))
        if model is LS and router._adjacent(a, b):
            kinds["ls adjacent"] += 1
        elif not starts:
            kinds["no free start"] += 1
        elif not goals:
            kinds["no free goal"] += 1
            assert not region  # no goal to sweep from
        elif model is LS and starts & goals:
            kinds[f"ls single tile, {len(_bits(starts & goals))} shared"] += 1
        elif model is DD and shared:
            kinds[f"dd {shared} shared corners"] += 1
        else:
            kinds[f"level search {'hit' if route else 'miss'}"] += 1
        if filled is not None:
            continue
        found = find_path(occ, cycle, a, b, duration)
        assert _route(found) == route
        if found is not None:
            path, ids = found
            assert ids == resource_ids(fabric, path) == [res_id(fabric, r) for r in path.resources()]
            if rng.random() < 0.7:
                occ.commit_route(path, ids, cycle, duration)
                for t in range(cycle, cycle + duration):
                    held.setdefault(t, Counter()).update(path.resources())
                for t, counts in held.items():
                    assert (_usage(occ, t), occ.full(t)) == _booked(fabric, capacity, counts)
                kinds[f"commit {duration}"] += 1
    return kinds


class TestMaskQuery:
    """The query on terminal masks returns the route and region of
    ``rooted_bfs`` from the free terminals in ``terminals`` order, through
    ``find_path`` and ``_bfs_route``; the ids ``find_path`` returns for the
    commit are those of the route's resources, and a commit holds them."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_as_reference(self, seed):
        _mask_queries(seed)

    def test_every_kind_of_query(self):
        kinds = sum((_mask_queries(seed) for seed in range(60)), Counter())
        expected = ["ls adjacent", "no free start", "no free goal", "ls single tile, 1 shared",
                    "ls single tile, 2 shared", "dd 1 shared corners", "dd 2 shared corners",
                    "level search hit", "level search miss", "commit 1", "commit 3"]
        assert set(kinds) == set(expected) and min(kinds.values()) >= 10, kinds


def _walled_queries(seed: int) -> Counter:
    """A random commit sequence on one DD or LS occupancy in the limited
    scheduler's order: cycle after cycle, queries of durations 1 and 3 at the
    current cycle, most hits committed, and each cycle released three cycles
    later.  Every ``find_path`` answer is checked against ``_reference_route``
    on the usage of its cycles.  A searched miss adds the region the
    reference reaches from the goals to the walled union under its key, and
    that union holds the reference's region of the side it answers for.
    Returns the count of hits, of misses searched, and of misses
    that the walled regions answered, by whether the goals or the starts lay
    in them."""
    rng = random.Random(seed)
    model = rng.choice((DD, LS))
    rows, cols = rng.choice([(r, c) for r in range(2, 7) for c in range(2, 7)])
    if model is DD:
        layout = uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 2))
        tiles = [(r, c) for r in range(rows) for c in range(cols)]
        occ = CycleOccupancy(layout)
    else:
        layout = uniform_ls_layout(rows, cols, gap=rng.randint(1, 2))
        tiles = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
        occ = CycleOccupancy(layout, frozenset(tiles))
    fabric, cap = occ.fabric, occ.fabric.cap
    level_route = router._level_route
    kinds = Counter()
    for cycle in range(10):
        for _ in range(rng.randint(5, 15)):
            a, b = rng.sample(tiles, 2)
            duration = rng.choice((1, 3))
            usage = [max(col) for col in zip(*(_usage(occ, t) for t in range(cycle, cycle + duration)))]
            walled = occ.walled.get((cycle, duration), 0)
            sweeps = []
            with patch.object(router, "_level_route",
                              lambda *args: sweeps.append(args) or level_route(*args)):
                found = find_path(occ, cycle, a, b, duration)
            route, region = _reference_route(fabric, usage, a, b)
            assert _route(found) == route
            if found is not None:
                kinds["hit"] += 1
                if rng.random() < 0.8:
                    occ.commit_route(*found, cycle, duration)
                continue
            goals = [n for n in fabric.terminals(b) if usage[n] < cap[n]]
            if sweeps:
                kinds["searched miss"] += 1
                assert occ.walled.get((cycle, duration), 0) == walled | region
            elif goals and any(usage[n] < cap[n] for n in fabric.terminals(a)):
                if walled >> goals[0] & 1:
                    kinds["goals walled"] += 1
                    assert region & ~walled == 0
                else:
                    kinds["starts walled"] += 1
                    assert _start_region(fabric, usage, a) & ~walled == 0
        occ.release(cycle - 3)
    return kinds


class TestWalledRegions:
    """A miss that the union of earlier misses' regions answers without a
    search is a miss of the reference search too, on both models and both
    durations, under commit sequences in the scheduler's order."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_same_as_reference(self, seed):
        _walled_queries(seed)

    def test_every_kind_of_answer(self):
        kinds = sum((_walled_queries(seed) for seed in range(40)), Counter())
        expected = ["hit", "searched miss", "goals walled", "starts walled"]
        assert set(kinds) == set(expected) and min(kinds.values()) >= 10, kinds

    def test_release_drops_the_regions_whose_span_holds_its_cycle(self):
        occ = CycleOccupancy(uniform_dd_layout(2, 2))
        occ.walled.update({(0, 1): 1, (0, 3): 2, (1, 1): 4, (2, 3): 8, (3, 1): 16})
        occ.release(2)
        assert occ.walled == {(0, 1): 1, (1, 1): 4, (3, 1): 16}


def _with_zero_lines(fabric: Fabric, rows: set[int], cols: set[int]) -> Fabric:
    """A copy of the DD ``fabric`` whose segments along the junction rows
    ``rows`` and the junction columns ``cols`` have capacity 0, as channels
    without a lane would; a junction on both loses its capacity too.  The
    masks are rebuilt from the capacities, as ``Fabric`` builds them."""
    out = copy.copy(fabric)
    n, width = fabric.nodes, fabric.cols
    cap = list(fabric.cap)
    for k in range(n):
        i, j = divmod(k, width)
        if i in rows:
            cap[n + k] = 0
        if j in cols:
            cap[2 * n + k] = 0
        if i in rows and j in cols:
            cap[k] = 0
    out.cap = cap
    out.open = router._mask(k for k in range(n) if cap[k] > 0)
    out.east = router._mask(k for k in range(n) if cap[n + k] > 0)
    out.south = router._mask(k for k in range(n) if cap[2 * n + k] > 0)
    return out


def _shared_corner_queries(seed: int) -> Counter:
    """Queries between DD tiles that share one or two corners, on random
    usage with some corners filled, some channels of capacity 0 and a third
    of the fabrics with shuffled neighbour orders, each checked against
    ``_reference_route`` (route, ids and region); no route holds a resource
    of capacity 0.  Returns the count of each kind of outcome."""
    rng = random.Random(seed)
    rows, cols = rng.choice([(r, c) for r in range(1, 5) for c in range(1, 5) if r * c >= 2])
    fabric = Fabric(uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 2)))
    kinds = Counter()
    if rng.random() < 0.5:
        zero_rows = set(rng.sample(range(rows + 1), rng.randint(1, 2)))
        zero_cols = set(rng.sample(range(cols + 1), rng.randint(0, 2)))
        fabric = _with_zero_lines(fabric, zero_rows, zero_cols)
        kinds["zero lines"] += 1
    if rng.random() < 1 / 3:
        fabric = _shuffled(fabric, rng)
    cap = fabric.cap
    tiles = [(r, c) for r in range(rows) for c in range(cols)]
    density = rng.choice((0.0, 0.2, 0.5))
    usage = [cap[i] if rng.random() < density else 0 for i in range(fabric.size)]
    for _ in range(12):
        a = rng.choice(tiles)
        near = [(a[0] + dr, a[1] + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                if (dr, dc) != (0, 0) and (a[0] + dr, a[1] + dc) in tiles]
        b = rng.choice(near)
        case = usage.copy()
        if rng.random() < 0.3:  # fill the shared corners
            for n in set(fabric.terminals(a)) & set(fabric.terminals(b)):
                case[n] = cap[n]
        route, _ = _same_as_reference(fabric, case, a, b)
        if route is not None:
            ids = resource_ids(fabric, route)
            assert all(cap[i] > 0 and case[i] < cap[i] for i in ids)
        shared = len(set(fabric.terminals(a)) & set(fabric.terminals(b)))
        hops = "miss" if route is None else "one hop" if len(route.nodes) == 2 else "longer"
        kinds[f"{shared} shared, {hops}"] += 1
    return kinds


class TestSharedCornerHop:
    """Between DD tiles that share a corner, the one-hop answer read on the
    masks, and the level search behind it, return the route, ids and
    region of ``rooted_bfs`` from the free corners in ascending order."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_same_as_reference(self, seed):
        _shared_corner_queries(seed)

    def test_every_kind_of_outcome(self):
        kinds = sum((_shared_corner_queries(seed) for seed in range(80)), Counter())
        expected = [f"{shared} shared, {hops}" for shared in (1, 2)
                    for hops in ("one hop", "longer", "miss")] + ["zero lines"]
        assert set(kinds) == set(expected) and min(kinds.values()) >= 10, kinds

    def test_zero_capacity_row_is_never_crossed(self):
        # tiles (0, 0) and (0, 1) share the junctions (0, 1) and (1, 1); with
        # no lane along junction row 0, the first start, (0, 0), has no goal
        # one hop away, and (0, 1) reaches (1, 1) down column 1
        fabric = _with_zero_lines(Fabric(uniform_dd_layout(1, 2)), {0}, set())
        route, _ = _same_as_reference(fabric, [0] * fabric.size, (0, 0), (0, 1))
        assert route.nodes == ((0, 1), (1, 1))
        # with every lane, the first start takes its first neighbour, east
        fabric = Fabric(uniform_dd_layout(1, 2))
        route, _ = _same_as_reference(fabric, [0] * fabric.size, (0, 0), (0, 1))
        assert route.nodes == ((0, 0), (0, 1))


def _remainder_queries(seed: int) -> Counter:
    """Queries between DD tiles that share a corner, in both orders, on
    random usage that most of the time also fills every segment, or the
    node past it, from a corner of one tile to a corner of the other; a
    quarter of the fabrics have channels of capacity 0 and half have
    shuffled neighbour orders.  Each query with a free shared corner and no
    one-hop route, the remainder that the level search answers, is checked
    against ``_reference_route`` (route, ids and region).  Returns the count
    of hits and misses of diagonal and of edge-adjacent pairs."""
    rng = random.Random(seed)
    rows, cols = rng.choice([(r, c) for r in range(1, 6) for c in range(1, 6) if r * c >= 2])
    fabric = Fabric(uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 2)))
    if rng.random() < 0.25:
        fabric = _with_zero_lines(fabric, set(rng.sample(range(rows + 1), 1)),
                                  set(rng.sample(range(cols + 1), rng.randint(0, 1))))
    if rng.random() < 0.5:
        fabric = _shuffled(fabric, rng)
    cap = fabric.cap
    tiles = [(r, c) for r in range(rows) for c in range(cols)]
    density = rng.choice((0.0, 0.1, 0.25, 0.4))
    kinds = Counter()
    for _ in range(12):
        a = rng.choice(tiles)
        near = [(a[0] + dr, a[1] + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                if (dr, dc) != (0, 0) and (a[0] + dr, a[1] + dc) in tiles]
        b = rng.choice(near)
        usage = [cap[i] if rng.random() < density else 0 for i in range(fabric.size)]
        shared = set(fabric.terminals(a)) & set(fabric.terminals(b))
        if rng.random() < 0.8:  # wall every one-hop route
            for n in fabric.terminals(a):
                for nxt, seg in fabric.adj[n]:
                    if nxt in fabric.terminals(b):
                        wall = nxt if nxt not in shared and rng.random() < 0.3 else seg
                        usage[wall] = cap[wall]
        for src, dst in ((a, b), (b, a)):
            free = fabric.open & ~_full_mask(fabric, usage)
            route, _ = _same_as_reference(fabric, usage, src, dst)
            if not fabric.terminal_mask(src) & fabric.terminal_mask(dst) & free:
                continue  # no free shared corner: a plain level search
            if route is not None and len(route.nodes) == 2:
                continue  # the one-hop answer
            pair = "diagonal" if len(shared) == 1 else "edge"
            kinds[f"{pair} {'miss' if route is None else 'hit'}"] += 1
    return kinds


class TestSharedCornerRemainder:
    """Between DD tiles that share a free corner but have no one-hop route,
    the level search with the starts dropped from the goals returns the
    route, ids and region of ``rooted_bfs``, whose shared corners are never
    an end."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_as_reference(self, seed):
        _remainder_queries(seed)

    def test_hits_and_misses_of_both_classes(self):
        kinds = sum((_remainder_queries(seed) for seed in range(80)), Counter())
        expected = [f"{pair} {hit}" for pair in ("diagonal", "edge") for hit in ("hit", "miss")]
        assert set(kinds) == set(expected) and min(kinds.values()) >= 10, kinds


def _zero_lane_queries(seed: int) -> Counter:
    """Queries between DD tiles that share no corner, on fabrics with some
    channels of capacity 0, shuffled neighbour orders and random usage, each
    checked against ``_reference_route`` (route, ids and region); no route
    holds a resource of capacity 0.  Returns the count of hits and misses."""
    rng = random.Random(seed)
    rows, cols = rng.choice([(r, c) for r in range(1, 7) for c in range(1, 7) if r * c >= 2])
    fabric = Fabric(uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 2)))
    zero_rows = set(rng.sample(range(rows + 1), rng.randint(1, 2)))
    zero_cols = set(rng.sample(range(cols + 1), rng.randint(0, 2)))
    fabric = _shuffled(_with_zero_lines(fabric, zero_rows, zero_cols), rng)
    cap = fabric.cap
    density = rng.choice((0.0, 0.1, 0.25))
    usage = [cap[i] if rng.random() < density else 0 for i in range(fabric.size)]
    tiles = [(r, c) for r in range(rows) for c in range(cols)]
    kinds = Counter()
    for _ in range(30):
        a, b = rng.sample(tiles, 2)
        if abs(a[0] - b[0]) <= 1 and abs(a[1] - b[1]) <= 1:
            continue  # a shared corner: ``_shared_corner_queries``
        route, _ = _same_as_reference(fabric, usage, a, b)
        if route is not None:
            assert all(cap[i] > 0 for i in resource_ids(fabric, route))
        kinds["hit" if route else "miss"] += 1
    return kinds


class TestZeroLaneWalk:
    """Between DD tiles that share no corner, the level search's walk never
    crosses a segment of capacity 0, whatever the neighbour order."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_as_reference(self, seed):
        _zero_lane_queries(seed)

    def test_every_kind_of_outcome(self):
        kinds = sum((_zero_lane_queries(seed) for seed in range(40)), Counter())
        assert set(kinds) == {"hit", "miss"} and min(kinds.values()) >= 10, kinds

    def test_lane_less_column_is_never_crossed(self):
        # junction (1, 2) lies on a shortest route from (1, 1) and tries its
        # south neighbour (2, 2), also on one, before its east one; with no
        # lane along junction column 2 the walk goes east
        fabric = _with_zero_lines(Fabric(uniform_dd_layout(3, 4)), set(), {2})
        node = 1 * fabric.cols + 2
        fabric.adj = list(fabric.adj)
        north, east, south, west = fabric.adj[node]
        fabric.adj[node] = (north, south, east, west)
        route, _ = _same_as_reference(fabric, [0] * fabric.size, (0, 0), (2, 3))
        assert route.nodes == ((1, 1), (1, 2), (1, 3), (2, 3))


def _node_walk_frontier(fabric: Fabric, usage: list[int], src, region: int) -> set[int]:
    """The ring as a walk over the node ids of ``region`` finds it: the ids
    at capacity at the terminals of ``src``, of the segments that leave the
    region and, past a segment below capacity, of the nodes beyond it.  It
    also holds ids of capacity 0, which no route holds."""
    cap = fabric.cap
    ring = {n for n in fabric.terminals(src) if usage[n] >= cap[n]}
    for node in _bits(region):
        for nxt, seg in fabric.adj[node]:
            if usage[seg] >= cap[seg]:
                ring.add(seg)
            elif usage[nxt] >= cap[nxt]:
                ring.add(nxt)
    return ring


def _start_region(fabric: Fabric, usage: list[int], src) -> int:
    """The bitmask of the nodes ``rooted_bfs`` reaches from the free
    terminals of ``src``: the region a failed queue search explores."""
    starts = [n for n in fabric.terminals(src) if usage[n] < fabric.cap[n]]
    return sum(1 << n for n in rooted_bfs(fabric, starts, usage)[0])


class TestSaturatedFrontier:
    """The ring read from the mask of the region flooded from the starts
    holds the ids of capacity above 0 that the node walk over the reference
    region finds, so ring repair rips up the same paths."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_ring_as_node_walk(self, seed):
        rng = random.Random(seed)
        model = rng.choice((DD, LS))
        rows, cols = rng.choice([(r, c) for r in range(1, 7) for c in range(1, 7) if r * c >= 2])
        if model is DD:
            layout = uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 3))
            fabric, tiles = Fabric(layout), [(r, c) for r in range(rows) for c in range(cols)]
        else:
            layout = uniform_ls_layout(rows, cols, gap=rng.randint(1, 2))
            tiles = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
            fabric = Fabric(layout, frozenset(tiles))
        if rng.random() < 1 / 3:
            fabric = _shuffled(fabric, rng)
        # full resources are ones a route can hold: no lattice-surgery data tile
        density = rng.choice((0.1, 0.25, 0.4, 0.6))
        usage = [fabric.cap[i] if rng.random() < density and (i >= fabric.nodes or fabric.open >> i & 1)
                 else 0 for i in range(fabric.size)]
        full = _full_mask(fabric, usage)
        for _ in range(8):
            a, b = rng.sample(tiles, 2)
            if router._bfs_route(fabric, full, a, b)[0] is None:
                ring = router._saturated_frontier(fabric, full, a)
                walk = _node_walk_frontier(fabric, usage, a, _start_region(fabric, usage, a))
                assert _bits(ring) == sorted(i for i in walk if fabric.cap[i] > 0)


class TestFullMasks:
    """The bitmasks of full resources that commits, releases and ring repair
    keep match their usage lists."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_static_masks(self, seed):
        # ``open``: the nodes of capacity above 0 that are no data tile;
        # ``east`` and ``south``: the nodes whose edge that way exists and
        # has capacity above 0
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            layout = uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 3))
            fabric = Fabric(layout)
        else:
            layout = uniform_ls_layout(rows, cols, gap=rng.randint(1, 2))
            cells = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
            fabric = Fabric(layout, frozenset(rng.sample(cells, rng.randint(0, len(cells)))))
        cap, n, width = fabric.cap, fabric.nodes, fabric.cols
        ls = fabric.model is LS
        assert fabric.size == len(cap) == (n if ls else 3 * n)
        for i in range(n):  # node-aligned segment ids; lattice surgery names the tile entered
            for nxt, seg in fabric.adj[i]:
                lo, horizontal = min(i, nxt), abs(i - nxt) == 1
                assert seg == (nxt if ls else lo + (n if horizontal else 2 * n))
        if not ls:  # a slot with no segment has capacity 0
            assert [cap[n + i] > 0 for i in range(n)] == [i % width < width - 1 for i in range(n)]
            assert [cap[2 * n + i] > 0 for i in range(n)] == [i < n - width for i in range(n)]

        def bits(ids):
            return sum(1 << i for i in ids)

        assert fabric.open == bits(i for i in range(n) if cap[i] > 0 and fabric.tiles[i] not in fabric.data)
        assert fabric.east == bits(i for i in range(n) if i % width < width - 1 and (ls or cap[n + i] > 0))
        assert fabric.south == bits(i for i in range(n - width) if ls or cap[2 * n + i] > 0)

    @pytest.mark.parametrize("model", [DD, LS])
    def test_occupancy_commits_and_releases(self, model):
        rng = random.Random(7 if model is DD else 8)
        for _ in range(20):
            rows, cols = rng.randint(2, 5), rng.randint(2, 5)
            if model is DD:
                layout = uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 3))
                tiles = [(r, c) for r in range(rows) for c in range(cols)]
                occ = CycleOccupancy(layout)
            else:
                layout = uniform_ls_layout(rows, cols, gap=rng.randint(1, 2))
                tiles = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
                occ = CycleOccupancy(layout, frozenset(tiles))
            fabric = occ.fabric
            for _ in range(40):
                a, b = rng.sample(tiles, 2)
                cycle, duration = rng.randrange(8), rng.choice((1, 3))
                found = find_path(occ, cycle, a, b, duration)
                if found is not None:
                    occ.commit_route(*found, cycle, duration)
                if rng.random() < 0.1:
                    t = rng.randrange(8)
                    occ.release(t)
                    assert occ.full(t) == 0 and _usage(occ, t) == [0] * fabric.size
            for t in range(12):
                assert occ.full(t) == _full_mask(fabric, _usage(occ, t))

    def test_find_path_three_cycles(self):
        # the route of the combined usage of three cycles, as the search
        # built it before: each resource at its greatest use
        rng = random.Random(3)
        for model in (DD, LS):
            for _ in range(15):
                rows, cols = rng.randint(2, 5), rng.randint(2, 5)
                if model is DD:
                    layout = uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 2))
                    tiles = [(r, c) for r in range(rows) for c in range(cols)]
                    occ = CycleOccupancy(layout)
                else:
                    layout = uniform_ls_layout(rows, cols, gap=rng.randint(1, 2))
                    tiles = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
                    occ = CycleOccupancy(layout, frozenset(tiles))
                for _ in range(30):
                    a, b = rng.sample(tiles, 2)
                    cycle = rng.randrange(5)
                    usage = [max(col) for col in zip(*(_usage(occ, t) for t in range(cycle, cycle + 3)))]
                    found = find_path(occ, cycle, a, b, duration=3)
                    assert _route(found) == _reference_route(occ.fabric, usage, a, b)[0]
                    if found is not None and rng.random() < 0.7:
                        occ.commit_route(*found, cycle, rng.choice((1, 3)))

    def test_ring_repair_rip_ups(self, monkeypatch):
        # every search of ring repair, rip-ups included, sees the mask of
        # the resources its held paths use: checked at each ring, where the
        # held paths show, and at every search after it in the same repair
        ring_repair, search, frontier = router._ring_repair, router._bfs_route, router._saturated_frontier
        kept, last_full, checked, ripped = [], [], [], []

        def repair(*args):
            kept.clear()
            return ring_repair(*args)

        def use(fabric, paths):
            # the use of each resource: a count of the held paths' ids
            usage = [0] * fabric.size
            for _, ids in paths.values():
                for i in ids:
                    usage[i] += 1
            return usage

        def searched(fabric, full, src, dst):
            if kept:
                assert full == _full_mask(fabric, use(fabric, kept[0]))
                checked.append(1)
            last_full[:] = [full]
            return search(fabric, full, src, dst)

        def ring(fabric, full, src):
            # the held paths are ring repair's own
            paths = sys._getframe(1).f_locals["paths"]
            usage = use(fabric, paths)
            assert last_full[0] == full == _full_mask(fabric, usage)
            kept[:] = [paths]
            ring = frontier(fabric, full, src)
            # the paths on the ring, as the node walk over the reference
            # region's nodes and ids derived from each route's nodes find them
            walk = _node_walk_frontier(fabric, usage, src, _start_region(fabric, usage, src))
            by_walk = sorted(k for k, (q, _) in paths.items()
                             if any(r in walk for r in resource_ids(fabric, q)))
            assert by_walk == sorted(k for k, (_, ids) in paths.items() if router._mask(ids) & ring)
            ripped.append(len(by_walk))
            return ring

        monkeypatch.setattr(router, "_ring_repair", repair)
        monkeypatch.setattr(router, "_bfs_route", searched)
        monkeypatch.setattr(router, "_saturated_frontier", ring)
        for k, (layout, data, pairs) in enumerate(_ls_sweep_batches()):
            if k == 300:
                break
            route_batch_guaranteed(layout, pairs, data)
        for bandwidth in (1, 3):
            rng = random.Random(bandwidth)
            for _ in range(100):
                g = rng.randint(3, 6)
                tiles = [(r, c) for r in range(g) for c in range(g)]
                rng.shuffle(tiles)
                pairs = [(tiles[2 * i], tiles[2 * i + 1]) for i in range(chip_capacity(bandwidth))]
                route_batch_guaranteed(uniform_dd_layout(g, g, bandwidth=bandwidth), pairs)
        assert len(checked) > 100 and sum(map(bool, ripped)) > 50


def _count_commit(counts: dict[int, Counter], fabric: Fabric, ids: list[int], cycles) -> str | None:
    """A commit of the lattice-surgery tiles ``ids`` at each of ``cycles``,
    booked as a count of each tile's use against its capacity of 1, in cycle
    then route order: the message of the first tile over capacity (the
    cycle's bookings stop there), or None after booking every tile."""
    for t in cycles:
        held = counts.setdefault(t, Counter())
        for i in ids:
            held[i] += 1
            if held[i] > 1:
                where = "" if t is None else f" at cycle {t}"
                return f"lane over-commit on {('t', *fabric.tiles[i])}{where}"
    return None


def _counted_mask(held: Counter) -> int:
    """The bitmask of the tiles that ``held`` counts as used."""
    return sum(1 << i for i, k in held.items() if k)


def _tile_mask_checks(seed: int) -> Counter:
    """Two lattice-surgery ledgers on random layouts against a count of
    each tile's use.  ``CycleOccupancy``: routes ``find_path`` finds and
    random tile lists, some on held tiles or with a tile twice, committed
    over durations 1 and 3 among releases; after each commit every cycle's
    full mask is the counts', and an over-commit raises the counts' message
    and ends the sequence, its bookings half made.  Ring repair: eight
    capacity-sized batches; at every search the full mask is the count of
    the held paths' tiles, rip-ups included, and in the last batch, half the
    time, one search hands back its route with a held tile put in, whose
    commit raises the counts' message.  Returns the count of each kind of
    event."""
    rng = random.Random(seed)
    layout = uniform_ls_layout(rng.randint(2, 5), rng.randint(2, 5), gap=rng.randint(1, 2))
    cells = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
    data = frozenset(rng.sample(cells, rng.randint(2, len(cells))))
    occ = CycleOccupancy(layout, data)
    fabric = occ.fabric
    free = _bits(fabric.open)
    kinds = Counter()
    counts: dict[int, Counter] = {}
    for _ in range(30):
        cycle, duration = rng.randrange(4), rng.choice((1, 1, 3))
        if rng.random() < 0.6:
            found = find_path(occ, cycle, *rng.sample(sorted(data), 2), duration)
            if found is None:
                continue
            path, ids = found
        else:
            ids = [rng.choice(free) for _ in range(rng.randint(0, 4))]
            path = fabric.route(ids)
        expected = _count_commit(counts, fabric, ids, range(cycle, cycle + duration))
        if expected is not None:
            with pytest.raises(AssertionError) as error:
                occ.commit_route(path, ids, cycle, duration)
            assert str(error.value) == expected
            kinds["occupancy over-commit"] += 1
            break
        occ.commit_route(path, ids, cycle, duration)
        kinds["occupancy commit"] += 1
        if rng.random() < 0.2:
            t = rng.randrange(4)
            occ.release(t)
            counts.pop(t, None)
            kinds["release"] += 1
        for t in range(6):
            held = counts.get(t, Counter())
            assert occ.full(t) == _counted_mask(held)

    # ring repair: capacity-sized batches among every data tile of a 4x4 to
    # 7x7 array with one-tile channels, where rip-ups are common enough
    layout = uniform_ls_layout(rng.randint(4, 7), rng.randint(4, 7), gap=1)
    data = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
    fabric = Fabric(layout, frozenset(data))
    repairs, inject, expected, search = [0], [False], [], router._bfs_route

    def searched(fabric, full, src, dst):
        state = sys._getframe(1).f_locals  # ring repair's held routes and rip-up count
        held = Counter(i for _, ids in state["paths"].values() for i in ids)
        assert full == _counted_mask(held)
        if state["repairs"] > repairs[0]:
            kinds["rip-up"] += 1
        repairs[0] = state["repairs"]
        kinds["batch search"] += 1
        route, ids, region = search(fabric, full, src, dst)
        if route is None or not full or not inject[0]:
            return route, ids, region
        inject[0] = False
        k = rng.randrange(len(ids) + 1)
        ids = ids[:k] + [rng.choice(_bits(full))] + ids[k:]
        expected.append(_count_commit({None: held}, fabric, ids, (None,)))
        return fabric.route(ids), ids, region

    with patch.object(router, "_bfs_route", searched):
        for batch in range(8):
            inject[0] = batch == 7 and rng.random() < 0.5  # the last batch, half the time
            tiles = rng.sample(data, 2 * layout.capacity)
            try:
                route_batch_guaranteed(layout, list(zip(tiles[::2], tiles[1::2])), fabric.data, fabric=fabric)
            except AssertionError as error:
                assert [str(error)] == expected
                kinds["ring over-commit"] += 1
            else:
                assert not expected
    return kinds


class TestTileMasks:
    """Lattice-surgery tiles hold one route each, so both ledgers keep only
    full masks: every commit, rip-up and over-commit message is that of a
    count of each tile's use."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_same_as_tile_counts(self, seed):
        _tile_mask_checks(seed)

    def test_every_kind_of_event(self):
        kinds = sum((_tile_mask_checks(seed) for seed in range(40)), Counter())
        expected = ["occupancy commit", "occupancy over-commit", "release", "batch search",
                    "rip-up", "ring over-commit"]
        assert set(kinds) == set(expected) and min(kinds.values()) >= 10, kinds


def render_cycle(layout: ChipLayout, paths: list[RoutePath], labels: list[str] | None = None) -> str:
    """ASCII sketch of one cycle's routes, for failure triage."""
    if layout.model is ChipModel.LATTICE_SURGERY:
        rows, cols = layout.grid_rows, layout.grid_cols
        grid = [["." for _ in range(cols)] for _ in range(rows)]
        for k, p in enumerate(paths):
            mark = labels[k] if labels else chr(ord("a") + k % 26)
            for r, c in p.nodes:
                grid[r][c] = mark
        return "\n".join(" ".join(row) for row in grid)
    rows, cols = layout.array_r + 1, layout.array_c + 1
    canvas = [[" " for _ in range(2 * cols - 1)] for _ in range(2 * rows - 1)]
    for i in range(rows):
        for j in range(cols):
            canvas[2 * i][2 * j] = "+"
    for k, p in enumerate(paths):
        mark = labels[k] if labels else chr(ord("a") + k % 26)
        for (i1, j1), (i2, j2) in zip(p.nodes, p.nodes[1:]):
            canvas[i1 + i2][j1 + j2] = mark
    return "\n".join("".join(row) for row in canvas)


class TestRender:
    def test_ascii_dd(self):
        layout = uniform_dd_layout(2, 2)
        [path] = route_batch_guaranteed(layout, [((0, 0), (1, 1))])
        art = render_cycle(layout, [path])
        assert "+" in art and "a" in art

    def test_ascii_ls(self):
        layout = uniform_ls_layout(2, 2)
        art = render_cycle(layout, [RoutePath(LS, ((0, 1), (1, 1)))])
        assert "a" in art


GOLDEN_ROUTE_DIGEST = "f00ef824c97ad40dde8dfeadbfffab9b70a197ebf2eafb7d7bfa87717ac3fc08"


def _query_stream(digest) -> tuple[int, int]:
    """Seeded ``find_path`` queries with scheduler-style commits: both models,
    bandwidth 1 and 2, durations 1 and 3, snake-mapped operand tiles (the
    lattice-surgery data tiles).  A found route is committed, with its
    operand tiles, when both tiles are free for its whole duration.
    Returns (routes committed, queries that found no route)."""
    rng = random.Random(20261018)
    committed = blocked = 0
    for model in (DD, LS):
        for bandwidth in (1, 2):
            for _ in range(20):
                rows, cols = rng.randint(2, 5), rng.randint(2, 5)
                if model is DD:
                    layout = uniform_dd_layout(rows, cols, bandwidth=bandwidth)
                else:
                    layout = uniform_ls_layout(rows, cols, gap=bandwidth)
                n = rng.randint(2, rows * cols)
                mapping = baseline_mapping("snake", n, ArrayShape(rows, cols))
                data = mapping.data_tiles(layout)
                tiles = [mapping.abs_tile(layout, q) for q in range(n)]
                occ = CycleOccupancy(layout, data)
                busy: dict[int, set] = {}  # cycle -> operand tiles held at it
                for _ in range(60):
                    a, b = rng.sample(tiles, 2)
                    cycle, duration = rng.randrange(6), rng.choice((1, 3))
                    found = find_path(occ, cycle, a, b, duration)
                    path = _route(found)
                    digest.update(repr((a, b, cycle, duration,
                                        path and path.nodes)).encode())
                    blocked += path is None
                    span = range(cycle, cycle + duration)
                    if path is None or any(x in busy.get(t, ()) for t in span for x in (a, b)):
                        continue
                    committed += 1
                    occ.commit_route(*found, cycle, duration)
                    for t in span:
                        busy.setdefault(t, set()).update((a, b))
    return committed, blocked


def _batch_stream(digest) -> None:
    """1500 criterion-3-style batches: capacity-sized random pairs on
    uniform double-defect layouts of bandwidth 1, 3 and 5."""
    for bandwidth in (1, 3, 5):
        k = chip_capacity(bandwidth)
        rng = random.Random(4321 + bandwidth)
        done = 0
        while done < 500:
            g = rng.randint(3, 8)
            if g * g < 2 * k:
                continue
            layout = uniform_dd_layout(g, g, bandwidth=bandwidth)
            tiles = [(r, c) for r in range(g) for c in range(g)]
            rng.shuffle(tiles)
            pairs = [(tiles[2 * i], tiles[2 * i + 1]) for i in range(k)]
            paths = route_batch_guaranteed(layout, pairs)
            digest.update(repr([p.nodes for p in paths]).encode())
            done += 1


GOLDEN_LS_BATCH_DIGEST = "e54e85f6c4b34396b758caf9eda9f645efd4ba18f07240622d47a05b6e9c7c81"


def _ls_batch_stream(digest) -> None:
    """The batches of ``_ls_sweep_batches``, then 200 capacity-sized batches
    on the lattice-surgery ``sufficient`` chip for n=49 at parallelism 4 and
    d=3: a 7x7 data array in a 31x31 fabric, capacity 4."""
    for layout, data, pairs in _ls_sweep_batches():
        digest.update(repr([p.nodes for p in route_batch_guaranteed(layout, pairs, data)]).encode())
    model = LS
    m1, m2 = config_dims("sufficient", 49, 3, model, pm=4)
    layout = derive_layout(ChipSpec(model, m1, m2, 3), 49)
    assert (layout.grid_rows, layout.grid_cols, layout.capacity) == (31, 31, 4)
    data = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
    fabric = Fabric(layout, frozenset(data))
    rng = random.Random(49)
    for _ in range(200):
        tiles = rng.sample(data, 2 * layout.capacity)
        pairs = list(zip(tiles[::2], tiles[1::2]))
        paths = route_batch_guaranteed(layout, pairs, fabric.data, fabric=fabric)
        digest.update(repr([p.nodes for p in paths]).encode())


class TestGoldenRoutes:
    """Every route the searches return, pinned: a change to the route
    representation or search must leave this digest unchanged."""

    def test_route_digest(self):
        digest = hashlib.sha256()
        committed, blocked = _query_stream(digest)
        assert committed > 600 and blocked > 600
        _batch_stream(digest)
        assert digest.hexdigest() == GOLDEN_ROUTE_DIGEST

    def test_lattice_surgery_batch_digest(self):
        digest = hashlib.sha256()
        _ls_batch_stream(digest)
        assert digest.hexdigest() == GOLDEN_LS_BATCH_DIGEST
