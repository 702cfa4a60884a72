import hashlib
import itertools
import random
import re
from collections import Counter, deque
from dataclasses import replace

import pytest
from conftest import uniform_dd_layout, uniform_ls_layout
from hypothesis import given, settings
from hypothesis import strategies as st

from surfc import router
from surfc.chip import ChipModel, chip_capacity
from surfc.errors import SchedulingError
from surfc.oracle import OracleBudget, routing_feasible
from surfc.placement import ArrayShape, baseline_mapping
from surfc.router import (
    CycleOccupancy,
    Fabric,
    RoutePath,
    bfs,
    find_path,
    render_cycle,
    route_batch_guaranteed,
    tile_corners,
    trace_back,
)

DD = ChipModel.DOUBLE_DEFECT
LS = ChipModel.LATTICE_SURGERY


class TestFindPath:
    def test_adjacent_tiles_single_segment(self):
        layout = uniform_dd_layout(3, 3)
        occ = CycleOccupancy(layout)
        path = find_path(occ, 0, (0, 0), (0, 1))
        assert path is not None and path.length == 1

    def test_saturated_corridor_blocks(self):
        # adjacent tiles on a strip admit two seam routes; once both are
        # taken every corner junction is at capacity and routing fails
        layout = uniform_dd_layout(1, 2)  # 2x3 junction grid, bandwidth 1
        occ = CycleOccupancy(layout)
        for _ in range(2):
            path = find_path(occ, 0, (0, 0), (0, 1))
            assert path is not None
            occ.commit_route(path, 0, 1)
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
                path = find_path(occ, 0, tiles[2 * k], tiles[2 * k + 1])
                if path is None:
                    break
                occ.commit_route(path, 0, 1)
                paths.append(path)
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
            path = find_path(occ, 0, src, dst)
            assert path.length == all_paths(src, dst)


class TestCommit:
    def test_duration_three_frees_later(self):
        layout = uniform_dd_layout(2, 2)
        occ = CycleOccupancy(layout)
        path = find_path(occ, 0, (0, 0), (1, 1))
        occ.commit_route(path, 0, 3)
        # the route holds its lanes through cycle 2, so that cycle detours
        # around it; cycle 3 gets the original route back
        assert find_path(occ, 2, (0, 0), (1, 1)).nodes == ((1, 0), (2, 0), (2, 1))
        assert find_path(occ, 3, (0, 0), (1, 1)).nodes == path.nodes == ((0, 1), (1, 1))
        # the same lane is busy at cycle 2 and free at cycle 3
        res = path.resources()[1]
        assert occ.used(2, res) == 1
        assert occ.used(3, res) == 0

    def test_two_lanes_then_segment_blocked(self):
        layout = uniform_dd_layout(1, 2, bandwidth=2)
        occ = CycleOccupancy(layout)
        seam = RoutePath(DD, ((0, 0), (0, 1)))
        occ.commit_route(seam, 0, 1)
        occ.commit_route(seam, 0, 1)
        # the segment itself is now at its two-lane capacity
        with pytest.raises(AssertionError):
            occ.commit_route(seam, 0, 1)
        # routing between the tiles still succeeds through other channels
        assert find_path(occ, 0, (0, 0), (0, 1)) is not None

    def test_double_commit_is_internal_error(self):
        layout = uniform_dd_layout(1, 2)
        occ = CycleOccupancy(layout)
        path = find_path(occ, 0, (0, 0), (0, 1))
        occ.commit_route(path, 0, 1)
        with pytest.raises(AssertionError):
            occ.commit_route(path, 0, 1)


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
        path = find_path(occ, 0, *rng.sample(tiles, 2))
        if path is not None:
            paths.append(path)
            occ.commit_route(path, 0)
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
    """``Fabric.resource_ids`` computes from the nodes the ids that
    ``res_id`` gives the tuple resources of ``RoutePath.resources``."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_same_as_tuple_resources(self, seed):
        fabric, paths = _random_paths(seed)
        for path in paths:
            assert fabric.resource_ids(path) == [fabric.res_id(r) for r in path.resources()]

    def test_one_hop_and_empty_routes(self):
        fabric = Fabric(uniform_dd_layout(1, 2))
        for nodes in (((0, 1), (1, 1)), ((1, 1), (0, 1)), ((0, 2), (0, 1))):
            path = RoutePath(DD, nodes)
            assert fabric.resource_ids(path) == [fabric.res_id(r) for r in path.resources()]
            assert len(fabric.resource_ids(path)) == 3
        assert Fabric(uniform_ls_layout(1, 2)).resource_ids(RoutePath(LS, ())) == []

    def test_over_commit_names_the_resource_and_cycle(self):
        occ = CycleOccupancy(uniform_dd_layout(1, 2))
        path = RoutePath(DD, ((0, 0), (0, 1)))
        occ.commit_route(path, 6)
        with pytest.raises(AssertionError,
                           match=re.escape("lane over-commit on ('j', 0, 0) at cycle 6")):
            occ.commit_route(path, 5, 3)
        # horizontal lines at one lane, vertical ones at two: a horizontal
        # seam's junctions take two routes, its segment one
        occ = CycleOccupancy(replace(uniform_dd_layout(1, 2, bandwidth=2), h_widths=(0, 0)))
        occ.commit_route(path, 0)
        with pytest.raises(AssertionError,
                           match=re.escape("lane over-commit on ('h', 0, 0) at cycle 0")):
            occ.commit_route(path, 0)


@pytest.fixture
def ring_repairs(monkeypatch):
    """Records each ``_ring_repair`` call: one per batch, plus one per restart."""
    calls = []
    repair = router._ring_repair

    def counted(*args, **kwargs):
        calls.append(1)
        return repair(*args, **kwargs)

    monkeypatch.setattr(router, "_ring_repair", counted)
    return calls


class TestRouteBatchGuaranteed:
    def test_single_gate_shortest(self):
        layout = uniform_dd_layout(4, 4)
        [path] = route_batch_guaranteed(layout, [((0, 0), (0, 1))])
        assert path.length == 1

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
        rng = random.Random(20261018)
        batches = 1000
        for _ in range(batches):
            layout = uniform_ls_layout(rng.randint(3, 8), rng.randint(3, 8), gap=rng.choice((1, 2)))
            data = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
            tiles = rng.sample(data, 2 * layout.capacity)
            pairs = list(zip(tiles[::2], tiles[1::2]))
            paths = route_batch_guaranteed(layout, pairs, frozenset(data))
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


def _both_searches(fabric: Fabric, usage: list[int], src, dst):
    """Unbounded and bounded ``bfs`` between two tiles, with the starts and
    goals of a route search; asserts that they agree and returns the
    unbounded ``(parent, end)``.  On a miss both return the whole region."""
    cap = fabric.cap
    starts = [n for n in fabric.terminals(src) if usage[n] < cap[n]]
    goals = fabric.terminals(dst)
    parent, end = bfs(fabric, starts, usage, goals)
    bounded, bounded_end = bfs(fabric, starts, usage, goals, fabric.hop_bounds(dst))
    assert bounded_end == end
    if end is None:
        assert list(bounded.items()) == list(parent.items())
    else:
        assert trace_back(bounded, end) == trace_back(parent, end)
    return parent, end


def _first_bound(fabric: Fabric, src, dst) -> int:
    lower = fabric.hop_bounds(dst)
    return max(1, min(lower[n] for n in fabric.terminals(src)))


class TestBoundedSearch:
    """The contour-bounded search of the batch router returns the same end
    and route as the unbounded search on every query."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_route_as_unbounded(self, seed):
        # both models, bandwidth 1-3, arrays up to 6x6, randomly saturated
        # resources, and half the time a wall with one gap for long detours
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
        usage = [0] * fabric.size
        density = rng.choice((0.0, 0.1, 0.25, 0.4))
        for res in range(fabric.size - 1):
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
        for src, dst in pairs:
            _both_searches(fabric, usage, src, dst)

    def test_detour_needs_a_second_contour(self):
        # a saturated junction column between the tiles leaves one gap, one
        # row below the direct route; the detour is longer than the first bound
        layout = uniform_dd_layout(2, 4)
        fabric = Fabric(layout)
        usage = [0] * fabric.size
        for i in (0, 1):
            usage[fabric.res_id(("j", i, 2))] = 1
        parent, end = _both_searches(fabric, usage, (0, 0), (0, 3))
        path = trace_back(parent, end)
        assert fabric.route(path).nodes == ((1, 1), (2, 1), (2, 2), (2, 3), (1, 3))
        assert len(path) - 1 > _first_bound(fabric, (0, 0), (0, 3)) == 2

    def test_true_miss_returns_the_reachable_region(self):
        # a saturated junction row walls the top three rows off from the
        # goal; the bounded search grows its contour until nothing is cut
        layout = uniform_dd_layout(4, 4)
        fabric = Fabric(layout)
        usage = [0] * fabric.size
        for j in range(5):
            usage[fabric.res_id(("j", 3, j))] = 1
        parent, end = _both_searches(fabric, usage, (0, 0), (3, 3))
        assert end is None
        assert sorted(fabric.tiles[n] for n in parent) == [(i, j) for i in range(3) for j in range(5)]
        assert max(fabric.hop_bounds((3, 3))[n] for n in parent) > _first_bound(fabric, (0, 0), (3, 3))


def _rooted_bfs(fabric: Fabric, starts, usage=None, goals=()):
    """Reference unbounded search: every node keeps the start it was
    reached from, and a goal is an end only when met from another start."""
    adj, cap = fabric.adj, fabric.cap
    if usage is None:
        usage = [-(1 << 30)] * fabric.size
    parent = dict.fromkeys(starts)
    root = {n: n for n in starts}
    queue = deque(starts)
    while queue:
        node = queue.popleft()
        origin = root[node]
        for nxt, seg in adj[node]:
            if usage[seg] >= cap[seg] or usage[nxt] >= cap[nxt]:
                continue
            if nxt in goals and origin != nxt:
                return parent, (nxt, node)
            if nxt in parent:
                continue
            parent[nxt] = node
            root[nxt] = origin
            queue.append(nxt)
    return parent, None


def _unbounded_queries(seed: int) -> Counter:
    """Random unbounded ``bfs`` queries on one DD or LS fabric, each checked
    against ``_rooted_bfs``: the same end and the same ``parent`` in the same
    order.  Returns the count of (hit, a start is a goal) outcomes."""
    rng = random.Random(seed)
    model = rng.choice((DD, LS))
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    if model is DD:
        fabric = Fabric(uniform_dd_layout(rows, cols, bandwidth=rng.randint(1, 3)))
    else:
        layout = uniform_ls_layout(rows, cols, gap=rng.randint(1, 2))
        cells = [(layout.row_tracks[r], layout.col_tracks[c])
                 for r in range(rows) for c in range(cols)]
        fabric = Fabric(layout, frozenset(rng.sample(cells, rng.randint(0, len(cells)))))
    usage = None
    if rng.random() < 0.7:
        density = rng.choice((0.1, 0.3, 0.6))
        usage = [rng.randint(0, cap) if rng.random() < density else 0 for cap in fabric.cap]
    nodes = range(len(fabric.tiles))
    outcomes = Counter()
    for _ in range(6):
        starts = rng.sample(nodes, rng.randint(0, min(4, len(nodes))))
        goals = tuple(rng.sample(nodes, rng.randint(0, min(4, len(nodes)))))
        if starts and rng.random() < 0.3:
            goals += (rng.choice(starts),)
        parent, end = bfs(fabric, starts, usage, goals)
        ref_parent, ref_end = _rooted_bfs(fabric, starts, usage, goals)
        assert end == ref_end
        assert list(parent.items()) == list(ref_parent.items())
        outcomes[end is not None, not set(starts).isdisjoint(goals)] += 1
    assert fabric.unlimited == [-(1 << 30)] * fabric.size
    return outcomes


class TestUnboundedSearch:
    """The search without root bookkeeping, used whenever no start is a
    goal, returns what the rooted search does."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_as_rooted_search(self, seed):
        _unbounded_queries(seed)

    def test_queries_hit_and_miss(self):
        outcomes = sum((_unbounded_queries(seed) for seed in range(100)), Counter())
        assert min(outcomes[hit, shared] for hit in (False, True) for shared in (False, True)) >= 10


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
                for _ in range(60):
                    a, b = rng.sample(tiles, 2)
                    cycle, duration = rng.randrange(6), rng.choice((1, 3))
                    path = find_path(occ, cycle, a, b, duration)
                    digest.update(repr((a, b, cycle, duration,
                                        path and path.nodes)).encode())
                    blocked += path is None
                    span = range(cycle, cycle + duration)
                    if path is None or any(occ.tile_busy(t, x) for t in span for x in (a, b)):
                        continue
                    committed += 1
                    occ.commit_route(path, cycle, duration)
                    occ.commit_tile(a, cycle, duration)
                    occ.commit_tile(b, cycle, duration)
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


class TestGoldenRoutes:
    """Every route the searches return, pinned: a change to the route
    representation or search must leave this digest unchanged."""

    def test_route_digest(self):
        digest = hashlib.sha256()
        committed, blocked = _query_stream(digest)
        assert committed > 600 and blocked > 600
        _batch_stream(digest)
        assert digest.hexdigest() == GOLDEN_ROUTE_DIGEST
