"""Route search on the communication fabric, for both chip models.

Double defect routes live on the corridor graph: nodes are channel junctions
(the corners of the ``r x c`` data array, one junction grid line per channel),
edges are corridor segments.  A segment's lane capacity is its channel's
bandwidth; a junction admits as many paths as the widest channel through it.
Lattice-surgery routes are chains of free ancilla tiles, vertex-disjoint per
cycle; adjacent operand tiles merge directly with an empty route.

``bfs`` is the one breadth-first search over either graph.  Route search,
the saturated ring behind a failed search, the uncapacitated routes of
bandwidth adjusting, and the lattice-surgery hop distances and fabric
components of mapping all call it; ``trace_back`` turns its result into a
path.

``route_batch_guaranteed`` realizes the capacity guarantee: any
``chip_capacity(b)`` independent gates are simultaneously routable.  It routes
greedy shortest paths in batch order, ripping up the paths on any "ring" (a
saturated separator found by a residual reachability check) that walls a
gate off, then falls back to negotiated-congestion rerouting, then to seeded
randomized restarts.  Failure with the precondition satisfied is a bug, not
an expected outcome, and raises.
"""
from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass

from .chip import ChipLayout, ChipModel
from .errors import SchedulingError

Tile = tuple[int, int]
Resource = tuple  # ('h', i, j) | ('v', i, j) | ('j', i, j) | ('t', r, c)

_STEPS = ((-1, 0), (0, 1), (1, 0), (0, -1))  # N, E, S, W


@dataclass(frozen=True)
class RoutePath:
    """A committed route: junction sequence (double defect, >= 2 junctions) or
    free-tile chain (lattice surgery, possibly empty for adjacent merges)."""

    model: ChipModel
    nodes: tuple[Tile, ...]

    def resources(self) -> list[Resource]:
        if self.model is ChipModel.LATTICE_SURGERY:
            return [("t", r, c) for r, c in self.nodes]
        out: list[Resource] = [("j", i, j) for i, j in self.nodes]
        for (i1, j1), (i2, j2) in zip(self.nodes, self.nodes[1:]):
            if i1 == i2:
                out.append(("h", i1, min(j1, j2)))
            else:
                out.append(("v", min(i1, i2), j1))
        return out

    @property
    def length(self) -> int:
        if self.model is ChipModel.LATTICE_SURGERY:
            return len(self.nodes)
        return max(0, len(self.nodes) - 1)


class CycleOccupancy:
    """Per-cycle reservation ledger: fabric resource use counts plus busy tiles.
    Tiles are array coordinates for double defect, absolute tile coordinates
    for lattice surgery."""

    def __init__(self, layout: ChipLayout):
        self.layout = layout
        self._used: dict[int, dict[Resource, int]] = {}
        self._busy: dict[int, set[Tile]] = {}

    def used(self, cycle: int, res: Resource) -> int:
        return self._used.get(cycle, {}).get(res, 0)

    def usage_map(self, cycle: int) -> dict[Resource, int]:
        return self._used.get(cycle, {})

    def tile_busy(self, cycle: int, tile: Tile) -> bool:
        return tile in self._busy.get(cycle, set())

    def busy_tiles(self, cycle: int) -> set[Tile]:
        return self._busy.get(cycle, set())

    def commit_route(self, path: RoutePath, cycle: int, duration: int = 1) -> None:
        caps = resource_capacities(self.layout)
        for t in range(cycle, cycle + duration):
            usage = self._used.setdefault(t, {})
            for res in path.resources():
                usage[res] = usage.get(res, 0) + 1
                assert usage[res] <= caps(res), f"lane over-commit on {res} at cycle {t}"

    def commit_tile(self, tile: Tile, cycle: int, duration: int = 1) -> None:
        for t in range(cycle, cycle + duration):
            busy = self._busy.setdefault(t, set())
            assert tile not in busy, f"tile {tile} double-booked at cycle {t}"
            busy.add(tile)


def resource_capacities(layout: ChipLayout):
    bw_h, bw_v = layout.bw_h, layout.bw_v

    def cap(res: Resource) -> int:
        kind = res[0]
        if kind == "h":
            return bw_h[res[1]]
        if kind == "v":
            return bw_v[res[2]]
        if kind == "j":
            return max(bw_h[res[1]], bw_v[res[2]])
        return 1  # lattice-surgery ancilla tile

    return cap


def tile_corners(tile: Tile) -> tuple[Tile, ...]:
    r, c = tile
    return ((r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1))


class _CorridorGraph:
    """Junction grid of (r+1) x (c+1) nodes over the data array."""

    model = ChipModel.DOUBLE_DEFECT

    def __init__(self, layout: ChipLayout):
        self.rows = layout.array_r + 1
        self.cols = layout.array_c + 1

    def neighbors(self, node: Tile):
        i, j = node
        for di, dj in _STEPS:
            ni, nj = i + di, j + dj
            if 0 <= ni < self.rows and 0 <= nj < self.cols:
                if di == 0:
                    seg: Resource = ("h", i, min(j, nj))
                else:
                    seg = ("v", min(i, ni), j)
                yield (ni, nj), seg

    @staticmethod
    def node_res(node: Tile) -> Resource:
        return ("j", node[0], node[1])

    @staticmethod
    def terminals(tile: Tile) -> tuple[Tile, ...]:
        return tile_corners(tile)


class _AncillaGraph:
    """Free-tile adjacency for lattice surgery; data tiles are obstacles."""

    model = ChipModel.LATTICE_SURGERY

    def __init__(self, layout: ChipLayout, data_tiles: frozenset[Tile]):
        self.rows = layout.grid_rows
        self.cols = layout.grid_cols
        self.data = data_tiles

    def neighbors(self, node: Tile):
        r, c = node
        for dr, dc in _STEPS:
            nr, nc = r + dr, c + dc
            if 0 <= nr < self.rows and 0 <= nc < self.cols and (nr, nc) not in self.data:
                yield (nr, nc), None

    @staticmethod
    def node_res(node: Tile) -> Resource:
        return ("t", node[0], node[1])

    def terminals(self, tile: Tile) -> tuple[Tile, ...]:
        return tuple(n for n, _ in self.neighbors(tile))


def _graph_for(layout: ChipLayout, data_tiles: frozenset[Tile] | None):
    if layout.model is ChipModel.DOUBLE_DEFECT:
        return _CorridorGraph(layout)
    return _AncillaGraph(layout, data_tiles or frozenset())


def bfs(graph, starts, cap=None, usage=None, goals=()):
    """Breadth-first search from ``starts``, expanding neighbors N, E, S, W.

    Returns ``(parent, end)``: ``parent`` maps each reached node to its
    predecessor (None for a start), in visit order; ``end`` is
    ``(goal, predecessor)`` for the first node of ``goals`` reached by at
    least one hop from a start other than itself, else None.  With ``cap``,
    a segment or node whose ``usage`` has reached its capacity is a wall."""
    parent: dict[Tile, Tile | None] = dict.fromkeys(starts)
    root: dict[Tile, Tile] = {n: n for n in starts}
    queue = deque(starts)
    while queue:
        node = queue.popleft()
        for nxt, seg in graph.neighbors(node):
            if cap is not None:
                if seg is not None and usage.get(seg, 0) >= cap(seg):
                    continue
                nres = graph.node_res(nxt)
                if usage.get(nres, 0) >= cap(nres):
                    continue
            if nxt in goals and root[node] != nxt:
                return parent, (nxt, node)
            if nxt in parent:
                continue
            parent[nxt] = node
            root[nxt] = root[node]
            queue.append(nxt)
    return parent, None


def trace_back(parent: dict[Tile, Tile | None], end: tuple[Tile, Tile]) -> tuple[Tile, ...]:
    """The node path from a start to ``end``'s goal."""
    goal, back = end
    path = [goal]
    while back is not None:
        path.append(back)
        back = parent[back]
    return tuple(reversed(path))


def _bfs_route(graph, cap, usage: dict[Resource, int], src: Tile, dst: Tile) -> RoutePath | None:
    """Deterministic shortest route with free lanes everywhere.  Sources are the
    free terminals of ``src`` in fixed order.  A goal that happens to be a
    source is still only accepted after >= 1 hop, so a route always occupies
    fabric."""
    model = graph.model
    if model is ChipModel.LATTICE_SURGERY and _adjacent(src, dst):
        return RoutePath(model, ())
    goals = set(graph.terminals(dst))
    starts = [n for n in sorted(graph.terminals(src))
              if usage.get(graph.node_res(n), 0) < cap(graph.node_res(n))]
    if model is ChipModel.LATTICE_SURGERY:
        # a single free tile adjacent to both operands is a complete chain
        for n in starts:
            if n in goals:
                return RoutePath(model, (n,))
    parent, end = bfs(graph, starts, cap, usage, goals)
    return None if end is None else RoutePath(model, trace_back(parent, end))


def _adjacent(a: Tile, b: Tile) -> bool:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def _saturated_frontier(graph, cap, usage, src: Tile) -> set[Resource]:
    """Resources at capacity along the boundary of the region reachable from
    ``src``.  When a route search fails, these form the blocking ring of
    saturated channels separating the pair."""

    def full(res: Resource) -> bool:
        return usage.get(res, 0) >= cap(res)

    terminals = sorted(graph.terminals(src))
    ring = {graph.node_res(n) for n in terminals if full(graph.node_res(n))}
    parent, _ = bfs(graph, [n for n in terminals if not full(graph.node_res(n))], cap, usage)
    for node in parent:
        for nxt, seg in graph.neighbors(node):
            if seg is not None and full(seg):
                ring.add(seg)
            elif full(graph.node_res(nxt)):
                ring.add(graph.node_res(nxt))
    return ring


def find_path(
    layout: ChipLayout,
    occupancy: CycleOccupancy,
    cycle: int,
    tile_a: Tile,
    tile_b: Tile,
    data_tiles: frozenset[Tile] | None = None,
    duration: int = 1,
) -> RoutePath | None:
    """Shortest route between two tiles that stays free for ``duration``
    cycles from ``cycle``; None when saturated.  Reserves nothing — callers
    commit explicitly."""
    usage = dict(occupancy.usage_map(cycle))
    for t in range(cycle + 1, cycle + duration):
        for res, u in occupancy.usage_map(t).items():
            usage[res] = max(usage.get(res, 0), u)
    if layout.model is ChipModel.LATTICE_SURGERY:
        for t in range(cycle, cycle + duration):
            for tile in occupancy.busy_tiles(t):
                usage[("t", tile[0], tile[1])] = 1
    return _bfs_route(_graph_for(layout, data_tiles), resource_capacities(layout), usage,
                      tile_a, tile_b)


def _dijkstra_route(graph, cap, usage, hist, pressure, src, dst,
                    jitter=None) -> RoutePath | None:
    """Congestion-priced shortest route; overuse is allowed but expensive.
    Goal hits are recorded while relaxing edges so that routes between abutting
    tiles (whose corner sets overlap) are not missed."""
    model = graph.model
    if model is ChipModel.LATTICE_SURGERY and _adjacent(src, dst):
        return RoutePath(model, ())

    def price(res: Resource) -> float:
        over = max(0, usage.get(res, 0) + 1 - cap(res))
        p = (1.0 + hist.get(res, 0.0)) * (1.0 + pressure * over)
        if jitter is not None:
            p *= 1.0 + jitter(res)
        return p

    goals = set(graph.terminals(dst))
    if model is ChipModel.LATTICE_SURGERY:
        shared = sorted(set(graph.terminals(src)) & goals)
        if shared:
            best_tile = min(shared, key=lambda n: price(graph.node_res(n)))
            return RoutePath(model, (best_tile,))
    dist: dict[Tile, float] = {}
    parent: dict[Tile, Tile | None] = {}
    root: dict[Tile, Tile] = {}
    best_cost = float("inf")
    best_end: tuple[Tile, Tile] | None = None  # (goal, predecessor)
    heap: list[tuple[float, int, Tile, Tile | None, Tile]] = []
    counter = 0
    for n in sorted(graph.terminals(src)):
        heapq.heappush(heap, (price(graph.node_res(n)), counter, n, None, n))
        counter += 1
    while heap:
        if heap[0][0] >= best_cost:
            break
        cost, _, node, par, rt = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = cost
        parent[node] = par
        root[node] = rt
        for nxt, seg in graph.neighbors(node):
            step = price(graph.node_res(nxt)) + (price(seg) if seg is not None else 0.0)
            total = cost + step
            if nxt in goals and rt != nxt and total < best_cost:
                best_cost = total
                best_end = (nxt, node)
            if nxt in dist:
                continue
            heapq.heappush(heap, (total, counter, nxt, node, rt))
            counter += 1
    if best_end is None:
        return None
    return RoutePath(model, trace_back(parent, best_end))


def route_batch_guaranteed(
    layout: ChipLayout,
    tile_pairs: list[tuple[Tile, Tile]],
    data_tiles: frozenset[Tile] | None = None,
) -> list[RoutePath]:
    """Simultaneous disjoint routes for pairwise-independent gates.

    Precondition: ``len(tile_pairs) <= layout.capacity`` and all tiles distinct.
    Under the precondition this never fails; a SchedulingError here indicates a
    violated precondition (or a routing bug, which the property suite hunts).
    """
    if len(tile_pairs) > max(layout.capacity, 0):
        raise SchedulingError(
            f"batch of {len(tile_pairs)} gates exceeds chip capacity {layout.capacity}"
        )
    seen: set[Tile] = set()
    for a, b in tile_pairs:
        for t in (a, b):
            if t in seen:
                raise SchedulingError("batch gates must be qubit/tile disjoint")
            seen.add(t)
    if not tile_pairs:
        return []
    graph = _graph_for(layout, data_tiles)
    cap = resource_capacities(layout)

    def ring_repair() -> dict[int, RoutePath] | None:
        """Greedy routing in batch order with targeted rip-up: when a gate is
        walled off by a ring of saturated channels, evict the committed paths
        sitting on that ring and let the blocked gate route first.  With no
        rip-up this is plain greedy routing."""
        paths: dict[int, RoutePath] = {}
        usage: dict[Resource, int] = {}
        pending = list(range(len(tile_pairs)))
        repairs = 0
        while pending:
            idx = pending.pop(0)
            a, b = tile_pairs[idx]
            p = _bfs_route(graph, cap, usage, a, b)
            if p is None:
                repairs += 1
                if repairs > 4 * len(tile_pairs):
                    return None
                ring = _saturated_frontier(graph, cap, usage, a)
                ripped = sorted(
                    k for k, q in paths.items() if any(r in ring for r in q.resources())
                )
                if not ripped:
                    return None
                for k in ripped:
                    for res in paths.pop(k).resources():
                        usage[res] -= 1
                pending = [idx] + ripped + pending
                continue
            paths[idx] = p
            for res in p.resources():
                usage[res] = usage.get(res, 0) + 1
        return paths

    result = ring_repair()
    if result is not None:
        return [result[i] for i in range(len(tile_pairs))]

    def negotiate(order: list[int], iters: int, jitter=None) -> dict[int, RoutePath] | None:
        hist: dict[Resource, float] = {}
        paths: dict[int, RoutePath] = {}
        pressure = 1.0
        for _ in range(iters):
            usage: dict[Resource, int] = {}
            paths = {}
            for idx in order:
                a, b = tile_pairs[idx]
                p = _dijkstra_route(graph, cap, usage, hist, pressure, a, b, jitter)
                if p is None:
                    return None
                paths[idx] = p
                for res in p.resources():
                    usage[res] = usage.get(res, 0) + 1
            overused = {res for res, u in usage.items() if u > cap(res)}
            if not overused:
                return paths
            for res in overused:
                hist[res] = hist.get(res, 0.0) + 1.0
            pressure *= 1.7
        return None

    result = negotiate(list(range(len(tile_pairs))), iters=48)
    if result is None:
        rng = random.Random(0xC0FFEE + 31 * len(tile_pairs))
        order = list(range(len(tile_pairs)))
        for _ in range(160):
            rng.shuffle(order)
            cache: dict[Resource, float] = {}

            def jitter(res, _rng=rng, _cache=cache):
                if res not in _cache:
                    _cache[res] = _rng.random() * 0.35
                return _cache[res]

            result = negotiate(order, iters=24, jitter=jitter)
            if result is not None:
                break
        else:
            raise SchedulingError(
                "guaranteed batch routing failed; capacity precondition violated?"
            )
    return [result[i] for i in range(len(tile_pairs))]


def render_cycle(layout: ChipLayout, paths: list[RoutePath], labels: list[str] | None = None) -> str:
    """ASCII sketch of one cycle's routes, for docs and failure triage."""
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
