"""Route search on the communication fabric, for both chip models.

Double defect routes live on the corridor graph: nodes are channel junctions
(the corners of the ``r x c`` data array, one junction grid line per channel),
edges are corridor segments.  A segment's lane capacity is its channel's
bandwidth; a junction admits as many paths as the widest channel through it.
Lattice-surgery routes are chains of free ancilla tiles, vertex-disjoint per
cycle; adjacent operand tiles merge directly with an empty route.

``Fabric`` holds either graph as integers, built once per layout and set of
lattice-surgery data tiles.  Nodes are numbered row-major and a node's id is
also its resource id; double-defect segment ids follow the nodes.  Each
node's adjacency is a tuple of ``(neighbour id, segment id)`` in N, E, S, W
order, where segment id -1 (lattice surgery) names a last resource that is
never full.  Capacities and per-cycle usage are lists indexed by resource id,
so a search touches no tuple keys; tiles appear only where a caller hands
them in or gets a ``RoutePath`` back.  ``CycleOccupancy`` keeps one usage list
per cycle, and commits a route by the ids ``Fabric.resource_ids`` computes
from its nodes.  ``resource_capacities`` gives the capacity of a tuple
resource of ``RoutePath.resources`` instead; the validator replays schedules
on those, so the referee shares no code with the fabric, and so does the
oracle's route packing.

``bfs`` is the one breadth-first search over a fabric.  Route search calls
it with a cycle's usage.  Bandwidth adjusting calls it without usage
(nothing is ever full, ``Fabric.unlimited``): one full tree per control
tile, from which it reads the route to each target tile, and a per-pair
search only where the two tiles share a corner.  Lattice-surgery mapping
calls it without usage too, for the hop distances from each cell and the
components of the free fabric.  ``trace_back`` turns its result into a path,
and the region a failed route search returns gives the saturated ring
behind it.

When no start is a goal, every goal met is an end: the search returns at
the first one it discovers, and that goal's predecessor is the one it has
in the full tree from the same starts.  Only when a start is also a goal
(double-defect tiles that share a corner) does a search keep the start each
node was reached from, since a route may not end where it starts.

Given ``lower``, a per-node lower bound on the hops to the goals
(``Fabric.hop_bounds``), ``bfs`` bounds its search the way IDA* (Korf, 1985)
bounds a depth-first one.  ``lower`` is the distance to the goal tile's box
of corners (double defect) or the Manhattan distance to the goal tile minus
one (lattice surgery): it changes by at most one per hop, is zero on a goal
and positive on every other node a search reaches.  A pass enqueues a node
only when its depth plus ``lower`` is at most the bound; call that sum ``f``.
The first bound is ``b0 = max(1, min lower(start))``.  A pass that finds no
goal but cut some node repeats with the bound grown to
``max(least cut f, 2*bound - b0 + 2)``; a pass that cut nothing is a true
miss, and its ``parent`` is the whole reachable region, as unbounded.

The bounded search returns the route the unbounded one does.  Along a BFS
parent chain ``f`` never grows, so a pass keeps exactly the nodes whose BFS
depth plus ``lower`` is within the bound, and it visits them in BFS order
with their BFS parents.  As ``lower`` is positive off the goals and the bound
is at least one, a goal a pass finds lies within the bound, so no pass whose
bound is shorter than the shortest route finds one.  Once the bound reaches
that length, the node from which BFS first meets a goal is kept (its
``lower`` is at most one), and no node kept before it meets one.  So the
first goal found, and the parent chain behind it, are BFS's.  That argument
needs every goal met to be an end.
When a start is also a goal (double-defect tiles that share a corner), a
route may not end where it starts, and such a search runs unbounded.

Only the batch router searches bounded.  Its searches on the 31x31
lattice-surgery fabric of a ``sufficient`` chip are long and seldom fail:
for a route of a median 19 hops, a median 391 nodes were enqueued unbounded
and 68 bounded, and 1.3 % of searches missed (resu49, seed 1).
``find_path``, the limited schedulers' search, stays unbounded.  Its
searches are short and often fail: a hit enqueues a median of 12-64 nodes
on map49 and 37 on deep100, 23-42 % of searches miss, and a miss pays for
every contour.  Bounding it changed no route, gained nothing on map49 and
cost about 3 % on deep100.

``route_batch_guaranteed`` realizes the capacity guarantee: any
``chip_capacity(b)`` independent gates are simultaneously routable.  Ring
repair routes bounded shortest paths in batch order, ripping up the paths
on any "ring" (the saturated boundary of the region a failed search
reached) that walls a gate off.  When that fails, seeded restarts re-run it
with the batch order and each node's neighbour order shuffled: on 29 of
32,000 resu49 batches (seeds 0-9), one restart each, and on 3 of the 3,000
criterion-3 batches, 1, 1 and 4.  Failure with the precondition satisfied
is a bug, not an expected outcome, and raises.
"""
from __future__ import annotations

import copy
import random
from collections import deque
from dataclasses import dataclass

from .chip import ChipLayout, ChipModel
from .errors import SchedulingError

Tile = tuple[int, int]
Resource = tuple  # ('h', i, j) | ('v', i, j) | ('j', i, j) | ('t', r, c)

_STEPS = ((-1, 0), (0, 1), (1, 0), (0, -1))  # N, E, S, W
_NEVER_FULL = 1 << 30  # capacity of the "no segment" resource


@dataclass(frozen=True)
class RoutePath:
    """A committed route: junction sequence (double defect, >= 2 junctions) or
    free-tile chain (lattice surgery, possibly empty for adjacent merges)."""

    model: ChipModel
    nodes: tuple[Tile, ...]

    def resources(self) -> list[Resource]:
        nodes = self.nodes
        if self.model is ChipModel.LATTICE_SURGERY:
            return [("t", r, c) for r, c in nodes]
        out: list[Resource] = [("j", i, j) for i, j in nodes]
        for (i1, j1), (i2, j2) in zip(nodes, nodes[1:]):
            if i1 == i2:
                out.append(("h", i1, j1 if j1 < j2 else j2))
            else:
                out.append(("v", i1 if i1 < i2 else i2, j1))
        return out

    @property
    def length(self) -> int:
        if self.model is ChipModel.LATTICE_SURGERY:
            return len(self.nodes)
        return max(0, len(self.nodes) - 1)


class Fabric:
    """A layout's routing graph in integer form (see the module docstring):
    the corridor graph for double defect, the ancilla tile graph for lattice
    surgery.  ``data`` is the set of lattice-surgery tiles that routes avoid
    (empty for double defect)."""

    def __init__(self, layout: ChipLayout, data_tiles: frozenset[Tile] = frozenset()):
        self.model = model = layout.model
        dd = model is ChipModel.DOUBLE_DEFECT
        self.data = frozenset() if dd else data_tiles
        if dd:
            rows, cols = layout.array_r + 1, layout.array_c + 1
        else:
            rows, cols = layout.grid_rows, layout.grid_cols
        self.cols = cols
        self.tiles = [(r, c) for r in range(rows) for c in range(cols)]
        nodes = rows * cols
        self._h0, self._v0 = nodes, nodes + rows * (cols - 1)  # first h and v segment
        bw_h, bw_v = layout.bw_h, layout.bw_v
        if dd:
            cap = [max(bw_h[i], bw_v[j]) for i, j in self.tiles]
            cap += [bw_h[i] for i in range(rows) for _ in range(cols - 1)]
            cap += [bw_v[j] for _ in range(rows - 1) for j in range(cols)]
        else:
            cap = [1] * nodes
        cap.append(_NEVER_FULL)
        self.cap = cap
        self.size = len(cap)
        self.idle = [0] * self.size  # the usage of a cycle nothing has touched; never written
        # the usage of an uncapacitated search: nothing is ever full, not
        # even a 0-lane line; never written
        self.unlimited = [-_NEVER_FULL] * self.size
        adj = []
        for r, c in self.tiles:
            out = []
            for dr, dc in _STEPS:
                nr, nc = r + dr, c + dc
                if not (0 <= nr < rows and 0 <= nc < cols):
                    continue
                if dd:
                    seg = self.res_id(("h", r, min(c, nc)) if dr == 0 else ("v", min(r, nr), c))
                elif (nr, nc) in self.data:
                    continue
                else:
                    seg = -1
                out.append((nr * cols + nc, seg))
            adj.append(tuple(out))
        self.adj = adj
        self._terminals: dict[Tile, tuple[int, ...]] = {}
        self._hop_bounds: dict[Tile, list[int]] = {}

    def res_id(self, res: Resource) -> int:
        kind, i, j = res
        if kind == "h":
            return self._h0 + i * (self.cols - 1) + j
        if kind == "v":
            return self._v0 + i * self.cols + j
        return i * self.cols + j

    def resource_ids(self, path: RoutePath) -> list[int]:
        """The ids of ``path.resources()``, in that order: the node ids, then
        (double defect) the ids of the segments between them.  Computed from
        ``path.nodes`` alone."""
        cols = self.cols
        nodes = path.nodes
        ids = [r * cols + c for r, c in nodes]
        if self.model is ChipModel.DOUBLE_DEFECT:
            h0, v0, h_cols = self._h0, self._v0, cols - 1
            for (i1, j1), (i2, j2) in zip(nodes, nodes[1:]):
                if i1 == i2:
                    ids.append(h0 + i1 * h_cols + (j1 if j1 < j2 else j2))
                else:
                    ids.append(v0 + (i1 if i1 < i2 else i2) * cols + j1)
        return ids

    def terminals(self, tile: Tile) -> tuple[int, ...]:
        """Ascending ids of the nodes a route to or from ``tile`` may end
        on: its four corner junctions (double defect) or its free grid
        neighbours (lattice surgery)."""
        ids = self._terminals.get(tile)
        if ids is None:
            r, c = tile
            cols = self.cols
            if self.model is ChipModel.DOUBLE_DEFECT:
                ids = (r * cols + c, r * cols + c + 1, (r + 1) * cols + c, (r + 1) * cols + c + 1)
            else:
                ids = tuple(sorted(n for n, _ in self.adj[r * cols + c]))
            self._terminals[tile] = ids
        return ids

    def hop_bounds(self, tile: Tile) -> list[int]:
        """A lower bound, per node id, on the hops from that node to a
        terminal of ``tile``: the distance to its box of corner junctions
        (double defect) or the Manhattan distance to the tile minus one
        (lattice surgery).  It changes by at most one per hop, is zero on a
        terminal and positive on every other node a route search can reach."""
        bounds = self._hop_bounds.get(tile)
        if bounds is None:
            r, c = tile
            dd = self.model is ChipModel.DOUBLE_DEFECT
            r1, c1, less = (r + 1, c + 1, 0) if dd else (r, c, 1)
            down = [max(0, r - i, i - r1) - less for i in range(len(self.tiles) // self.cols)]
            across = [max(0, c - j, j - c1) for j in range(self.cols)]
            bounds = self._hop_bounds[tile] = [x + y for x in down for y in across]
        return bounds

    def route(self, ids) -> RoutePath:
        return RoutePath(self.model, tuple(self.tiles[n] for n in ids))


class CycleOccupancy:
    """Per-cycle reservation ledger: one usage list per cycle, indexed by the
    resource ids of ``fabric``, plus the busy tiles of each cycle.  Tiles are
    array coordinates for double defect, absolute tile coordinates for
    lattice surgery."""

    def __init__(self, layout: ChipLayout, data_tiles: frozenset[Tile] = frozenset()):
        self.fabric = Fabric(layout, data_tiles)
        self._usage: dict[int, list[int]] = {}
        self._busy: dict[int, set[Tile]] = {}

    def usage(self, cycle: int) -> list[int]:
        """Resource use at ``cycle``, indexed by resource id; read-only."""
        return self._usage.get(cycle, self.fabric.idle)

    def used(self, cycle: int, res: Resource) -> int:
        return self.usage(cycle)[self.fabric.res_id(res)]

    def tile_busy(self, cycle: int, tile: Tile) -> bool:
        return tile in self._busy.get(cycle, ())

    def busy_tiles(self, cycle: int) -> set[Tile]:
        return self._busy.get(cycle, set())

    def commit_route(self, path: RoutePath, cycle: int, duration: int = 1) -> None:
        fabric = self.fabric
        cap = fabric.cap
        ids = fabric.resource_ids(path)
        for t in range(cycle, cycle + duration):
            usage = self._usage.get(t)
            if usage is None:
                usage = self._usage[t] = [0] * fabric.size
            for i in ids:
                usage[i] += 1
                assert usage[i] <= cap[i], \
                    f"lane over-commit on {path.resources()[ids.index(i)]} at cycle {t}"

    def commit_tile(self, tile: Tile, cycle: int, duration: int = 1) -> None:
        for t in range(cycle, cycle + duration):
            busy = self._busy.setdefault(t, set())
            assert tile not in busy, f"tile {tile} double-booked at cycle {t}"
            busy.add(tile)

    def release(self, cycle: int) -> None:
        """Forget ``cycle``; the caller will neither read nor commit it again."""
        self._usage.pop(cycle, None)
        self._busy.pop(cycle, None)


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


def bfs(fabric: Fabric, starts, usage: list[int] | None = None, goals=(), lower=None):
    """Breadth-first search from the node ids ``starts``, expanding neighbours
    N, E, S, W.

    Returns ``(parent, end)``: ``parent`` maps each reached node to its
    predecessor (None for a start), in visit order; ``end`` is
    ``(goal, predecessor)`` for the first node of ``goals`` reached by at
    least one hop from a start other than itself, else None.  With ``usage``,
    a segment or node whose use has reached its capacity is a wall.

    ``lower`` (``Fabric.hop_bounds`` of the goals' tile) bounds the search in
    contours, as the module docstring explains: ``end`` and the path behind
    it stay those of the unbounded search, but on a hit ``parent`` holds only
    the nodes of the last contour.  A miss explores, and returns, the whole
    reachable region.  When a start is also a goal, ``lower`` is ignored."""
    adj, cap = fabric.adj, fabric.cap
    if usage is None:
        usage = fabric.unlimited
    # no closures below: a generator over ``goals`` or ``lower`` would turn
    # them into cell variables, slower to read in the loops
    parent: dict[int, int | None] = dict.fromkeys(starts)
    if not set(starts).isdisjoint(goals):
        # each node keeps the start it was reached from: a goal is an end
        # only when met from another start, as a route may not end where
        # it starts
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
    # no start is a goal, so every goal met is an end, no root is kept,
    # and no goal is ever in ``parent``
    if lower is None:
        queue = deque(starts)
        while queue:
            node = queue.popleft()
            for nxt, seg in adj[node]:
                if nxt in parent or usage[seg] >= cap[seg] or usage[nxt] >= cap[nxt]:
                    continue
                if nxt in goals:
                    return parent, (nxt, node)
                parent[nxt] = node
                queue.append(nxt)
        return parent, None
    b0 = bound = max(1, min(map(lower.__getitem__, starts), default=0))
    while True:
        parent = dict.fromkeys(starts)
        frontier = list(starts)
        depth = 0
        cut = _NEVER_FULL  # least depth + lower of a node this contour left out
        while frontier:
            depth += 1
            level = []
            for node in frontier:
                for nxt, seg in adj[node]:
                    if nxt in parent or usage[seg] >= cap[seg] or usage[nxt] >= cap[nxt]:
                        continue
                    if nxt in goals:
                        return parent, (nxt, node)
                    f = depth + lower[nxt]
                    if f > bound:
                        if f < cut:
                            cut = f
                        continue
                    parent[nxt] = node
                    level.append(nxt)
            frontier = level
        if cut == _NEVER_FULL:
            return parent, None
        bound = max(cut, 2 * bound - b0 + 2)


def trace_back(parent: dict[int, int | None], end: tuple[int, int]) -> tuple[int, ...]:
    """The node path from a start to ``end``'s goal."""
    goal, back = end
    path = [goal]
    while back is not None:
        path.append(back)
        back = parent[back]
    return tuple(reversed(path))


def _bfs_route(fabric: Fabric, usage: list[int], src: Tile, dst: Tile,
               bounded: bool = False) -> tuple[RoutePath | None, dict[int, int | None]]:
    """Deterministic shortest route with free lanes everywhere, and the
    search's ``parent``.  Sources are the free terminals of ``src`` in fixed
    order.  A goal that happens to be a source is still only accepted after
    >= 1 hop, so a route always occupies fabric.  ``bounded`` searches in
    contours of ``fabric.hop_bounds(dst)``, which returns the same route.  On
    a miss, ``parent`` is the whole region reachable from the sources."""
    model = fabric.model
    if model is ChipModel.LATTICE_SURGERY and _adjacent(src, dst):
        return RoutePath(model, ()), {}
    cap = fabric.cap
    goals = fabric.terminals(dst)
    starts = [n for n in fabric.terminals(src) if usage[n] < cap[n]]
    if model is ChipModel.LATTICE_SURGERY:
        # a single free tile adjacent to both operands is a complete chain
        for n in starts:
            if n in goals:
                return fabric.route((n,)), {}
    parent, end = bfs(fabric, starts, usage, goals, fabric.hop_bounds(dst) if bounded else None)
    return None if end is None else fabric.route(trace_back(parent, end)), parent


def _adjacent(a: Tile, b: Tile) -> bool:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def _saturated_frontier(fabric: Fabric, usage: list[int], src: Tile,
                        region: dict[int, int | None]) -> set[int]:
    """Resource ids at capacity along the boundary of ``region``, the nodes
    a failed route search from ``src`` reached, and at the terminals of
    ``src``.  These form the blocking ring of saturated channels separating
    the pair."""
    cap = fabric.cap
    ring = {n for n in fabric.terminals(src) if usage[n] >= cap[n]}
    for node in region:
        for nxt, seg in fabric.adj[node]:
            if usage[seg] >= cap[seg]:
                ring.add(seg)
            elif usage[nxt] >= cap[nxt]:
                ring.add(nxt)
    return ring


def find_path(
    occupancy: CycleOccupancy,
    cycle: int,
    tile_a: Tile,
    tile_b: Tile,
    duration: int = 1,
) -> RoutePath | None:
    """Shortest route between two tiles on ``occupancy``'s fabric that stays
    free for ``duration`` cycles from ``cycle``; None when saturated.
    Reserves nothing — callers commit explicitly."""
    usage = occupancy.usage(cycle)
    if duration > 1:
        usage = [max(col) for col in
                 zip(*(occupancy.usage(t) for t in range(cycle, cycle + duration)))]
    return _bfs_route(occupancy.fabric, usage, tile_a, tile_b)[0]


def _ring_repair(fabric: Fabric, tile_pairs: list[tuple[Tile, Tile]],
                 order: list[int]) -> list[RoutePath] | None:
    """Greedy routing in ``order`` with targeted rip-up: when a gate is
    walled off by a ring of saturated channels, evict the committed paths
    sitting on that ring and let the blocked gate route first.  With no
    rip-up this is plain greedy routing.  Returns the routes in batch order,
    or None when a ring holds no committed path or the rip-ups exceed four
    per gate."""
    paths: dict[int, RoutePath] = {}
    usage = [0] * fabric.size
    pending = list(order)
    repairs = 0
    while pending:
        idx = pending.pop(0)
        a, b = tile_pairs[idx]
        p, region = _bfs_route(fabric, usage, a, b, bounded=True)
        if p is None:
            repairs += 1
            if repairs > 4 * len(tile_pairs):
                return None
            ring = _saturated_frontier(fabric, usage, a, region)
            ripped = sorted(k for k, q in paths.items()
                            if any(r in ring for r in fabric.resource_ids(q)))
            if not ripped:
                return None
            for k in ripped:
                for res in fabric.resource_ids(paths.pop(k)):
                    usage[res] -= 1
            pending = [idx] + ripped + pending
            continue
        paths[idx] = p
        for res in fabric.resource_ids(p):
            usage[res] += 1
    return [paths[i] for i in range(len(tile_pairs))]


def route_batch_guaranteed(
    layout: ChipLayout,
    tile_pairs: list[tuple[Tile, Tile]],
    data_tiles: frozenset[Tile] | None = None,
    fabric: Fabric | None = None,
) -> list[RoutePath]:
    """Simultaneous disjoint routes for pairwise-independent gates: ring
    repair in batch order, then up to 160 seeded restarts of it with the
    batch order and each node's neighbour order shuffled.

    Precondition: ``len(tile_pairs) <= layout.capacity`` and all tiles distinct.
    Under the precondition this never fails; a SchedulingError here indicates a
    violated precondition (or a routing bug, which the property suite hunts).
    ``fabric``, when given, is ``Fabric(layout, data_tiles)`` built once by
    the caller for many batches.
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
    if fabric is None:
        fabric = Fabric(layout, data_tiles or frozenset())
    order = list(range(len(tile_pairs)))
    paths = _ring_repair(fabric, tile_pairs, order)
    if paths is not None:
        return paths
    rng = random.Random(0xC0FFEE + 31 * len(tile_pairs))
    for _ in range(160):
        rng.shuffle(order)
        # the copy shares the terminal and hop-bound caches: neither
        # depends on the neighbour order
        shuffled = copy.copy(fabric)
        shuffled.adj = [tuple(rng.sample(nbrs, len(nbrs))) for nbrs in fabric.adj]
        paths = _ring_repair(shuffled, tile_pairs, order)
        if paths is not None:
            return paths
    raise SchedulingError(
        "guaranteed batch routing failed; capacity precondition violated?"
    )


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
