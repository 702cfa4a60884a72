"""Route search on the communication fabric, for both chip models.

Double defect routes live on the corridor graph: nodes are channel junctions
(the corners of the ``r x c`` data array, one junction grid line per channel),
edges are corridor segments.  A segment's lane capacity is its channel's
bandwidth; a junction admits as many paths as the widest channel through it.
Lattice-surgery routes are chains of free ancilla tiles, vertex-disjoint per
cycle; adjacent operand tiles merge directly with an empty route.

``Fabric`` holds either graph as integers, built once per layout and set of
lattice-surgery data tiles.  Nodes are numbered row-major and a node's id is
also its resource id; double-defect segment ids are node-aligned after them
(``Fabric`` gives the layout).  Each node's adjacency is a tuple of
``(neighbour id, resource id)`` in N, E, S, W order: the segment crossed on
double defect, and on lattice surgery, whose routes hold tiles only, the
tile entered.  Capacities are a list indexed by resource id, so a search
touches no tuple keys; tiles appear only where a caller hands them in or
gets a ``RoutePath`` back.  ``CycleOccupancy``, the ledger of the limited
scheduler (its one user), keeps per cycle one integer whose bit ``i`` is set
while resource ``i`` is at capacity, and on double defect beside it one
usage list.  A lattice-surgery tile holds one route, so there the mask is
the whole ledger.  ``find_path`` returns a route with the ids of its
resources that the search recorded while it built the route, and a caller
commits the route by exactly those ids: nothing derives them again from the
route's nodes.  Ring repair commits and rips up by the search's ids too.  On
double defect each ledger counts use and checks that no resource goes over
its capacity.  On lattice surgery a commit asserts that the route's mask,
built from its ids, meets no held tile and holds none twice, and ORs it in;
a rip-up ANDs it out.  ``resource_capacities`` gives the capacity of a
tuple resource of ``RoutePath.resources`` instead, for the validator and the
tests' exhaustive route packing, which count use by those tuples (the
packing walks a ``Fabric`` only for its adjacency).

Route search (``find_path`` and ring repair) runs on the bitmask of full
resources, and on terminal masks: ``Fabric.terminal_mask`` caches the
terminals of each tile as a bitmask, so a query's starts are
``terminal_mask(src) & free`` and its goals ``terminal_mask(dst) & free``,
and two tiles share a free terminal when ``starts & goals`` is not 0.  Its
route is the one of the queue search: a breadth-first search with a FIFO
queue that takes the starts in ascending order, tries each node's
neighbours in ``adj`` order, and ends at the first goal it meets by at least
one hop from a start other than itself (the tests keep it as their
reference).  Where the queue search takes the first start of a list, the
search takes the lowest set bit of a mask: the same node, because
``Fabric.terminals`` is ascending on every tile of both models.  A query
with no free start misses at once, with an empty region (lattice-surgery
adjacent pairs, routed empty, come first).  ``_level_route`` searches one
whole BFS level at a time, as Lee's maze router does (Lee, 1961), with each
level held as one integer over node ids, as in bitmap-frontier BFS (Beamer,
Asanovic and Patterson, 2012).  It sweeps from the goals: level 0 is
``goals & free``, and the next level is ``N(level) & free & ~seen``, where
``N`` shifts a mask one step each way, guarded by the ``east`` and ``south``
masks so that no shift wraps from the end of a row into the next.  On
lattice surgery, where no edge has a capacity of its own, ``east`` is the
grid's row-end mask and the vertical shifts go unguarded: a node shifted off
the grid lands outside ``free``.  The sweep stops at the first level, ``L``,
that meets a start.  A lattice-surgery tile next to both operands is a start
and a goal, met at level 0: the single-tile route is the lowest bit of
``starts & goals``.
Then one walk goes forward from the lowest start met, at each step to the
first neighbour in ``adj`` order in the next level down over a free edge.
On double defect it records the segment it crosses; a segment of capacity 0
is never set in ``full``, so the walk reads the capacity too.  On lattice
surgery every edge between free tiles is free: the walk tests the level
alone and records nothing more.
``spread`` is ``N``; with it, ``grid_masks`` and ``flood``, lattice-surgery
mapping finds hop distances and stranded pairs on the free fabric's masks,
with no ``Fabric``.

This is the route the queue search returns.  Let ``F_k`` be the nodes ``k``
free hops from the nearest start (the queue search's levels), ``B_j`` those
``j`` from the nearest goal (the sweep's).  No start is nearer a goal than
``L``, so the nodes at step ``k`` of a shortest route are ``U_k = F_k &
B_L-k``.  A node of ``B_L-k-1`` next to one of ``U_k`` over a free edge is
at most ``k+1`` hops from a start, and at least ``k+1`` as no route is
shorter than ``L``: the walk's choices are the ``U_k+1`` neighbours of its
node.  No node that the queue search queues before the first node of
``U_k`` is adjacent to ``U_k+1``: not of level ``k``, whose such nodes are
all in ``U_k``, and not of an earlier level, which would have put that
neighbour in a level before ``k+1``.  So the first node of ``U_k`` discovers
every one of its ``U_k+1`` neighbours, in ``adj`` order, and they come first
in the queue order of ``U_k+1``.  The starts are queued in ascending order,
so by induction the walk visits the first node of each ``U`` in queue order,
each discovered by the one before; the last is the first goal the queue
search meets, and the walk is its parent chain, for any neighbour order (a
restart shuffles ``adj``).  A miss returns the nodes its sweep reached, a
union of components of the free fabric with no start in it.  ``find_path``
ORs these per ``(cycle, duration)`` (``CycleOccupancy.walled``) and misses
unsearched when a query's free goals all lie in the union and no free start
does, or the reverse.  That is exact: within one ``(cycle, duration)`` the
full mask only grows, so components only split, and no route leaves one.  A
shared double-defect corner is both a start and a goal: it passes neither
test.  Ring repair's ``_saturated_frontier`` floods from the starts (with no
goal met, the region the queue search reaches) and reads the ring behind it
with the same shifts: the full segments that leave it and the full nodes
beyond its free edges.

Double-defect tiles that share a corner have a start that is also a goal,
an end only when met from another start.  Nearly every such query ends one
hop from a start, and that answer is read on the masks first.  The queue
search takes its starts off the queue first, in ascending order, tries each
start's neighbours in ``adj`` order, and accepts a free goal over a free
segment; so the first start with a free goal one free segment away, and its
first such neighbour, give the route ``[start, goal]`` with the ids
``[start, goal, segment]``; the check reads the capacity, as the walk does.
With no goal one hop from a start, no shared corner is an end, so the query
drops the starts from its goals and runs the level search.  Of diagonal
tiles, the shared corner's four neighbours are corners of one tile or the
other, each a start or a goal one hop from it: all four edges are walled,
and nothing reaches it.  Of edge-adjacent tiles, a shared corner's
neighbours are the other shared corner, one more corner of each tile, and
one node off both tiles.  Only that last node can be a usable exit, and it
is next to no other start: the search reaches it from the corner alone, as
the corner's own, and the corner, met only from there, is never an end.

``route_batch_guaranteed`` realizes the capacity guarantee: any
``chip_capacity(b)`` independent gates are simultaneously routable.  Ring
repair routes shortest paths in batch order, ripping up the paths on any
"ring" (the saturated boundary of the region a failed search reached) that
walls a gate off.  When that fails, seeded restarts re-run it
with the batch order and each node's neighbour order shuffled: on 29 of
32,000 resu49 batches (seeds 0-9), one restart each, and on 3 of the 3,000
criterion-3 batches, 1, 1 and 4.  Failure with the precondition satisfied
is a bug, not an expected outcome, and raises.
"""
from __future__ import annotations

import copy
import random
from dataclasses import dataclass

from .chip import ChipLayout, ChipModel
from .errors import SchedulingError

Tile = tuple[int, int]
Resource = tuple  # ('h', i, j) | ('v', i, j) | ('j', i, j) | ('t', r, c)

@dataclass(frozen=True, slots=True, init=False)
class RoutePath:
    """A committed route: junction sequence (double defect, >= 2 junctions) or
    free-tile chain (lattice surgery, possibly empty for adjacent merges).  Its
    ``__init__``, like ``Action``'s, sets each slot by its descriptor, for speed."""

    model: ChipModel
    nodes: tuple[Tile, ...]

    def __init__(self, model: ChipModel, nodes: tuple[Tile, ...]) -> None:
        _set_model(self, model)
        _set_nodes(self, nodes)

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


_set_model, _set_nodes = RoutePath.model.__set__, RoutePath.nodes.__set__


class Fabric:
    """A layout's routing graph in integer form (see the module docstring):
    the corridor graph for double defect, the ancilla tile graph for lattice
    surgery.  ``data`` is the set of lattice-surgery tiles that routes avoid
    (empty for double defect).

    Ids are node-aligned.  Node ``n`` (row-major, ``N`` nodes) is resource
    ``n``; on double defect the segment east of it is ``N + n`` and the one
    south of it ``2N + n``, where a slot with no segment (last column, last
    row) has capacity 0.  So ``size`` is ``3N`` on double defect and ``N`` on
    lattice surgery, whose routes hold tiles only.
    ``open``, ``east`` and ``south`` are bitmasks over node ids: the nodes a
    route may use (capacity above 0, no lattice-surgery data tile), and the
    nodes whose east or south edge exists and has capacity above 0."""

    def __init__(self, layout: ChipLayout, data_tiles: frozenset[Tile] = frozenset()):
        self.model = model = layout.model
        dd = model is ChipModel.DOUBLE_DEFECT
        self.data = frozenset() if dd else data_tiles
        if dd:
            rows, cols = layout.array_r + 1, layout.array_c + 1
        else:
            rows, cols = layout.grid_rows, layout.grid_cols
        self.cols = cols
        self.tiles = tiles = [(r, c) for r in range(rows) for c in range(cols)]
        self.nodes = nodes = rows * cols
        bw_h, bw_v = layout.bw_h, layout.bw_v
        if dd:
            cap = [max(bw_h[i], bw_v[j]) for i, j in tiles]
            cap += [bw_h[i] if j < cols - 1 else 0 for i, j in tiles]
            cap += [bw_v[j] if i < rows - 1 else 0 for i, j in tiles]
        else:
            cap = [1] * nodes
        self.cap = cap
        self.size = len(cap)
        # neighbours by row and column arithmetic on node ids; each
        # direction's entry by the node ``m`` it enters: on double defect
        # with the segment crossed, named by its north or west end, and on
        # lattice surgery with ``m`` itself, one tuple that all four of its
        # neighbours share
        blocked = {r * cols + c for r, c in self.data}
        if dd:
            into_n, into_e, into_s, into_w = (
                [(m, m + offset) for m in range(nodes)]
                for offset in (2 * nodes, nodes - 1, 2 * nodes - cols, nodes))
        else:
            into_n = into_e = into_s = into_w = [(m, m) for m in range(nodes)]
        adj = []
        n = 0
        for r in range(rows):
            north, south = r > 0, r < rows - 1
            for c in range(cols):
                out = []
                if north and n - cols not in blocked:
                    out.append(into_n[n - cols])
                if c < cols - 1 and n + 1 not in blocked:
                    out.append(into_e[n + 1])
                if south and n + cols not in blocked:
                    out.append(into_s[n + cols])
                if c and n - 1 not in blocked:
                    out.append(into_w[n - 1])
                adj.append(tuple(out))
                n += 1
        self.adj = adj
        if dd:
            self.open = _mask(n for n in range(nodes) if cap[n] > 0)
            self.east = _mask(n for n in range(nodes) if cap[nodes + n] > 0)
            self.south = _mask(n for n in range(nodes) if cap[2 * nodes + n] > 0)
        else:
            self.open = (1 << nodes) - 1 & ~_mask(blocked)
            self.east, self.south = grid_masks(rows, cols)
        self._terminal_masks: dict[Tile, int] = {}

    def terminals(self, tile: Tile) -> tuple[int, ...]:
        """Ascending ids of the nodes a route to or from ``tile`` may end
        on: its four corner junctions (double defect) or its free grid
        neighbours (lattice surgery).  The route search relies on this
        order: it takes the lowest set bit of a terminal mask where the
        queue search would take the first start in this tuple."""
        r, c = tile
        cols = self.cols
        if self.model is ChipModel.DOUBLE_DEFECT:
            return (r * cols + c, r * cols + c + 1, (r + 1) * cols + c, (r + 1) * cols + c + 1)
        return tuple(sorted(n for n, _ in self.adj[r * cols + c]))

    def terminal_mask(self, tile: Tile) -> int:
        """The bitmask of ``terminals(tile)``."""
        mask = self._terminal_masks.get(tile)
        if mask is None:
            mask = self._terminal_masks[tile] = _mask(self.terminals(tile))
        return mask

    def route(self, ids) -> RoutePath:
        return RoutePath(self.model, tuple(map(self.tiles.__getitem__, ids)))


class CycleOccupancy:
    """Per-cycle reservation ledger: a bitmask per cycle of the resources at
    capacity, indexed by the resource ids of ``fabric``, and on double
    defect beside it one usage list per cycle.  A lattice-surgery tile holds
    one route, so there the mask is the whole ledger.  Tiles are array
    coordinates for double defect, absolute tile coordinates for lattice
    surgery.

    ``walled`` maps ``(cycle, duration)`` to the union of the regions that
    ``find_path``'s level-search misses there reached from their goals."""

    def __init__(self, layout: ChipLayout, data_tiles: frozenset[Tile] = frozenset()):
        self.fabric = Fabric(layout, data_tiles)
        self._usage: dict[int, list[int]] = {}
        self._full: dict[int, int] = {}
        self.walled: dict[tuple[int, int], int] = {}

    def full(self, cycle: int) -> int:
        """Bitmask of the resource ids whose use at ``cycle`` has reached
        their capacity (those of capacity 0 excepted: no route holds one)."""
        return self._full.get(cycle, 0)

    def commit_route(self, path: RoutePath, ids: list[int], cycle: int, duration: int = 1) -> None:
        """Hold the resources ``ids``, those ``find_path`` returned with
        ``path``, from ``cycle`` for ``duration`` cycles; ``path`` only words
        the message of an over-commit."""
        fabric = self.fabric
        if fabric.model is ChipModel.LATTICE_SURGERY:
            for t in range(cycle, cycle + duration):
                self._full[t] = _add_tiles(self._full.get(t, 0), path, ids, t)
            return
        cap = fabric.cap
        for t in range(cycle, cycle + duration):
            usage = self._usage.get(t)
            if usage is None:
                usage = self._usage[t] = [0] * fabric.size
            full = self._full.get(t, 0)
            for i in ids:
                usage[i] += 1
                if usage[i] >= cap[i]:
                    assert usage[i] == cap[i], \
                        f"lane over-commit on {path.resources()[ids.index(i)]} at cycle {t}"
                    full |= 1 << i
            self._full[t] = full

    def release(self, cycle: int) -> None:
        """Forget ``cycle`` and the walled regions of spans that hold it; the
        caller will neither read nor commit it again."""
        self._usage.pop(cycle, None)
        self._full.pop(cycle, None)
        self.walled = {k: w for k, w in self.walled.items() if not k[0] <= cycle < k[0] + k[1]}


def _add_tiles(full: int, path: RoutePath, ids: list[int], cycle: int | None = None) -> int:
    """``full`` with the lattice-surgery tiles ``ids`` of ``path`` added.
    Asserts that no tile is in ``full`` already or twice in ``ids``, and
    names the first such tile in route order, the one a count of each
    tile's use against its capacity of 1 would find, with ``cycle`` when
    given."""
    mask = _mask(ids)
    assert not (full & mask or mask.bit_count() < len(ids)), \
        f"lane over-commit on {_first_held(path, ids, full)}" + ("" if cycle is None else f" at cycle {cycle}")
    return full | mask


def _first_held(path: RoutePath, ids: list[int], full: int) -> Resource | None:
    """The resource of ``path`` whose id is the first of ``ids`` that
    ``full`` or an earlier id holds."""
    for k, i in enumerate(ids):
        if full >> i & 1:
            return path.resources()[k]
        full |= 1 << i


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


def _mask(ids) -> int:
    """The bitmask with the bits of ``ids`` set."""
    mask = 0
    for n in ids:
        mask |= 1 << n
    return mask


def grid_masks(rows: int, cols: int) -> tuple[int, int]:
    """``(east, south)`` of a ``rows x cols`` grid of row-major node ids:
    all nodes but the last column's, and all but the last row's."""
    return (int(("0" + "1" * (cols - 1)) * rows or "0", 2),
            (1 << (rows * cols - cols)) - 1 if rows else 0)


def spread(mask: int, east: int, south: int, cols: int) -> int:
    """``N(mask)``: the nodes one step from those of ``mask``, each way over
    the edges that ``east`` and ``south`` allow."""
    return (((mask & east) << 1) | ((mask >> 1) & east)
            | ((mask & south) << cols) | ((mask >> cols) & south))


def flood(seed: int, free: int, east: int, south: int, cols: int) -> int:
    """The nodes of ``free`` that the nodes of ``seed``, all in ``free``,
    reach through ``free``."""
    region = frontier = seed
    while frontier:
        frontier = spread(frontier, east, south, cols) & free & ~region
        region |= frontier
    return region


def _level_route(fabric: Fabric, full: int, starts: int, goals: int
                 ) -> tuple[list[int] | None, list[int] | None, int]:
    """The route the queue search finds from the nodes of the bitmask
    ``starts``, in ascending order, to those of ``goals``, with the
    resources of the bitmask ``full`` as walls, searched one whole BFS level
    at a time from the goals (see the module docstring).  ``starts`` must be
    free, and on double defect disjoint from ``goals``; a lattice-surgery
    start that is a goal is a one-node route.  Returns ``(path, segments,
    0)``: the node ids from a start to the goal and, on double defect, the
    ids of the segments between them (None on lattice surgery, whose routes
    hold tiles only); on a miss ``(None, None, region)``, the bitmask of the
    nodes the sweep reached."""
    cols, adj = fabric.cols, fabric.adj
    free = fabric.open & ~full
    level = goals & free
    unseen = free ^ level
    levels = []
    if fabric.model is ChipModel.LATTICE_SURGERY:
        # every edge is there: only a row end needs a guard, and a vertical
        # shift off the grid lands outside ``unseen``
        east = fabric.east
        while not level & starts:
            if not level:
                return None, None, free ^ unseen
            levels.append(level)
            level = ((level & east) << 1 | (level >> 1) & east | level << cols | level >> cols) & unseen
            unseen ^= level
        met = level & starts
        node = (met & -met).bit_length() - 1
        path = [node]
        for level in reversed(levels):
            for node, _ in adj[node]:
                if level >> node & 1:
                    break
            path.append(node)
        return path, None, 0
    cap = fabric.cap
    east = fabric.east & ~(full >> fabric.nodes)
    south = fabric.south & ~(full >> 2 * fabric.nodes)
    while not level & starts:
        if not level:
            return None, None, free ^ unseen
        levels.append(level)
        level = (((level & east) << 1) | ((level >> 1) & east)
                 | ((level & south) << cols) | ((level >> cols) & south)) & unseen
        unseen ^= level
    met = level & starts  # then forward, one level nearer the goals each step
    node = (met & -met).bit_length() - 1
    path = [node]
    segments = []
    for level in reversed(levels):
        for nxt, seg in adj[node]:
            if level >> nxt & 1 and cap[seg] and not full >> seg & 1:
                break
        node = nxt
        path.append(node)
        segments.append(seg)
    return path, segments, 0


def _bfs_route(fabric: Fabric, full: int, src: Tile, dst: Tile, walled: int = 0
               ) -> tuple[RoutePath | None, list[int] | None, int]:
    """Deterministic shortest route that avoids the resources of the bitmask
    ``full``.  Sources are the free terminals of ``src`` in ascending order.
    A goal that is also a source ends a route only when met from another
    source, so a route always occupies fabric.  Between double-defect tiles
    that share a corner, that happens one hop from a source or never, so
    past the one-hop check the sources leave the goals (see the module
    docstring).  ``walled`` is ``find_path``'s union of walled regions: a
    query with its free goals in it and no free source, or the reverse, misses.

    Returns ``(route, ids, region)``: the route and the ids of its
    ``resources()`` in that order, or None and None on a miss; and on a
    miss of the level search the bitmask of the nodes its sweep reached
    from the goals, else 0."""
    model = fabric.model
    ls = model is ChipModel.LATTICE_SURGERY
    if ls and _adjacent(src, dst):
        return RoutePath(model, ()), [], 0
    free = fabric.open & ~full
    goals = fabric.terminal_mask(dst) & free
    starts = fabric.terminal_mask(src) & free
    if not starts or walled and (goals & walled == goals and not starts & walled
                                 or starts & walled == starts and not goals & walled):
        return None, None, 0
    if not ls and starts & goals:
        # double-defect tiles that share a corner: the queue search's first
        # level, read on the masks (see the module docstring), answers
        # almost every query; a segment of capacity 0 is never in ``full``
        cap = fabric.cap
        rest = starts
        while rest:
            low = rest & -rest
            node = low.bit_length() - 1
            for nxt, seg in fabric.adj[node]:
                if goals >> nxt & 1 and cap[seg] > 0 and not full >> seg & 1:
                    return fabric.route((node, nxt)), [node, nxt, seg], 0
            rest ^= low
        # no goal one hop from a start: no shared corner is an end
        goals &= ~starts
    path, segments, region = _level_route(fabric, full, starts, goals)
    if path is None:
        return None, None, region
    route = fabric.route(path)
    if not ls:
        path += segments
    return route, path, 0


def _adjacent(a: Tile, b: Tile) -> bool:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def _saturated_frontier(fabric: Fabric, full: int, src: Tile) -> int:
    """Bitmask of the full resources on the boundary of the region that a
    failed route search from ``src`` would reach, flooded here from the free
    terminals of ``src``, and at those terminals: the segments that leave the
    region, and the nodes beyond its free edges.  These form the blocking
    ring of saturated channels separating the pair."""
    nodes, cols = fabric.nodes, fabric.cols
    full_east = full >> nodes & fabric.east  # nodes whose east segment is full
    full_south = full >> 2 * nodes & fabric.south
    east = fabric.east & ~full_east
    south = fabric.south & ~full_south
    free = fabric.open & ~full
    region = flood(fabric.terminal_mask(src) & free, free, east, south, cols)
    beyond = spread(region, east, south, cols)
    return ((fabric.terminal_mask(src) | beyond) & full
            | ((region | region >> 1) & full_east) << nodes
            | ((region | region >> cols) & full_south) << 2 * nodes)


def find_path(
    occupancy: CycleOccupancy,
    cycle: int,
    tile_a: Tile,
    tile_b: Tile,
    duration: int = 1,
) -> tuple[RoutePath, list[int]] | None:
    """Shortest route between two tiles on ``occupancy``'s fabric that stays
    free for ``duration`` cycles from ``cycle``, with the ids of its
    ``resources()`` in that order; None when saturated.  Reserves nothing:
    callers commit the route by these ids.  A miss adds its sweep's region
    to ``occupancy.walled`` (see the module docstring)."""
    full = occupancy.full(cycle)
    for t in range(cycle + 1, cycle + duration):
        full |= occupancy.full(t)
    walled = occupancy.walled.get((cycle, duration), 0)
    path, ids, region = _bfs_route(occupancy.fabric, full, tile_a, tile_b, walled)
    if path is None:
        occupancy.walled[cycle, duration] = walled | region
        return None
    return path, ids


def _ring_repair(fabric: Fabric, tile_pairs: list[tuple[Tile, Tile]],
                 order: list[int]) -> list[tuple[RoutePath, list[int]]] | None:
    """Greedy routing in ``order`` with targeted rip-up: when a gate is
    walled off by a ring of saturated channels, evict the committed paths
    sitting on that ring and let the blocked gate route first.  With no
    rip-up this is plain greedy routing.  Returns the routes in batch order,
    each with the ids of its resources, or None when a ring holds no
    committed path or the rip-ups exceed four per gate.  Double defect
    counts each resource's use against its capacity; lattice surgery keeps
    the mask of held tiles alone."""
    ls = fabric.model is ChipModel.LATTICE_SURGERY
    cap = fabric.cap
    paths: dict[int, tuple[RoutePath, list[int]]] = {}  # each with its resource ids
    usage = None if ls else [0] * fabric.size
    full = 0  # the resources whose use has reached their capacity
    pending = list(order)
    repairs = 0
    while pending:
        idx = pending.pop(0)
        a, b = tile_pairs[idx]
        p, ids, _ = _bfs_route(fabric, full, a, b)
        if p is None:
            repairs += 1
            if repairs > 4 * len(tile_pairs):
                return None
            ring = _saturated_frontier(fabric, full, a)
            ripped = sorted(k for k, (_, held) in paths.items() if _mask(held) & ring)
            if not ripped:
                return None
            for k in ripped:
                held = paths.pop(k)[1]
                if ls:
                    full &= ~_mask(held)
                    continue
                for res in held:
                    usage[res] -= 1
                    full &= ~(1 << res)
            pending = [idx] + ripped + pending
            continue
        paths[idx] = p, ids
        if ls:
            full = _add_tiles(full, p, ids)
            continue
        for res in ids:
            usage[res] += 1
            if usage[res] >= cap[res]:
                assert usage[res] == cap[res], \
                    f"lane over-commit on {p.resources()[ids.index(res)]}"
                full |= 1 << res
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
    routed = _ring_repair(fabric, tile_pairs, order)
    if routed is None:
        rng = random.Random(0xC0FFEE + 31 * len(tile_pairs))
        for _ in range(160):
            rng.shuffle(order)
            # the copy shares the terminal cache and the masks: none of them
            # depends on the neighbour order
            shuffled = copy.copy(fabric)
            shuffled.adj = [tuple(rng.sample(nbrs, len(nbrs))) for nbrs in fabric.adj]
            routed = _ring_repair(shuffled, tile_pairs, order)
            if routed is not None:
                break
        else:
            raise SchedulingError("guaranteed batch routing failed; capacity precondition violated?")
    return [p for p, _ in routed]

