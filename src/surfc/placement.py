"""Initial mapping: array shape, qubit locations, channel widths, cut types.

Locations come from seeded recursive bisection of the communication graph
(split the qubit set to minimize cut weight, recurse onto grid halves)
followed by pairwise-swap descent on the communication cost
``f = sum(gamma_ij * distance_ij)``; several independent trials run and the
cheapest wins.  For lattice surgery the internal distance is route-aware
(pairs that could never reach each other through the ancilla fabric are
heavily penalized, since such a mapping deadlocks the scheduler); the public
``mapping_cost`` metric stays plain Manhattan.

Both searches keep tables so that each candidate is judged in O(1):

* bisection keeps the Kernighan-Lin gain of every member (external minus
  internal weight across the split), computed once per split; a swap of
  ``x`` and ``y`` pays off when ``gain[x] + gain[y] - 2*w_xy > 0``, and a
  move flips the mover's gain and shifts each member neighbour's by ``2*w``;
* swap descent indexes the cells, holds one dense distance matrix, and keeps
  per qubit a row ``cost[q][k]``: q's share of ``f`` were it on cell ``k``
  with every other qubit fixed.  A move into a free cell compares two
  entries of one row, a swap four entries plus the pair's own term, and a
  relocation updates only the rows of the mover's neighbours.

Cut types: two-color the communication graph when bipartite (every CNOT then
braids in one cycle); otherwise grow a sub-graph from precursor-free gates,
layer by layer, while it stays bipartite, and color that prefix — early gates
matter most because cut types can be modified later.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

import networkx as nx
from networkx.algorithms.approximation.maxcut import one_exchange

from .chip import ChipLayout, ChipModel, minimal_perimeter_shape
from .circuits import CommGraph, LogicalCircuit, build_comm_graph, build_dag, two_coloring
from .errors import InfeasibleError

Tile = tuple[int, int]


class CutType(Enum):
    X = "X"
    Z = "Z"

    @property
    def flipped(self) -> "CutType":
        return CutType.Z if self is CutType.X else CutType.X


@dataclass(frozen=True)
class ArrayShape:
    rows: int
    cols: int

    @property
    def cells(self) -> list[Tile]:
        return [(i, j) for i in range(self.rows) for j in range(self.cols)]


@dataclass(frozen=True)
class TileMapping:
    shape: ArrayShape
    positions: dict[int, Tile]                  # qubit -> array cell
    cuts: dict[int, CutType] | None = None      # per qubit, double defect only

    def __post_init__(self):
        seen: set[Tile] = set()
        for q, cell in self.positions.items():
            if cell in seen:
                raise InfeasibleError(f"cell {cell} assigned twice")
            seen.add(cell)
            if not (0 <= cell[0] < self.shape.rows and 0 <= cell[1] < self.shape.cols):
                raise InfeasibleError(f"qubit {q} mapped outside the {self.shape} array")

    def tile_of(self, q: int) -> Tile:
        return self.positions[q]

    def with_cuts(self, cuts: dict[int, CutType]) -> "TileMapping":
        return replace(self, cuts=dict(cuts))

    def data_tiles(self, layout: ChipLayout) -> frozenset[Tile]:
        """Absolute tile coordinates of mapped qubits (lattice surgery)."""
        rt, ct = layout.row_tracks, layout.col_tracks
        return frozenset((rt[i], ct[j]) for i, j in self.positions.values())

    def abs_tile(self, layout: ChipLayout, q: int) -> Tile:
        i, j = self.positions[q]
        return (layout.row_tracks[i], layout.col_tracks[j])

    def to_json_dict(self) -> dict:
        return {
            str(q): [cell[0], cell[1], self.cuts[q].value if self.cuts else None]
            for q, cell in sorted(self.positions.items())
        }


def determine_shape(n: int, grid_rows: int, grid_cols: int) -> ArrayShape:
    r, c = minimal_perimeter_shape(n, grid_rows, grid_cols)
    return ArrayShape(r, c)


def mapping_cost(mapping: TileMapping, comm: CommGraph) -> int:
    """Communication cost f: CNOT multiplicity times Manhattan tile distance."""
    total = 0
    for a, b, w in comm.edges():
        if a not in mapping.positions or b not in mapping.positions:
            raise InfeasibleError(f"communication pair ({a},{b}) not fully mapped")
        (r1, c1), (r2, c2) = mapping.positions[a], mapping.positions[b]
        total += w * (abs(r1 - r2) + abs(c1 - c2))
    return total


def _ls_cell_distances(layout: ChipLayout) -> dict[tuple[Tile, Tile], int]:
    """Route-aware distance between array cells for lattice surgery: 1 for
    tile-adjacent cells, else 1 + shortest hop count through the gap fabric
    (array cells all count as obstacles), else a deadlock penalty."""
    r, c = layout.array_r, layout.array_c
    rt, ct = layout.row_tracks, layout.col_tracks
    cell_tiles = {(i, j): (rt[i], ct[j]) for i in range(r) for j in range(c)}
    blocked = set(cell_tiles.values())
    rows, cols = layout.grid_rows, layout.grid_cols
    penalty = 8 * (rows + cols)

    def neighbors(t: Tile):
        tr, tc = t
        for dr, dc in ((-1, 0), (0, 1), (1, 0), (0, -1)):
            nr, nc = tr + dr, tc + dc
            if 0 <= nr < rows and 0 <= nc < cols:
                yield (nr, nc)

    dist: dict[tuple[Tile, Tile], int] = {}
    cells = sorted(cell_tiles)
    for idx, cell in enumerate(cells):
        src = cell_tiles[cell]
        # BFS through fabric tiles from src's free neighbors
        hops: dict[Tile, int] = {}
        queue: deque[Tile] = deque()
        for nb in neighbors(src):
            if nb not in blocked:
                hops[nb] = 1
                queue.append(nb)
        while queue:
            t = queue.popleft()
            for nb in neighbors(t):
                if nb in blocked or nb in hops:
                    continue
                hops[nb] = hops[t] + 1
                queue.append(nb)
        for other in cells[idx + 1:]:
            dst = cell_tiles[other]
            manhattan = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
            if manhattan == 1:
                d = 1
            else:
                best = min(
                    (hops[nb] for nb in neighbors(dst) if nb in hops),
                    default=None,
                )
                # unreachable pairs keep a Manhattan gradient under the penalty
                # so swap descent can still pull them together
                d = penalty + manhattan if best is None else best + 1
            dist[(cell, other)] = dist[(other, cell)] = d
    return dist


class _CostModel:
    """Dense distance matrix over the cells of ``shape`` (row-major index):
    Manhattan for double defect, route-aware for lattice surgery.  Both are
    symmetric with a zero diagonal."""

    def __init__(self, shape: ArrayShape, layout: ChipLayout | None):
        self.cells = shape.cells
        self.index = {cell: k for k, cell in enumerate(self.cells)}
        if layout is not None and layout.model is ChipModel.LATTICE_SURGERY:
            table = _ls_cell_distances(layout)
            self.matrix = [[table[(a, b)] if a != b else 0 for b in self.cells]
                           for a in self.cells]
        else:
            self.matrix = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in self.cells]
                           for a in self.cells]

    def dist(self, a: Tile, b: Tile) -> int:
        return self.matrix[self.index[a]][self.index[b]]


def _cost(assign: dict[int, Tile], comm: CommGraph, cm: _CostModel) -> int:
    return sum(w * cm.dist(assign[a], assign[b]) for a, b, w in comm.edges())


def _bisect(qubits: list[int], cells: list[Tile], comm: CommGraph, rng: random.Random,
            out: dict[int, Tile]) -> None:
    """Assign ``qubits`` (padded with negative hole ids) to ``cells`` by
    recursive min-cut bisection; splits follow the longer grid dimension."""
    if len(cells) == 1:
        if qubits and qubits[0] >= 0:
            out[qubits[0]] = cells[0]
        return
    rows = {r for r, _ in cells}
    cols = {c for _, c in cells}
    if len(rows) >= len(cols):
        mid = (min(rows) + max(rows)) // 2
        cells_a = [t for t in cells if t[0] <= mid]
        cells_b = [t for t in cells if t[0] > mid]
    else:
        mid = (min(cols) + max(cols)) // 2
        cells_a = [t for t in cells if t[1] <= mid]
        cells_b = [t for t in cells if t[1] > mid]
    pool = qubits[:]
    rng.shuffle(pool)
    part_a, part_b = pool[: len(cells_a)], pool[len(cells_a):]
    side = {q: 0 for q in part_a if q >= 0}
    side.update({q: 1 for q in part_b if q >= 0})
    adj = comm.adjacency
    # gain[v]: external minus internal weight over members (holes stay 0);
    # positive means v wants to move
    gain = dict.fromkeys(pool, 0)
    for v, s in side.items():
        gain[v] = sum(w if side[u] != s else -w for u, w in adj[v] if u in side)

    def move(v: int) -> None:
        if v < 0:
            return
        s = side[v] = 1 - side[v]
        gain[v] = -gain[v]
        for u, w in adj[v]:
            if u in side:
                gain[u] += -2 * w if side[u] == s else 2 * w

    improved = True
    while improved:
        improved = False
        for i in range(len(part_a)):
            for j in range(len(part_b)):
                x, y = part_a[i], part_b[j]
                # holes have no weight to anyone
                if gain[x] + gain[y] - 2 * comm.weight(x, y) > 0:
                    part_a[i], part_b[j] = y, x
                    move(x)
                    move(y)
                    improved = True
    _bisect(part_a, cells_a, comm, rng, out)
    _bisect(part_b, cells_b, comm, rng, out)


def _swap_descent(assign: dict[int, Tile], comm: CommGraph, cm: _CostModel) -> None:
    """First-improvement pairwise swaps (including moves into the free cells
    of ``cm``) until a local minimum of the communication cost."""
    dist = cm.matrix
    adj = comm.adjacency
    pos = {q: cm.index[cell] for q, cell in assign.items()}
    free = set(range(len(cm.cells))) - set(pos.values())
    # cost[q][k]: q's share of the cost were it on cell k, all others fixed
    cost: dict[int, list[int]] = {}
    for q in assign:
        row = [0] * len(cm.cells)
        for u, w in adj[q]:
            row = [c + w * d for c, d in zip(row, dist[pos[u]])]
        cost[q] = row

    def relocate(q: int, k: int) -> None:
        delta = [a - b for a, b in zip(dist[k], dist[pos[q]])]
        pos[q] = k
        for u, w in adj[q]:
            row = cost[u]
            row[:] = [c + w * d for c, d in zip(row, delta)]

    qubits = sorted(assign)
    improved = True
    while improved:
        improved = False
        for q in qubits:
            row_q = cost[q]
            # move into an empty cell
            for k in sorted(free):
                kq = pos[q]
                if row_q[k] < row_q[kq]:
                    free.remove(k)
                    free.add(kq)
                    relocate(q, k)
                    improved = True
            # swap with another qubit
            kq = pos[q]
            w_q = dict(adj[q])
            for p in qubits:
                if p <= q:
                    continue
                kp = pos[p]
                row_p = cost[p]
                if (row_q[kp] + row_p[kq] + 2 * w_q.get(p, 0) * dist[kq][kp]
                        < row_q[kq] + row_p[kp]):
                    relocate(q, kp)
                    relocate(p, kq)
                    kq = kp
                    improved = True
    for q, k in pos.items():
        assign[q] = cm.cells[k]


def _bfs_linearization(comm: CommGraph) -> list[int]:
    """Weighted BFS qubit order: start at the lowest-degree vertex, expand
    heaviest edges first.  Laying this order along the snake recovers optimal
    embeddings for chain-like communication graphs."""
    adj = comm.adjacency
    degree = {q: len(adj[q]) for q in range(comm.n)}
    order: list[int] = []
    seen: set[int] = set()
    for root in sorted(range(comm.n), key=lambda q: (degree[q] == 0, degree[q], q)):
        if root in seen:
            continue
        queue = deque([root])
        seen.add(root)
        while queue:
            v = queue.popleft()
            order.append(v)
            for u, _w in sorted(adj[v], key=lambda uw: (-uw[1], uw[0])):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    return order


def _snake_cells(shape: ArrayShape) -> list[Tile]:
    order: list[Tile] = []
    for i in range(shape.rows):
        row = [(i, j) for j in range(shape.cols)]
        order.extend(row if i % 2 == 0 else row[::-1])
    return order


def establish_mapping(
    comm: CommGraph,
    shape: ArrayShape,
    trials: int = 16,
    seed: int = 0,
    layout: ChipLayout | None = None,
) -> TileMapping:
    """Best-of-``trials`` placement: one constructive trial (weighted-BFS
    linearization along the snake) plus seeded bisection trials, each refined
    by swap descent, keeping the minimal-cost result.  Lattice-surgery
    mappings get a final repair pass against the true ancilla fabric (gaps
    plus unoccupied cells), since a pair the fabric cannot reach deadlocks
    the scheduler no matter how cheap the mapping looks."""
    if trials < 1:
        raise InfeasibleError("establish_mapping needs at least one trial")
    n = comm.n
    if shape.rows * shape.cols < n:
        raise InfeasibleError(f"shape {shape} cannot hold {n} qubits")
    cm = _CostModel(shape, layout)
    cells = shape.cells
    best: dict[int, Tile] | None = None
    best_cost = None
    for t in range(trials):
        assign: dict[int, Tile] = {}
        if t == 0:
            snake = _snake_cells(shape)
            for pos, q in enumerate(_bfs_linearization(comm)):
                assign[q] = snake[pos]
        else:
            rng = random.Random((seed << 16) + t)
            pool = list(range(n)) + [-(k + 1) for k in range(len(cells) - n)]
            _bisect(pool, cells, comm, rng, assign)
        _swap_descent(assign, comm, cm)
        cost = _cost(assign, comm, cm)
        if best_cost is None or cost < best_cost:
            best, best_cost = dict(assign), cost
    assert best is not None
    if layout is not None and layout.model is ChipModel.LATTICE_SURGERY:
        _repair_ls_routability(best, shape, comm, layout, cm)
    return TileMapping(shape, best)


def repair_mapping(mapping: TileMapping, comm: CommGraph, layout: ChipLayout) -> TileMapping:
    """Re-run the routability repair against a (possibly re-adjusted) layout.
    Bandwidth adjusting moves lattice-surgery fabric around after the mapping
    is fixed, so stranded pairs must be re-checked against the final tracks."""
    if layout.model is not ChipModel.LATTICE_SURGERY or not mapping.positions:
        return mapping
    assign = dict(mapping.positions)
    _repair_ls_routability(assign, mapping.shape, comm, layout,
                          _CostModel(mapping.shape, layout))
    if assign == mapping.positions:
        return mapping
    return TileMapping(mapping.shape, assign, mapping.cuts)


def stranded_pairs(mapping: TileMapping, comm: CommGraph,
                   layout: ChipLayout) -> list[tuple[int, int]]:
    """Lattice-surgery comm pairs that ``mapping`` leaves unroutable on
    ``layout`` (never any for double defect, whose abutting tiles keep a lane).
    Such a pair deadlocks the scheduler whatever the bandwidth."""
    if layout.model is not ChipModel.LATTICE_SURGERY or not mapping.positions:
        return []
    return _ls_unroutable_pairs(mapping.positions, comm, layout)


def _ls_unroutable_pairs(assign: dict[int, Tile], comm: CommGraph,
                         layout: ChipLayout) -> list[tuple[int, int]]:
    """Comm pairs that are neither tile-adjacent nor connected through the
    actual free fabric (gap tiles and unoccupied cells) of this assignment."""
    rt, ct = layout.row_tracks, layout.col_tracks
    data = {(rt[i], ct[j]) for i, j in assign.values()}
    rows, cols = layout.grid_rows, layout.grid_cols

    def neighbors(t: Tile):
        for dr, dc in ((-1, 0), (0, 1), (1, 0), (0, -1)):
            nr, nc = t[0] + dr, t[1] + dc
            if 0 <= nr < rows and 0 <= nc < cols:
                yield (nr, nc)

    # free-fabric components
    comp: dict[Tile, int] = {}
    cid = 0
    for r in range(rows):
        for c in range(cols):
            t = (r, c)
            if t in data or t in comp:
                continue
            queue = deque([t])
            comp[t] = cid
            while queue:
                u = queue.popleft()
                for v in neighbors(u):
                    if v not in data and v not in comp:
                        comp[v] = cid
                        queue.append(v)
            cid += 1

    def touch(tile: Tile) -> set[int]:
        return {comp[v] for v in neighbors(tile) if v in comp}

    bad = []
    for a, b, _w in comm.edges():
        ta = (rt[assign[a][0]], ct[assign[a][1]])
        tb = (rt[assign[b][0]], ct[assign[b][1]])
        if abs(ta[0] - tb[0]) + abs(ta[1] - tb[1]) == 1:
            continue
        if touch(ta) & touch(tb):
            continue
        bad.append((a, b))
    return bad


def _repair_ls_routability(assign: dict[int, Tile], shape: ArrayShape,
                           comm: CommGraph, layout: ChipLayout, cm: _CostModel) -> None:
    """Greedy repair: while some pair cannot meet through the fabric, try the
    single move or swap that most reduces the unroutable count (ties: lower
    cost).  Stops when clean or stuck; a stuck mapping surfaces later as a
    scheduler error naming the gate.  Hopeless geometries (undistributed
    fabric, or more broken pairs than moves could mend) are left alone."""
    if layout.spare_rows or layout.spare_cols:
        return  # fabric not placed yet; repair re-runs after adjusting
    cells = shape.cells
    if len(_ls_unroutable_pairs(assign, comm, layout)) > max(8, comm.n // 2):
        return
    for _round in range(16):
        bad = _ls_unroutable_pairs(assign, comm, layout)
        if not bad:
            return
        involved = sorted({q for pair in bad for q in pair})
        best_move = None
        best_key = (len(bad), _cost(assign, comm, cm))
        for q in involved:
            origin = assign[q]
            occupied = {cell: who for who, cell in assign.items()}
            for cell in cells:
                if cell == origin:
                    continue
                other = occupied.get(cell)
                assign[q] = cell
                if other is not None:
                    assign[other] = origin
                key = (len(_ls_unroutable_pairs(assign, comm, layout)),
                       _cost(assign, comm, cm))
                if key < best_key:
                    best_key = key
                    best_move = (q, cell, other)
                assign[q] = origin
                if other is not None:
                    assign[other] = cell
        if best_move is None:
            return
        q, cell, other = best_move
        if other is not None:
            assign[other] = assign[q]
        assign[q] = cell


def baseline_mapping(kind: str, n: int, shape: ArrayShape, seed: int = 0) -> TileMapping:
    """Reference mappings: ``snake`` (rows alternating left-to-right and
    right-to-left) or ``random`` (seeded uniform injective placement)."""
    cells = shape.cells
    if shape.rows * shape.cols < n:
        raise InfeasibleError(f"shape {shape} cannot hold {n} qubits")
    if kind == "snake":
        order = _snake_cells(shape)
        return TileMapping(shape, {q: order[q] for q in range(n)})
    if kind == "random":
        rng = random.Random(seed)
        order = cells[:]
        rng.shuffle(order)
        return TileMapping(shape, {q: order[q] for q in range(n)})
    raise InfeasibleError(f"unknown baseline mapping kind {kind!r}")


def init_cut_types(circuit: LogicalCircuit, mapping: TileMapping) -> dict[int, CutType]:
    """Cut assignment from the bipartite prefix of the gate DAG (whole graph if
    bipartite); qubits outside the colored prefix default to X."""
    comm = build_comm_graph(circuit)
    coloring = two_coloring(circuit.n, set(comm.weights))
    if coloring is None:
        dag = build_dag(circuit)
        remaining = set(range(circuit.g))
        indeg = {v: len(dag.parents[v]) for v in range(circuit.g)}
        edges: set[tuple[int, int]] = set()
        coloring = {}
        while remaining:
            front = sorted(v for v in remaining if indeg[v] == 0)
            if not front:
                break
            trial = set(edges)
            for v in front:
                a, b = circuit.gates[v].qubits
                trial.add((min(a, b), max(a, b)))
            colors = two_coloring(circuit.n, trial)
            if colors is None:
                break
            coloring = colors
            edges = trial
            for v in front:
                remaining.remove(v)
                for ch in dag.children[v]:
                    indeg[ch] -= 1
    return {
        q: (CutType.Z if coloring.get(q) == 1 else CutType.X)
        for q in range(circuit.n)
    }


def baseline_cuts(kind: str, comm: CommGraph, seed: int = 0) -> dict[int, CutType]:
    """Reference cut assignments: seeded fair coin per qubit, or the
    local-search (one-exchange) max-cut over the communication graph."""
    if kind == "random":
        rng = random.Random(seed)
        return {q: (CutType.X if rng.random() < 0.5 else CutType.Z) for q in range(comm.n)}
    if kind == "maxcut":
        graph = nx.Graph()
        graph.add_nodes_from(range(comm.n))
        for a, b, w in comm.edges():
            graph.add_edge(a, b, weight=w)
        _, (side_x, _) = one_exchange(graph, weight="weight", seed=seed)
        return {q: (CutType.X if q in side_x else CutType.Z) for q in range(comm.n)}
    raise InfeasibleError(f"unknown baseline cut kind {kind!r}")


def adjust_bandwidth(layout: ChipLayout, mapping: TileMapping, circuit: LogicalCircuit) -> ChipLayout:
    """Spend the layout's spare width on the channels that carry the most
    pre-executed shortest routes (conflict-free, geometry only).  Width that a
    channel cannot turn into a lane is reclaimed first; no channel's bandwidth
    ever decreases, and the footprint audit stays intact."""
    side = layout.side
    d = layout.d

    def min_width(b: int) -> int:
        if layout.model is ChipModel.DOUBLE_DEFECT:
            return 0 if b <= 1 else ((b - 1) * 5 * d + 1) // 2  # ceil((b-1)*2.5d)
        return b

    # tally conflict-free shortest routes per channel line, once per route
    h_routes = [0] * (layout.array_r + 1)
    v_routes = [0] * (layout.array_c + 1)
    from .router import RoutePath, _CorridorGraph  # corridor abstraction fits both models

    graph = _CorridorGraph(layout)
    for gate in circuit.gates:
        ta, tb = mapping.tile_of(gate.control), mapping.tile_of(gate.target)
        path = _free_route(graph, ta, tb)
        if path is None:
            continue
        lines: set[tuple[str, int]] = set()
        for res in RoutePath(ChipModel.DOUBLE_DEFECT, path).resources():
            if res[0] == "h":
                lines.add(("h", res[1]))
            elif res[0] == "v":
                lines.add(("v", res[2]))
        for kind, idx in lines:
            (h_routes if kind == "h" else v_routes)[idx] += 1

    def regrant(widths: list[int], routes: list[int], pool: int) -> list[int]:
        bw = [layout._line_bandwidth(w) for w in widths]
        new = [min_width(b) for b in bw]
        pool += sum(widths) - sum(new)
        while pool > 0:
            scores = [
                (routes[i] / max(bw[i], 0.5), -i)
                for i in range(len(new))
            ]
            i = max(range(len(new)), key=lambda k: scores[k])
            new[i] += 1
            bw[i] = layout._line_bandwidth(new[i])
            pool -= 1
        return new

    h_new = regrant(list(layout.h_widths), h_routes, layout.spare_rows)
    v_new = regrant(list(layout.v_widths), v_routes, layout.spare_cols)
    adjusted = layout.with_widths(tuple(h_new), tuple(v_new))
    assert all(a >= b for a, b in zip(adjusted.bw_h, layout.bw_h))
    assert all(a >= b for a, b in zip(adjusted.bw_v, layout.bw_v))
    return adjusted


def _free_route(graph, src: Tile, dst: Tile) -> tuple[Tile, ...] | None:
    """Uncapacitated BFS shortest junction path between two array tiles."""
    goals = set(graph.terminals(dst))
    starts = sorted(graph.terminals(src))
    parent: dict[Tile, Tile | None] = {n: None for n in starts}
    root: dict[Tile, Tile] = {n: n for n in starts}
    queue = deque(starts)
    while queue:
        node = queue.popleft()
        for nxt, _seg in graph.neighbors(node):
            if nxt in goals and root[node] != nxt:
                path = [nxt]
                back: Tile | None = node
                while back is not None:
                    path.append(back)
                    back = parent[back]
                return tuple(reversed(path))
            if nxt in parent:
                continue
            parent[nxt] = node
            root[nxt] = root[node]
            queue.append(nxt)
    return None
