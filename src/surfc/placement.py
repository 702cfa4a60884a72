"""Initial mapping: array shape, qubit locations, channel widths, cut types.

Locations come from seeded recursive bisection of the communication graph
(split the qubit set to minimize cut weight, recurse onto grid halves)
followed by pairwise-swap descent on the communication cost
``f = sum(gamma_ij * distance_ij)``; several independent trials run and the
cheapest wins.  For lattice surgery the internal distance is route-aware
on the layout's ancilla fabric, from one BFS per cell that holds each level
as a bitmask of free tiles (pairs that could never reach each other are
heavily penalized, since no schedule exists for such a mapping); the public
``mapping_cost`` metric stays plain Manhattan.  Stranded pairs are found on
the same masks, by flood fill of the free fabric's components.

Both searches keep tables so that each candidate is judged in O(1):

* bisection keeps each member's side and Kernighan-Lin gain (external minus
  internal weight across the split, computed once per split) in lists that
  are indexed by qubit and shared down the recursion; a hole ``-(k+1)``
  reads an entry past the qubits, which stays 0.  A swap of ``x`` and ``y``
  pays off when ``gain[x] + gain[y] - 2*w_xy > 0``, and a move flips the
  mover's gain and shifts each member neighbour's by ``2*w``;
* swap descent keeps per qubit a cost row: field ``k`` is q's share of ``f``
  were it on cell ``k`` with every other qubit fixed.  A row is one Python
  int with ``B`` bits per cell, as is each cell's packed distance row, so a
  move from cell ``a`` to ``b`` adds ``w * (packed[b] - packed[a])`` to each
  neighbour's row.  The add is exact: a field is a sum of non-negative terms
  no larger than the qubit's weighted degree times the largest distance,
  which ``B`` holds with a bit to spare, so no field borrows or carries.
  ``B`` is rounded up to 16, 32 or 64, which keeps that and lets
  ``memoryview.cast`` read a row's fields into a list in C; ``B``, the
  packed rows and the doubled pair weights are built once per
  ``establish_mapping`` call.  A relocation marks the list copies of its
  neighbours' rows stale; a stale copy is read by shifts once, then rebuilt.
  A row depends only on where the other qubits are, so q's copy survives
  q's moves and its swaps with non-neighbours.  A move into a free cell
  compares two fields of one row, a swap four fields plus the pair's term.

Cut types: grow the communication sub-graph layer by layer over the ASAP
layering while it stays bipartite (``bipartite_prefix``) and color that
prefix, which is the whole graph when it is bipartite (every CNOT then braids
in one cycle) — early gates matter most because cut types can be modified
later.
"""
from __future__ import annotations

import random
import sys
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

from .chip import ChipLayout, ChipModel, minimal_perimeter_shape
from .circuits import CommGraph, GateDag, LogicalCircuit, build_dag
from .errors import InfeasibleError
from .profiler import LayerSchedule, bipartite_prefix
from .router import flood, grid_masks, spread

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
        """Tiles that routes must avoid: the absolute tiles of mapped qubits
        for lattice surgery; none for double defect, whose routes run in the
        corridors between cells."""
        if layout.model is ChipModel.DOUBLE_DEFECT:
            return frozenset()
        rt, ct = layout.row_tracks, layout.col_tracks
        return frozenset((rt[i], ct[j]) for i, j in self.positions.values())

    def abs_tile(self, layout: ChipLayout, q: int) -> Tile:
        """The tile ``q``'s routes attach to: its array cell for double
        defect, its absolute grid tile for lattice surgery."""
        i, j = self.positions[q]
        if layout.model is ChipModel.DOUBLE_DEFECT:
            return (i, j)
        return (layout.row_tracks[i], layout.col_tracks[j])

    def to_json_dict(self) -> dict:
        return {
            str(q): [cell[0], cell[1], self.cuts[q].value if self.cuts else None]
            for q, cell in sorted(self.positions.items())
        }


def mapping_cost(mapping: TileMapping, comm: CommGraph) -> int:
    """Communication cost f: CNOT multiplicity times Manhattan tile distance."""
    total = 0
    for a, b, w in comm.edges():
        if a not in mapping.positions or b not in mapping.positions:
            raise InfeasibleError(f"communication pair ({a},{b}) not fully mapped")
        (r1, c1), (r2, c2) = mapping.positions[a], mapping.positions[b]
        total += w * (abs(r1 - r2) + abs(c1 - c2))
    return total


def _ls_cell_distances(layout: ChipLayout) -> list[list[int]]:
    """Route-aware distance matrix over the array cells (row-major index) for
    lattice surgery: 1 for tile-adjacent cells, else 1 + shortest hop count
    through the gap fabric (array cells all count as obstacles), else a
    deadlock penalty; 0 on the diagonal."""
    cols = layout.grid_cols
    east, south = grid_masks(layout.grid_rows, cols)
    tiles = [(r, c) for r in layout.row_tracks for c in layout.col_tracks]
    bits = [1 << (r * cols + c) for r, c in tiles]
    free = (1 << layout.grid_rows * cols) - 1 - sum(bits)
    ends = [spread(bit, east, south, cols) & free for bit in bits]  # free neighbours
    penalty = 8 * (layout.grid_rows + layout.grid_cols)
    dist = [[0] * len(tiles) for _ in tiles]
    for idx, (r1, c1) in enumerate(tiles):
        # BFS levels through the gap fabric from the cell's free neighbours,
        # which are one hop away
        levels = []
        level = seen = ends[idx]
        while level:
            levels.append(level)
            level = spread(level, east, south, cols) & free & ~seen
            seen |= level
        for other in range(idx + 1, len(tiles)):
            r2, c2 = tiles[other]
            manhattan = abs(r1 - r2) + abs(c1 - c2)
            if manhattan == 1:
                d = 1
            else:
                # unreachable pairs keep a Manhattan gradient under the penalty
                # so swap descent can still pull them together
                d = penalty + manhattan
                goal = ends[other]
                for hops, level in enumerate(levels, 2):
                    if level & goal:
                        d = hops
                        break
            dist[idx][other] = dist[other][idx] = d
    return dist


class _CostModel:
    """Dense distance matrix over the cells of ``shape`` (row-major index):
    Manhattan for double defect, route-aware for lattice surgery (``shape``
    is then the layout's array).  Both are symmetric with a zero diagonal."""

    def __init__(self, shape: ArrayShape, layout: ChipLayout | None):
        self.cells = shape.cells
        self.index = {cell: k for k, cell in enumerate(self.cells)}
        if layout is not None and layout.model is ChipModel.LATTICE_SURGERY:
            assert (shape.rows, shape.cols) == (layout.array_r, layout.array_c)
            self.matrix = _ls_cell_distances(layout)
        else:
            self.matrix = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in self.cells]
                           for a in self.cells]

    def dist(self, a: Tile, b: Tile) -> int:
        return self.matrix[self.index[a]][self.index[b]]


def _cost(assign: dict[int, Tile], comm: CommGraph, cm: _CostModel) -> int:
    return sum(w * cm.dist(assign[a], assign[b]) for a, b, w in comm.edges())


def _bisect(qubits: list[int], cells: list[Tile], comm: CommGraph, rng: random.Random,
            out: dict[int, Tile], side: list[int], gain: list[int]) -> None:
    """Assign ``qubits`` (``0..n-1`` and hole ids ``-1, -2, ...``) to ``cells``
    by recursive min-cut bisection along the longer grid dimension; the top
    call passes ``side`` all -1 and ``gain`` all 0, as long as ``qubits``."""
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
    for i, v in enumerate(pool):
        side[v] = int(i >= len(part_a))  # a hole's entry is never read
    adj = comm.adjacency
    weights = comm.weights
    # gain[v]: external minus internal weight over members (side 0 or 1);
    # positive means v wants to move
    for v in pool:
        if v >= 0:
            s = side[v]
            gain[v] = sum(w if side[u] != s else -w for u, w in adj[v] if side[u] >= 0)

    def move(v: int) -> None:
        if v < 0:
            return
        s = side[v] = 1 - side[v]
        gain[v] = -gain[v]
        for u, w in adj[v]:
            if side[u] >= 0:
                gain[u] += -2 * w if side[u] == s else 2 * w

    improved = True
    while improved:
        improved = False
        for i, x in enumerate(part_a):
            gx = gain[x]
            for j, y in enumerate(part_b):
                # holes have no weight to anyone, and no pair weighs below 0
                g = gx + gain[y]
                if g > 0 and g > 2 * weights.get((x, y) if x < y else (y, x), 0):
                    part_a[i], part_b[j] = y, x
                    move(x)
                    move(y)
                    x, gx = y, gain[y]
                    improved = True
    for v in pool:
        side[v] = -1
    _bisect(part_a, cells_a, comm, rng, out, side, gain)
    _bisect(part_b, cells_b, comm, rng, out, side, gain)


def _descent_tables(comm: CommGraph, cm: _CostModel) -> tuple[int, list[int], list[list[int]]]:
    """Swap descent's field width, packed distance rows and ``w2[q][p] = 2*w_qp``."""
    top = max((sum(w for _u, w in row) for row in comm.adjacency), default=0)
    need = (top * max(map(max, cm.matrix), default=0)).bit_length() + 1
    if need > 64:
        raise InfeasibleError(f"weighted degree {top} needs {need}-bit cost fields, more than 64")
    width = 16 if need <= 16 else 32 if need <= 32 else 64
    packed = [sum(d << (width * j) for j, d in enumerate(row)) for row in cm.matrix]
    w2 = [[0] * comm.n for _ in range(comm.n)]
    for (a, b), w in comm.weights.items():
        w2[a][b] = w2[b][a] = 2 * w
    return width, packed, w2


def _swap_descent(assign: dict[int, Tile], comm: CommGraph, cm: _CostModel,
                  tables: tuple[int, list[int], list[list[int]]] | None = None) -> int:
    """First-improvement pairwise swaps (including moves into free cells) of
    all ``comm.n`` qubits of ``assign`` until a local minimum of the cost,
    which it returns; ``tables`` (``_descent_tables``) are built if not given."""
    width, packed, w2 = _descent_tables(comm, cm) if tables is None else tables
    dist = cm.matrix
    adj, n = comm.adjacency, comm.n
    mask = (1 << width) - 1
    nbytes, fmt = width // 8 * len(dist), {16: "H", 32: "I", 64: "Q"}[width]

    def fields(row: int) -> list[int]:  # native big-endian fields come out last field first
        out = memoryview(row.to_bytes(nbytes, sys.byteorder)).cast(fmt).tolist()
        return out if sys.byteorder == "little" else out[::-1]

    pos = [cm.index[assign[q]] for q in range(n)]
    free = set(range(len(cm.cells))) - set(pos)
    # cost[q], field k: q's share of the cost were it on cell k, all others fixed
    cost = [sum(w * packed[pos[u]] for u, w in adj[q]) for q in range(n)]
    copy, stale = [fields(row) for row in cost], [0] * n  # stale 1: outdated, 2: read once

    def relocate(q: int, k: int) -> None:
        shift = packed[k] - packed[pos[q]]
        pos[q] = k
        for u, w in adj[q]:
            cost[u] += w * shift
            stale[u] = 1

    def fresh(q: int) -> list[int]:
        if stale[q]:
            copy[q], stale[q] = fields(cost[q]), 0
        return copy[q]

    improved = True
    while improved:
        improved = False
        for q in range(n):
            row_q = fresh(q)
            # move into an empty cell (q's own row stays put when q moves)
            for k in sorted(free):
                kq = pos[q]
                if row_q[k] < row_q[kq]:
                    free.remove(k)
                    free.add(kq)
                    relocate(q, k)
                    improved = True
            # swap with another qubit
            kq = pos[q]
            here, at_q, dist_q, w2_q = row_q[kq], width * kq, dist[kq], w2[q]
            for p in range(q + 1, n):
                kp = pos[p]
                if stale[p] == 1:
                    stale[p], row = 2, cost[p]
                    p_here, p_there = (row >> width * kp) & mask, (row >> at_q) & mask
                else:
                    row_p = fresh(p) if stale[p] else copy[p]
                    p_here, p_there = row_p[kp], row_p[kq]
                if row_q[kp] + p_there + w2_q[p] * dist_q[kp] < here + p_here:
                    relocate(q, kp)
                    relocate(p, kq)
                    row_q = fresh(q)  # rebuilt only if p is q's neighbour
                    kq, here, at_q, dist_q = kp, row_q[kp], width * kp, dist[kp]
                    improved = True
    assign.update((q, cm.cells[k]) for q, k in enumerate(pos))
    return sum((row >> width * k) & mask for row, k in zip(cost, pos)) // 2


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
    by swap descent, keeping the minimal-cost result.  With a lattice-surgery
    ``layout`` the cost is route-aware on that layout's fabric; the mapping
    is not repaired here (see ``repair_mapping``)."""
    if trials < 1:
        raise InfeasibleError("establish_mapping needs at least one trial")
    n = comm.n
    if shape.rows * shape.cols < n:
        raise InfeasibleError(f"shape {shape} cannot hold {n} qubits")
    cm = _CostModel(shape, layout)
    tables = _descent_tables(comm, cm)
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
            _bisect(pool, cells, comm, rng, assign, [-1] * len(pool), [0] * len(pool))
        cost = _swap_descent(assign, comm, cm, tables)
        if best_cost is None or cost < best_cost:
            best, best_cost = dict(assign), cost
    assert best is not None
    return TileMapping(shape, best)


def stranded_pairs(mapping: TileMapping, comm: CommGraph,
                   layout: ChipLayout) -> list[tuple[int, int]]:
    """Lattice-surgery comm pairs that ``mapping`` leaves unroutable on
    ``layout`` (never any for double defect, whose abutting tiles keep a lane).
    No schedule exists for such a mapping, so ``harness.place`` rejects it."""
    if layout.model is not ChipModel.LATTICE_SURGERY or not mapping.positions:
        return []
    return _ls_unroutable_pairs(mapping.positions, comm, layout)


def _ls_unroutable_pairs(assign: dict[int, Tile], comm: CommGraph,
                         layout: ChipLayout) -> list[tuple[int, int]]:
    """Comm pairs that are neither tile-adjacent nor connected through the
    actual free fabric (gap tiles and unoccupied cells) of this assignment:
    no component of the free fabric meets the free neighbours of both."""
    rt, ct = layout.row_tracks, layout.col_tracks
    cols = layout.grid_cols
    east, south = grid_masks(layout.grid_rows, cols)
    bit = {q: 1 << (rt[i] * cols + ct[j]) for q, (i, j) in assign.items()}
    free = (1 << layout.grid_rows * cols) - 1 - sum(bit.values())
    near = {q: spread(b, east, south, cols) for q, b in bit.items()}  # grid neighbours
    comps = []  # the components of the free fabric, as masks
    rest = free
    while rest:
        comps.append(flood(rest & -rest, free, east, south, cols))
        rest &= ~comps[-1]
    # the free fabric that each qubit's free neighbours reach
    reach = {q: sum(comp for comp in comps if comp & n) for q, n in near.items()}
    return [(a, b) for a, b, _w in comm.edges() if not (near[a] & bit[b] or reach[a] & near[b])]


def repair_mapping(mapping: TileMapping, comm: CommGraph, layout: ChipLayout) -> TileMapping:
    """Greedy routability repair of a lattice-surgery mapping on the layout it
    will be scheduled on: while some pair cannot meet through the fabric, make
    the single move or swap that most reduces the stranded count (ties: lower
    cost).  Stops when clean or stuck; a mapping with more stranded pairs than
    moves could mend is left alone.  Double-defect mappings pass unchanged."""
    if layout.model is not ChipModel.LATTICE_SURGERY or not mapping.positions:
        return mapping
    assign = dict(mapping.positions)
    cells = mapping.shape.cells
    bad = _ls_unroutable_pairs(assign, comm, layout)
    if len(bad) > max(8, comm.n // 2):
        return mapping
    cm = None
    for _round in range(16):
        if not bad:
            break
        if cm is None:
            cm = _CostModel(mapping.shape, layout)
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
            break
        q, cell, other = best_move
        if other is not None:
            assign[other] = assign[q]
        assign[q] = cell
        bad = _ls_unroutable_pairs(assign, comm, layout)
    if assign == mapping.positions:
        return mapping
    return TileMapping(mapping.shape, assign, mapping.cuts)


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


def coloring_cuts(coloring: dict[int, int], n: int) -> dict[int, CutType]:
    """Cut types from a two-coloring: color 1 is Z, every other qubit of
    ``0..n-1`` (color 0 or uncolored) is X."""
    return {q: (CutType.Z if coloring.get(q) == 1 else CutType.X) for q in range(n)}


def init_cut_types(circuit: LogicalCircuit, dag: GateDag | None = None) -> dict[int, CutType]:
    """Cut assignment from the bipartite prefix of the ASAP layering (the
    whole circuit if its communication graph is bipartite); qubits outside
    the colored prefix default to X.  ``dag`` is ``build_dag(circuit)``,
    built here when not given."""
    if circuit.g == 0:
        return coloring_cuts({}, circuit.n)
    if dag is None:
        dag = build_dag(circuit)
    asap = LayerSchedule.of([depth - 1 for depth in dag.depth_from_source], dag.alpha)
    return coloring_cuts(bipartite_prefix(asap, 0, circuit)[0], circuit.n)


def baseline_cuts(kind: str, comm: CommGraph, seed: int = 0) -> dict[int, CutType]:
    """Reference cut assignments: seeded fair coin per qubit, or the
    local-search (one-exchange) max-cut over the communication graph."""
    if kind == "random":
        rng = random.Random(seed)
        return {q: (CutType.X if rng.random() < 0.5 else CutType.Z) for q in range(comm.n)}
    if kind == "maxcut":
        side = _one_exchange(comm, seed)
        return {q: (CutType.X if side[q] else CutType.Z) for q in range(comm.n)}
    raise InfeasibleError(f"unknown baseline cut kind {kind!r}")


def _one_exchange(comm: CommGraph, seed: int) -> list[int]:
    """One-exchange local search for max-cut, starting from all qubits on
    side 0.  Each round scans the qubits in a seeded shuffle and flips the
    first one of maximal gain (same-side minus cross weight) while that gain
    is positive.  Returns the side (0 or 1) of every qubit."""
    rng = random.Random(seed)
    side = [0] * comm.n

    def gain(v: int) -> int:
        return sum(w if side[u] == side[v] else -w for u, w in comm.adjacency[v])

    while comm.n:
        order = list(range(comm.n))
        rng.shuffle(order)
        best = max(order, key=gain)
        if gain(best) <= 0:
            break
        side[best] = 1 - side[best]
    return side


def _route_lines(a: Tile, b: Tile) -> tuple[int | None, int | None]:
    """The h-line and the v-line that the route from tile ``a`` to tile
    ``b`` holds on a double-defect fabric with no walls, None where it holds
    none: the rule of ``adjust_bandwidth``."""
    (r, c), (R, C) = a, b
    dr, dc = R - r, C - c
    sr, sc = r + (dr > 0), c + (dc > 0)
    if abs(dr) >= 2 and abs(dc) >= 2:  # (sr, gc) or (gr, sc)
        return (sr, C) if dr > 0 and dc > 0 else (R + (dr < 0), sc)
    if abs(dr) <= 1 and (abs(dc) >= 2 or dc == 1 and dr <= 0):
        return sr, None
    return None, sc


def adjust_bandwidth(layout: ChipLayout, mapping: TileMapping, circuit: LogicalCircuit) -> ChipLayout:
    """Re-deal a uniform double-defect layout's channel width by traffic.

    Every channel line starts at width 0 (one lane); the summed width of each
    direction is then dealt one physical row at a time to the line with the
    most pre-executed shortest routes (conflict-free, geometry only) per lane.
    The total width, and so the footprint, is that of the input layout; a
    layout with no width to deal (every line at width 0) comes back as it
    is, without a tally.  Lattice surgery keeps the uniform fabric of
    ``derive_layout``, on which its schedules come out shorter, so an LS
    layout is rejected.

    A gate's route is the one the router's search finds from the control
    tile's corners to the target tile's on a fabric with no walls, and its
    lines count once per gate.  That route turns at most once, so its lines
    follow from the tiles: from ``(r, c)`` to ``(R, C)``, with ``dr, dc =
    R - r, C - c``, the nearest corners are ``sr, sc = r + (dr > 0), c +
    (dc > 0)`` of the control tile and ``gr, gc = R + (dr < 0), C + (dc <
    0)`` of the target tile.  With ``|dr|`` and ``|dc|`` both at least 2 the
    route holds h-line ``sr`` and v-line ``gc`` when ``dr`` and ``dc`` are
    both positive, else h-line ``gr`` and v-line ``sc``.  Otherwise it holds
    h-line ``sr`` alone when ``|dr| <= 1`` and either ``|dc| >= 2`` or
    ``dc == 1`` with ``dr <= 0``, and v-line ``sc`` alone in every other
    case (``_route_lines``).  ``TestClosedFormLines`` in the placement tests
    pins this rule to the router on every pair of tiles of small arrays."""
    if layout.model is not ChipModel.DOUBLE_DEFECT:
        raise InfeasibleError("bandwidth adjusting applies to the double-defect model only")
    if not any(layout.h_widths) and not any(layout.v_widths):
        return layout  # no width to deal: ``deal`` hands out zeros whatever the tally

    # tally conflict-free shortest routes per channel line, once per route
    h_routes = [0] * (layout.array_r + 1)
    v_routes = [0] * (layout.array_c + 1)
    tile_of = mapping.tile_of
    for gate in circuit.gates:
        h, v = _route_lines(tile_of(gate.control), tile_of(gate.target))
        if h is not None:
            h_routes[h] += 1
        if v is not None:
            v_routes[v] += 1

    def deal(total: int, routes: list[int]) -> tuple[int, ...]:
        widths = [0] * len(routes)
        bw = [layout._line_bandwidth(0)] * len(routes)
        for _ in range(total):
            i = max(range(len(widths)), key=lambda k: (routes[k] / bw[k], -k))
            widths[i] += 1
            bw[i] = layout._line_bandwidth(widths[i])
        return tuple(widths)

    return replace(layout, h_widths=deal(sum(layout.h_widths), h_routes),
                   v_widths=deal(sum(layout.v_widths), v_routes))
