"""The exhaustive oracle of the tests: the true optimal cycle count of a
tiny instance under exactly the validator's rules (``optimal_cycles``), and
exact simultaneous routability of independent tile pairs
(``routing_feasible``), against which the schedulers and the router are
checked.

Both are exhaustive by construction and guarded by an ``OracleBudget``: they
refuse an input beyond it with a ``BudgetExceededError`` rather than answer
it approximately.  The inclusion-minimal routes of a tile pair are
enumerated once per layout, pair, set of data tiles and budget, and kept in
one ``lru_cache``.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from surfc.chip import ChipLayout, ChipModel
from surfc.circuits import LogicalCircuit, build_dag
from surfc.errors import BudgetExceededError
from surfc.oracle import DEFAULT_BUDGET, OracleBudget
from surfc.placement import CutType, TileMapping
from surfc.router import Fabric, resource_capacities

Tile = tuple[int, int]


@lru_cache(maxsize=1 << 14)
def _all_minimal_routes(
    layout: ChipLayout,
    ta: Tile,
    tb: Tile,
    data_tiles: frozenset[Tile],
    budget: OracleBudget,
) -> tuple[frozenset, ...]:
    """Resource sets of every inclusion-minimal simple route between two tiles.
    A route whose resources contain another route's resources can never help a
    packing, so dropping it keeps the search exact.  Cached on every
    argument, the budget too: a pair refused under one budget is never
    answered from an enumeration under another.

    A lattice-surgery route is a set of free tiles, so only an induced path
    whose first tile alone touches ``ta`` and whose last tile alone touches
    ``tb`` can be minimal (it may be a single tile touching both); any other
    path holds the tiles of a shorter route.  Only those paths are walked."""
    fabric = Fabric(layout, data_tiles)
    adj = fabric.adj
    ls = layout.model is ChipModel.LATTICE_SURGERY
    if ls and abs(ta[0] - tb[0]) + abs(ta[1] - tb[1]) == 1:
        return (frozenset(),)
    starts = set(fabric.terminals(ta))
    goals = set(fabric.terminals(tb))
    found: list[tuple[tuple[int, ...], frozenset]] = []
    count = 0

    def resources_of(nodes: tuple[int, ...]) -> frozenset:
        return frozenset(fabric.route(nodes).resources())

    def dfs(node: int, visited: set[int], path: list[int]) -> None:
        nonlocal count
        count += 1
        if count > budget.max_routes_per_pair:
            raise BudgetExceededError("route enumeration exceeded oracle budget")
        if ls and node in goals:
            found.append((tuple(path), resources_of(tuple(path))))
            return
        for nxt, _seg in adj[node]:
            if nxt in visited:
                continue
            if ls and (nxt in starts or any(m in visited and m != node
                                            for m, _ in adj[nxt])):
                continue
            if not ls and nxt in goals:
                found.append((tuple(path + [nxt]), resources_of(tuple(path + [nxt]))))
            visited.add(nxt)
            path.append(nxt)
            dfs(nxt, visited, path)
            path.pop()
            visited.remove(nxt)

    for start in sorted(starts):
        dfs(start, {start}, [start])
    minimal: list[frozenset] = []
    for _, res in sorted(found, key=lambda fr: len(fr[1])):
        if not any(other <= res for other in minimal):
            minimal.append(res)
    return tuple(minimal)


def _simul_routable(
    layout: ChipLayout,
    pairs: list[tuple[Tile, Tile]],
    fixed_usage: dict,
    data_tiles: frozenset[Tile],
    budget: OracleBudget,
) -> bool:
    """Exact test: can all pairs be routed at once on top of fixed usage?"""
    cap = resource_capacities(layout)
    options = [_all_minimal_routes(layout, ta, tb, data_tiles, budget) for ta, tb in pairs]
    options.sort(key=len)

    def fits(res: frozenset, usage: dict) -> bool:
        return all(usage.get(r, 0) + 1 <= cap(r) for r in res)

    def dfs(idx: int, usage: dict) -> bool:
        if idx == len(options):
            return True
        for res in options[idx]:
            if fits(res, usage):
                for r in res:
                    usage[r] = usage.get(r, 0) + 1
                if dfs(idx + 1, usage):
                    return True
                for r in res:
                    usage[r] -= 1
        return False

    return dfs(0, dict(fixed_usage))


def routing_feasible(
    layout: ChipLayout,
    tile_pairs: list[tuple[Tile, Tile]],
    data_tiles: frozenset[Tile] = frozenset(),
    budget: OracleBudget = DEFAULT_BUDGET,
) -> bool:
    """Exhaustive simultaneous-routability of independent tile pairs."""
    budget.check_grid(layout.array_r, layout.array_c)
    if not tile_pairs:
        return True
    return _simul_routable(layout, tile_pairs, {}, data_tiles, budget)


def optimal_cycles(
    circuit: LogicalCircuit,
    layout: ChipLayout,
    mapping: TileMapping,
    budget: OracleBudget = DEFAULT_BUDGET,
    upper_bound: int | None = None,
) -> int:
    """Exact minimum cycle count by branch-and-bound over per-cycle action sets,
    under exactly the validator's rules (1-cycle braids/bells, 3-cycle direct
    same-cut executions holding their route, 3-cycle tile-local cut changes).
    Double-defect tiles start from the cut types that ``mapping`` carries."""
    budget.check_circuit(circuit.g, circuit.n)
    budget.check_grid(layout.array_r, layout.array_c)
    g = circuit.g
    if g == 0:
        return 0
    model = layout.model
    dag = build_dag(circuit)
    data_tiles = mapping.data_tiles(layout)
    cap = resource_capacities(layout)

    def op_tiles(v: int) -> tuple[Tile, Tile]:
        gate = circuit.gates[v]
        return (mapping.abs_tile(layout, gate.control), mapping.abs_tile(layout, gate.target))

    tiles_sorted = sorted(mapping.positions.values())
    tile_index = {tile: i for i, tile in enumerate(tiles_sorted)}
    tile_qubit = {tile: q for q, tile in mapping.positions.items()}
    init_cuts: tuple[CutType, ...] = ()  # lattice surgery has no cuts
    if model is ChipModel.DOUBLE_DEFECT:
        assert mapping.cuts is not None, "double-defect oracle needs initial cuts"
        init_cuts = tuple(mapping.cuts[tile_qubit[t]] for t in tiles_sorted)

    parents_mask = [0] * g
    for v in range(g):
        for p in dag.parents[v]:
            parents_mask[v] |= 1 << p
    gates_of_qubit: dict[int, list[int]] = {}
    for v, c, t in circuit.gates:
        gates_of_qubit.setdefault(c, []).append(v)
        gates_of_qubit.setdefault(t, []).append(v)

    full_mask = (1 << g) - 1
    if upper_bound is None:
        upper_bound = 4 * g + 4
    best = upper_bound

    def lower_bound(mask: int, inflight) -> int:
        lb = 0
        for v in range(g):
            if not mask & (1 << v):
                lb = max(lb, dag.depth_to_sink[v])
        for entry in inflight:
            if entry[0] == "d":
                lb = max(lb, entry[2] + dag.depth_to_sink[entry[1]] - 1)
            else:
                lb = max(lb, entry[2])
        return lb

    seen: dict[tuple, int] = {}

    def dfs(t: int, mask: int, cuts_t, inflight: frozenset) -> None:
        nonlocal best
        if t + lower_bound(mask, inflight) >= best:
            return
        if mask == full_mask and not inflight:
            best = t
            return
        key = (mask, cuts_t, inflight)
        prev = seen.get(key)
        if prev is not None and prev <= t:
            return
        seen[key] = t

        busy: set[Tile] = set()
        fixed_usage: dict = {}
        for entry in inflight:
            if entry[0] == "d":
                _, v, _rem, res = entry
                ta, tb = op_tiles(v)
                busy.add(ta)
                busy.add(tb)
                for r in res:
                    fixed_usage[r] = fixed_usage.get(r, 0) + 1
            else:
                _, tile, _rem, _cut = entry
                busy.add(tile)

        ready = [
            v for v in range(g)
            if not mask & (1 << v) and (parents_mask[v] & mask) == parents_mask[v]
            and not any(entry[0] == "d" and entry[1] == v for entry in inflight)
        ]
        ready = [v for v in ready if not (set(op_tiles(v)) & busy)]

        braidable = []
        same_cut = []
        for v in ready:
            if model is ChipModel.LATTICE_SURGERY:
                braidable.append(v)
            else:
                ta, tb = op_tiles(v)
                ca, cb = cuts_t[tile_index[ta]], cuts_t[tile_index[tb]]
                (braidable if ca is not cb else same_cut).append(v)

        # cut modifications worth trying: tiles whose qubit still has work
        mod_tiles: list[Tile] = []
        if model is ChipModel.DOUBLE_DEFECT:
            for tile in tiles_sorted:
                if tile in busy:
                    continue
                q = tile_qubit[tile]
                if any(not mask & (1 << w) for w in gates_of_qubit.get(q, [])):
                    mod_tiles.append(tile)

        def directs_options(v: int):
            ta, tb = op_tiles(v)
            routes = _all_minimal_routes(layout, ta, tb, data_tiles, budget)
            return [(v, res, (ta, tb)) for res in routes]

        # enumerate lasting choices: subsets of modifies and direct starts
        mod_subsets = [()]
        for k in range(1, len(mod_tiles) + 1):
            mod_subsets.extend(itertools.combinations(mod_tiles, k))

        for mods in mod_subsets:
            busy2 = busy | set(mods)
            sc_avail = [v for v in same_cut if not (set(op_tiles(v)) & busy2)]
            direct_choices: list[list] = [[]]
            for v in sc_avail:
                new_choices = []
                for chosen in direct_choices:
                    new_choices.append(chosen)  # skip v
                    taken_tiles = set()
                    for (_, _, tls) in chosen:
                        taken_tiles.update(tls)
                    if not (set(op_tiles(v)) & taken_tiles):
                        for opt in directs_options(v):
                            new_choices.append(chosen + [opt])
                direct_choices = new_choices
            for directs in direct_choices:
                usage = dict(fixed_usage)
                ok = True
                for (_v, res, _tls) in directs:
                    for r in res:
                        usage[r] = usage.get(r, 0) + 1
                        if usage[r] > cap(r):
                            ok = False
                    if not ok:
                        break
                if not ok:
                    continue
                busy3 = set(busy2)
                for (_v, _res, tls) in directs:
                    busy3.update(tls)
                cand = [v for v in braidable if not (set(op_tiles(v)) & busy3)]
                # maximal braid subsets: adding a compatible braid never hurts
                for bset in _maximal_braid_sets(cand, usage, op_tiles, layout, data_tiles, budget):
                    if not mods and not directs and not bset and not inflight:
                        continue  # pure idling with nothing in flight cannot help
                    new_mask = mask
                    for v in bset:
                        new_mask |= 1 << v
                    new_inflight = []
                    new_cuts = list(cuts_t)
                    for entry in inflight:
                        if entry[2] > 1:
                            new_inflight.append((entry[0], entry[1], entry[2] - 1, entry[3]))
                        elif entry[0] == "d":
                            new_mask |= 1 << entry[1]
                        else:
                            new_cuts[tile_index[entry[1]]] = entry[3]
                    for (v, res, _tls) in directs:
                        new_inflight.append(("d", v, 3 - 1, res))
                    for tile in mods:
                        new_cuts_val = cuts_t[tile_index[tile]].flipped
                        new_inflight.append(("m", tile, 3 - 1, new_cuts_val))
                    dfs(t + 1, new_mask, tuple(new_cuts), frozenset(new_inflight))

    had_hint = upper_bound < 4 * g + 4
    dfs(0, 0, init_cuts, frozenset())
    if not had_hint and best == 4 * g + 4:
        # 4 cycles per gate always suffice when single-gate routes exist, so
        # hitting the cap means some pair can never be routed on this mapping
        raise BudgetExceededError("instance is unschedulable: some gate has no route")
    return best


def _maximal_braid_sets(cand, usage, op_tiles, layout, data_tiles, budget):
    """All maximal subsets of candidate one-cycle gates that are simultaneously
    routable on top of ``usage``.  Route choices are existential here: a
    one-cycle route leaves no trace in the next state, and executing a strict
    superset of gates never hurts, so only maximal sets need exploring."""
    feasible: dict[frozenset, bool] = {frozenset(): True}
    by_size: list[list[frozenset]] = [[frozenset()]]
    for size in range(1, len(cand) + 1):
        layer: list[frozenset] = []
        for prev in by_size[size - 1]:
            for v in cand:
                if v in prev:
                    continue
                trial = prev | {v}
                if trial in feasible:
                    continue
                ok = _simul_routable(
                    layout, [op_tiles(w) for w in sorted(trial)],
                    usage, data_tiles, budget,
                )
                feasible[trial] = ok
                if ok:
                    layer.append(trial)
        if not layer:
            break
        by_size.append(layer)
    good = [s for s, ok in feasible.items() if ok]
    maximal = [tuple(sorted(s)) for s in good
               if not any(s < o for o, ok in feasible.items() if ok)]
    return maximal or [()]
