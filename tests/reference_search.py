"""The reference route search of the tests: a breadth-first search with a
FIFO queue and a parent dict, against which the router's level search and
its one-hop reads on masks are checked; and the resource ids of a route
derived from its nodes, against which the ids the search records are
checked."""
from __future__ import annotations

from collections import deque

from surfc.chip import ChipModel


def res_id(fabric, res) -> int:
    """The id on ``fabric`` of the tuple resource ``res`` of
    ``RoutePath.resources``."""
    kind, i, j = res
    n = i * fabric.cols + j
    if kind == "h":
        return fabric.nodes + n
    if kind == "v":
        return 2 * fabric.nodes + n
    return n


def resource_ids(fabric, path) -> list[int]:
    """The ids of ``path.resources()``, in that order: the node ids, then
    (double defect) the ids of the segments between them.  Computed from
    ``path.nodes`` alone."""
    cols = fabric.cols
    nodes = path.nodes
    ids = [r * cols + c for r, c in nodes]
    if fabric.model is ChipModel.DOUBLE_DEFECT:
        h0, v0 = fabric.nodes, 2 * fabric.nodes
        for (i1, j1), (i2, j2) in zip(nodes, nodes[1:]):
            if i1 == i2:
                ids.append(h0 + i1 * cols + (j1 if j1 < j2 else j2))
            else:
                ids.append(v0 + (i1 if i1 < i2 else i2) * cols + j1)
    return ids


def rooted_bfs(fabric, starts, usage=None, goals=()):
    """Breadth-first search on ``fabric`` from the node ids ``starts``, in
    that order, expanding neighbours in ``fabric.adj`` order.  Every node
    keeps the start it was reached from, and a goal is an end only when met
    from another start, as a route may not end where it starts.

    Returns ``(parent, end)``: ``parent`` maps each reached node to its
    predecessor (None for a start), in visit order; ``end`` is
    ``(goal, predecessor)`` for the first end met, else None.  With
    ``usage``, a segment or node whose use has reached its capacity is a
    wall; without it, nothing is."""
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


def trace_back(parent, end) -> tuple[int, ...]:
    """The node path from a start to ``end``'s goal."""
    goal, back = end
    path = [goal]
    while back is not None:
        path.append(back)
        back = parent[back]
    return tuple(reversed(path))
