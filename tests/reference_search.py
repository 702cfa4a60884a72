"""The reference route search of the tests: a breadth-first search with a
FIFO queue and a parent dict, against which the router's level search and
its one-hop reads on masks are checked."""
from __future__ import annotations

from collections import deque


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
