"""Brute-force graph and SAT oracles.

Everything here is the slow, obviously-correct route: union-find rebuilt
from scratch, BFS all-pairs distances, Edmonds-Karp flow, iterative Tarjan.
The reduction decoders, `RebuildConnectivityOracle`, the min-cut brute
force and the --check paths lean on these. The dynamic structures are the
fast route and check against this module rather than call it; the two
exceptions pick their initial greedy forest with `UnionFind`:
`forest.DynamicForest.build` and `connectivity.ForestConnectivityOracle`.
"""

from __future__ import annotations

from collections import deque


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        # both roots found inline, each path compressed as `find` does
        parent = self.parent
        ra = a
        while parent[ra] != ra:
            ra = parent[ra]
        while parent[a] != ra:
            parent[a], a = ra, parent[a]
        rb = b
        while parent[rb] != rb:
            rb = parent[rb]
        while parent[b] != rb:
            parent[b], b = rb, parent[b]
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def components(n: int, edges) -> list[int]:
    """Component label per node (label = smallest member id)."""
    uf = UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    label: dict[int, int] = {}
    out = []
    for v in range(n):
        root = uf.find(v)
        if root not in label or v < label[root]:
            label.setdefault(root, v)
    for v in range(n):
        out.append(label[uf.find(v)])
    return out


def component_count(n: int, edges) -> int:
    uf = UnionFind(n)
    merges = sum(1 for u, v in edges if uf.union(u, v))
    return n - merges


def is_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    return component_count(n, edges) == 1


def bfs_dist(n: int, adj, src: int) -> list[float]:
    dist = [float("inf")] * n
    dist[src] = 0
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for w in adj[u]:
            if dist[w] == float("inf"):
                dist[w] = dist[u] + 1
                dq.append(w)
    return dist


def undirected_adj(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def diameter(n: int, edges) -> float:
    """Longest shortest path; inf when disconnected; 0 for n <= 1."""
    if n <= 1:
        return 0
    adj = undirected_adj(n, edges)
    best = 0.0
    for src in range(n):
        best = max(best, max(bfs_dist(n, adj, src)))
    return best


def reachable_from(n: int, arcs, src: int) -> set[int]:
    adj = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append(v)
    seen = {src}
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                dq.append(w)
    return seen


def scc_count(n: int, arcs) -> int:
    """Tarjan, iterative to dodge the recursion limit."""
    adj = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append(v)
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    counter = 1  # 0 means unvisited
    count = 0
    for start in range(n):
        if visited[start]:
            continue
        work = [(start, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                visited[v] = True
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recursed = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if not visited[w]:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    recursed = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recursed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                count += 1
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    if w == v:
                        break
    return count


def max_flow(num_nodes: int, capacities: dict[tuple[int, int], int], s: int, t: int):
    """Edmonds-Karp. Returns (value, source-side node set of a min cut)."""
    residual: dict[int, dict[int, int]] = {v: {} for v in range(num_nodes)}
    for (u, v), cap in capacities.items():
        residual[u][v] = residual[u].get(v, 0) + cap
        residual[v].setdefault(u, 0)
    value = 0
    while True:
        parent = {s: None}
        dq = deque([s])
        while dq and t not in parent:
            u = dq.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    dq.append(v)
        if t not in parent:
            break
        bottleneck = float("inf")
        v = t
        while parent[v] is not None:
            u = parent[v]
            bottleneck = min(bottleneck, residual[u][v])
            v = u
        v = t
        while parent[v] is not None:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        value += bottleneck
    side = {s}
    dq = deque([s])
    while dq:
        u = dq.popleft()
        for v, cap in residual[u].items():
            if cap > 0 and v not in side:
                side.add(v)
                dq.append(v)
    return value, side


def sat_bruteforce(num_vars: int, clauses) -> bool:
    """Exhaustive CNF satisfiability over all 2^n assignments at once.

    Bit a of a mask stands for the assignment that sets variable v+1 to
    bit v of a; each clause is the OR of its literals' masks and the
    formula the AND of its clauses.

    clauses: iterable of tuples of nonzero 1-based signed literals.
    """
    if num_vars > 26:
        raise ValueError("exhaustive SAT capped at 26 variables")
    total = 1 << num_vars
    everything = (1 << total) - 1
    masks = []
    for v in range(num_vars):
        half = 1 << v
        mask, width = ((1 << half) - 1) << half, 2 * half
        while width < total:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    alive = everything
    for cl in clauses:
        sat = 0
        for lit in cl:
            mask = masks[abs(lit) - 1]
            sat |= mask if lit > 0 else everything ^ mask
        alive &= sat
        if not alive:
            return False
    return True
