"""Directed acyclic multigraphs with boundary and the standard topologies.

A :class:`Quiver` has internal edges plus distinguished In and Out boundary
edges; all edge ids share one namespace. Constructors assign dense integer
vertex and edge ids deterministically: the In edge gets id 0, internal edges
follow in construction order, and Out edges get the highest ids in
left-to-right observable order (so sorting Out edges by id yields sequence
position order).

Everything a contraction needs to know about the graph alone (the layers
of :func:`topological_layers`, tree test, Out positions, and the schedules
compiled from them) is kept in one :class:`Plan`, cached on the immutable
quiver; every module, the dense reference included, reads the layers there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import CycleError


@dataclass(frozen=True)
class Quiver:
    """Directed multigraph with boundary.

    ``source`` is total on internal and Out edges, ``target`` on internal
    and In edges. Acyclicity of the internal-edge graph is not checked at
    construction; it is established by :func:`topological_layers`.
    """

    vertices: tuple[int, ...]
    internal_edges: tuple[int, ...]
    in_edges: tuple[int, ...]
    out_edges: tuple[int, ...]
    source: Mapping[int, int]
    target: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "internal_edges", tuple(sorted(self.internal_edges)))
        object.__setattr__(self, "in_edges", tuple(sorted(self.in_edges)))
        object.__setattr__(self, "out_edges", tuple(sorted(self.out_edges)))
        object.__setattr__(self, "source", dict(self.source))
        object.__setattr__(self, "target", dict(self.target))
        self._check()

    def _check(self):
        for what, ids in (("vertex", self.vertices), ("internal edge", self.internal_edges),
                          ("In edge", self.in_edges), ("Out edge", self.out_edges)):
            # the ids are sorted, so a repeat sits next to itself
            repeated = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
            if repeated is not None:
                raise ValueError(f"{what} {repeated} is repeated")
        internal = set(self.internal_edges)
        ins = set(self.in_edges)
        outs = set(self.out_edges)
        if (internal & ins) or (internal & outs) or (ins & outs):
            raise ValueError("internal, In and Out edge id sets must be disjoint")
        vs = set(self.vertices)
        for e in self.internal_edges + self.out_edges:
            if e not in self.source or self.source[e] not in vs:
                raise ValueError(f"edge {e} lacks a valid source vertex")
        for e in self.internal_edges + self.in_edges:
            if e not in self.target or self.target[e] not in vs:
                raise ValueError(f"edge {e} lacks a valid target vertex")
        # the vertex adjacency below is read off these maps
        stray = (set(self.source) - internal - outs) | (set(self.target) - internal - ins)
        if stray:
            raise ValueError(f"edges {sorted(stray)} have an endpoint their role does not allow")
        incident = set(self.source.values()) | set(self.target.values())
        if vs - incident:
            raise ValueError(f"vertices {sorted(vs - incident)} have no incident edge")
        in_by_v: dict[int, list[int]] = {v: [] for v in self.vertices}
        out_by_v: dict[int, list[int]] = {v: [] for v in self.vertices}
        for e in sorted(self.target):
            in_by_v[self.target[e]].append(e)
        for e in sorted(self.source):
            out_by_v[self.source[e]].append(e)
        object.__setattr__(self, "_in_by_v", {v: tuple(es) for v, es in in_by_v.items()})
        object.__setattr__(self, "_out_by_v", {v: tuple(es) for v, es in out_by_v.items()})

    def vertex_in_edges(self, v: int) -> tuple[int, ...]:
        """Edges (internal or In) targeting ``v``, sorted by edge id."""
        return self._in_by_v[v]

    def vertex_out_edges(self, v: int) -> tuple[int, ...]:
        """Edges (internal or Out) sourced at ``v``, sorted by edge id."""
        return self._out_by_v[v]

    @property
    def plan(self) -> "Plan":
        """The contraction plan, built on first use and then reused.

        Built lazily because a quiver may be cyclic at construction; the
        CycleError surfaces on first use and nothing is cached then.
        """
        plan = self.__dict__.get("_plan")
        if plan is None:
            plan = _build_plan(self)
            object.__setattr__(self, "_plan", plan)
        return plan


def topological_layers(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """Slice a quiver into layers by longest path from the In side.

    Returns one tuple of vertices per layer, the source side (fed by In)
    first. Vertices with no incoming internal edge form the first layer;
    every internal edge then points from an earlier layer to a strictly
    later one. Ordering within a layer is by vertex id, so the result is
    deterministic. Raises CycleError (listing one offending edge sequence)
    if the internal edges contain a directed cycle.
    """
    preds: dict[int, list[int]] = {v: [] for v in q.vertices}
    succs: dict[int, list[int]] = {v: [] for v in q.vertices}
    for e in q.internal_edges:
        preds[q.target[e]].append(q.source[e])
        succs[q.source[e]].append(q.target[e])

    depth: dict[int, int] = {}
    indegree = {v: len(preds[v]) for v in q.vertices}
    frontier = [v for v in q.vertices if indegree[v] == 0]
    order = 0
    while frontier:
        nxt = []
        for v in frontier:
            depth[v] = max((depth[p] + 1 for p in preds[v] if p in depth), default=0)
            order += 1
            for s in succs[v]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    nxt.append(s)
        frontier = sorted(nxt)
    if order < len(q.vertices):
        cycle = _find_cycle(q, set(depth))
        raise CycleError(f"internal edges contain a directed cycle: {cycle}", cycle)

    n_layers = max(depth.values()) + 1 if depth else 0
    layers = [[] for _ in range(n_layers)]
    for v in sorted(q.vertices):
        layers[depth[v]].append(v)
    return tuple(map(tuple, layers))


@dataclass(frozen=True)
class Plan:
    """Graph-only data shared by every contraction of one quiver.

    ``layers`` is :func:`topological_layers` of the quiver. ``paths``
    caches the contraction schedules :mod:`isotn.network` compiles for this
    quiver, keyed by edge dimensions and leg roles, ``groups`` its vertices
    grouped by tensor shape, keyed by edge dimensions, and ``tree_steps``
    the tree sampler's steps (:mod:`isotn.sampling`).
    """

    layers: tuple[tuple[int, ...], ...]
    is_tree: bool
    out_position: Mapping[int, int]
    paths: dict = field(default_factory=dict, compare=False, repr=False)
    groups: dict = field(default_factory=dict, compare=False, repr=False)
    tree_steps: dict = field(default_factory=dict, compare=False, repr=False)


def _build_plan(q: Quiver) -> Plan:
    """Compile the plan of ``q``; callers use the cached ``q.plan``."""
    return Plan(topological_layers(q), is_tree(q), {e: p for p, e in enumerate(q.out_edges)})


def _find_cycle(q: Quiver, resolved: set[int]) -> tuple[int, ...]:
    """Walk unresolved vertices along internal edges until one repeats."""
    seen: dict[int, int] = {}
    path: list[int] = []
    v = next(v for v in q.vertices if v not in resolved)
    while v not in seen:
        seen[v] = len(path)
        # Out edges have no target
        e = next(e for e in q.vertex_out_edges(v) if e in q.target and q.target[e] not in resolved)
        path.append(e)
        v = q.target[e]
    return tuple(path[seen[v]:])


def build_chain(n: int) -> Quiver:
    """Directed line of ``n`` vertices, each emitting one observable edge.

    The single In edge attaches at vertex 0 and the bond flows toward the
    last vertex, which emits only its observable.
    """
    if n < 1:
        raise ValueError(f"chain length must be positive, got {n}")
    vertices = tuple(range(n))
    source: dict[int, int] = {}
    target: dict[int, int] = {0: 0}
    internal = []
    for k in range(n - 1):
        e = 1 + k
        internal.append(e)
        source[e] = k
        target[e] = k + 1
    out_base = n
    outs = []
    for k in range(n):
        e = out_base + k
        outs.append(e)
        source[e] = k
    return Quiver(vertices, tuple(internal), (0,), tuple(outs), source, target)


def _require_power_of_two(n: int, minimum: int) -> int:
    if n < minimum or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= {minimum}, got {n}")
    return n.bit_length() - 1


def build_binary_tree(n: int) -> Quiver:
    """Perfect binary tree with ``n`` leaves (Out edges) and one In edge.

    Vertices are numbered in breadth-first order from the root; there are
    n-1 of them and n-2 internal edges.
    """
    return _binary_rows(n, disentangle=False)


def build_mera(n: int) -> Quiver:
    """Binary tree interlaced with two-in two-out disentangler vertices.

    After each tree layer of width >= 4, a disentangler straddles the
    boundary between every adjacent pair of sibling blocks, i.e. it acts on
    wire pair (4j+1, 4j+2) of that row; no disentangler wraps around the
    open boundary. For n = 2 there is no room for disentanglers and the
    result equals ``build_binary_tree(2)``.
    """
    return _binary_rows(n, disentangle=True)


def _binary_rows(n: int, disentangle: bool) -> Quiver:
    """Grow a binary tree from the root one row of wires at a time, each
    row followed by its disentanglers when ``disentangle`` is set."""
    depth = _require_power_of_two(n, 2)
    # a wire is the vertex it leaves; edge ids follow the running count of
    # edges placed, 0 being the In edge
    source: dict[int, int] = {}
    target: dict[int, int] = {0: 0}
    n_vertices = 0

    def new_vertex(inputs: Iterable[int]) -> int:
        nonlocal n_vertices
        v, n_vertices = n_vertices, n_vertices + 1
        for src in inputs:
            e = len(source) + 1
            source[e], target[e] = src, v
        return v

    root = new_vertex(())
    row = [root, root]
    for _ in range(depth - 1):
        new_row: list[int] = []
        for w in row:
            v = new_vertex((w,))
            new_row += [v, v]
        row = new_row
        for j in range(len(row) // 4 if disentangle else 0):
            a, b = 4 * j + 1, 4 * j + 2
            row[a] = row[b] = new_vertex((row[a], row[b]))

    internal = tuple(source)
    outs = tuple(range(len(internal) + 1, len(internal) + 1 + len(row)))
    source.update(zip(outs, row))
    return Quiver(tuple(range(n_vertices)), internal, (0,), outs, source, target)


def is_tree(q: Quiver) -> bool:
    """True iff every vertex has exactly one incoming (internal or In) edge.

    Together with acyclicity this makes the quiver a forest rooted at the
    In-edge targets; with a single In edge, a directed tree.
    """
    return all(len(q.vertex_in_edges(v)) == 1 for v in q.vertices)
