"""Decorated tensor networks and their contraction.

A :class:`TensorNetwork` is a quiver whose edges carry dimensions and whose
vertices carry isometric tensors. The canonical axis order at a vertex is
its incoming edges sorted by edge id followed by its outgoing edges sorted
by edge id; every contraction and the serialization format rely on this one
convention.

The tensors are stored stacked: vertices whose tensors share a shape and
split form a group (:func:`group_vertices`), cut into runs of at most
:data:`GROUP_BYTES`, and a network holds one frozen (k, *shape) array per
run. ``vertex_tensor[v]`` is a view of its run, and ``vertex_tensor`` (a
:class:`VertexStacks`) and ``edge_dim`` are read-only, so a network keeps
the tensors and dims it was checked with. The Riemannian geometry reads
and writes whole runs: the gradient, the tangent and the retraction are
stacked the same way. A mapping of tensors is always copied into fresh
runs; :meth:`TensorNetwork.from_runs` takes whole runs as the storage, and
it is the one way in for every producer of runs: a random draw
(:func:`random_tensors` fills fresh runs vertex by vertex), a retraction's
polar-factor stacks and a loaded model file. Either way every run is
checked once, by one path, against one fixed tolerance
(:data:`~isotn.tensor_core.DEFAULT_ISOMETRY_TOL`) that neither a caller nor
a model file can change.

This module holds the runtime kernels only. The dense layer-map path
(full evaluation, the state, the operator flow) is the reference they are
tested against, and lives in :mod:`isotn.dense`, which nothing here
imports.

Every contraction runs one compiled path: a greedy pairwise order over
items (:func:`_compile`), built once per quiver, edge dims and leg roles
and cached on the quiver's :class:`~isotn.graph.Plan`. On the ket network
(:func:`contract`) it gathers each Out leg at every row's symbol of a
(B, n) array and gives B amplitudes at once; :func:`environments` runs it
backwards and folds the batch's weighted vertex environments into one
tensor per vertex, which is what the likelihood gradient needs. On the
doubled (ket-bra) network (:func:`_doubled`) it gives expectations of
site-operator products, site marginals with any legs open (one for a
marginal, two for a pair's joint) and, with a prefix gathered, the
sampler's conditionals on DAGs that are not trees. Vertices outside the
causal cone of the operators, open and gathered legs drop out before
compiling, so the cost follows the cone, not the state.

Each item a path makes is numbered by how it is made, not by its place in
the path: a leaf by its spec, a step's item by the triple (operand a,
operand b, step), one id per quiver and edge dims, so equal items of
different paths share an id. Several paths then run as one merged
schedule (:func:`_merge`) that makes each leaf and each shared item once
and drops each after its last use; a single path is the one-member case
of the same executor (:func:`_execute`). All the pair joints of a
mutual-information curve come from one such schedule (``site_marginal``
given a list of positions). Every operand's shape is known when a path
is compiled, so a transpose or reshape that would change nothing is
compiled to None and skipped.

A schedule without rows runs its like small steps as one matmul
(:func:`_stack`, compiled once per schedule at its first run). A step
whose operands and item each hold at most :data:`STACK_BYTES` runs as
late as the steps reading its item allow; three or more such steps that
land together with one spec and operand shapes form a :class:`Group`,
whose items live in slots of one stack per shape, and run as one gather
per operand side, one stacked matmul and one scatter of the items. Every
other step runs alone, as before. The benchmark's chain curve (n=32,
w=2, D=4, l_max=16) runs its 992 steps in 156 calls and the tree's
(D=8) 782 steps in 56, each pair joint bit for bit as step by step;
schedules of large items, such as w=27 curves, stack nothing.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import IsometryImpossibleError, ShapeError, _brief_value
from .graph import (
    Quiver,
    build_binary_tree,
    build_chain,
    build_mera,
)
from .tensor_core import (
    DEFAULT_ISOMETRY_TOL,
    IndexSplit,
    as_stack,
    isometry_violation,
    matrix_dims,
    random_isometries,
)

# A sequence state is one symbol index per Out edge, in canonical
# (sorted-by-edge-id) Out order.
SequenceState = tuple[int, ...]

# The most bytes of tensors one run of a shape group stacks. Runs of this
# size stay in cache, which made them the fastest on chain and tree steps,
# and they keep a training step's peak memory level with a loop over
# single vertices.
GROUP_BYTES = 2**18

# The most bytes each operand and the product of a step may hold for the
# step to run stacked with like steps (:func:`_stack`): about what numpy
# copies in the ~2 µs overhead of one call, so stacking smaller steps saves
# calls and stacking larger ones only adds copies.
STACK_BYTES = 2**14

# The most bytes one side of a stacked matmul (the operands it takes, or
# the items it makes) may hold. Larger arrays come from fresh pages of the
# C allocator on each run, and their page faults cost more than the calls
# they save (~500 faults a tree curve at 2**18).
GATHER_BYTES = 2**17


class VertexStacks(dict):
    """A read-only {vertex: array} dict over one (k, ...) array per run of a
    network's shape groups (``runs``), each value a view of its run's array;
    code that works run by run reads a run's array through :meth:`run`."""

    def __init__(self, groups: tuple, runs: Sequence[np.ndarray], vertices: Iterable[int]):
        members = {v: m for (verts, _, _), run in zip(groups, runs) for v, m in zip(verts, run)}
        super().__init__((v, members[v]) for v in vertices)
        self.groups, self.runs = groups, tuple(runs)

    def run(self, groups: tuple, j: int) -> np.ndarray | None:
        """The array of run ``j`` of ``groups`` if they are this dict's groups, else None."""
        return self.runs[j] if groups is self.groups else None

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only: make a new network or mapping instead")

    __setitem__ = __delitem__ = update = pop = popitem = clear = setdefault = __ior__ = _read_only


class _Runs(tuple):
    """Runs handed to :meth:`TensorNetwork.from_runs`: taken, not copied."""


@dataclass(frozen=True, eq=False, repr=False)
class TensorNetwork:
    """Quiver + edge dimensions + isometric vertex tensors.

    The tensors are held as one frozen (k, *shape) complex array per run of
    :meth:`shape_groups` (:meth:`runs`), and ``vertex_tensor[v]`` is a view of
    its run; ``vertex_tensor`` and ``edge_dim`` are read-only mappings.
    Tensors given as a mapping are always copied into fresh runs, one
    ``np.array`` per run; :meth:`from_runs` takes whole runs as they are.
    Either way the edge dims are checked, and the runs once each, by
    :meth:`_check`, against :data:`~isotn.tensor_core.DEFAULT_ISOMETRY_TOL`.
    Two networks are equal only if they are the same object, and the repr
    does not print the tensors.
    """

    quiver: Quiver
    edge_dim: Mapping[int, int]
    vertex_tensor: Mapping[int, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "edge_dim", MappingProxyType(dict(self.edge_dim)))
        # the key of this network's compiled paths and shape groups on its quiver's plan
        object.__setattr__(self, "_dims", tuple(sorted(self.edge_dim.items())))
        q, tensors = self.quiver, self.vertex_tensor
        for e in set(q.internal_edges) | set(q.in_edges) | set(q.out_edges):
            d = self.edge_dim.get(e)
            if d is None or d < 1:
                raise ShapeError(f"edge {e} has no positive dimension assigned")
        if not isinstance(tensors, _Runs):
            for v in q.vertices:
                if v not in tensors:
                    raise ShapeError(f"vertex {v} has no tensor assigned")
                if np.shape(tensors[v]) != self.vertex_shape(v):
                    raise ShapeError(
                        f"vertex {v} tensor shape {np.shape(tensors[v])} does not match incident "
                        f"edge dims {self.vertex_shape(v)}"
                    )
            tensors = [np.array([tensors[v] for v in verts], dtype=np.complex128)
                       for verts, _, _ in self.shape_groups()]
        self._check(tensors)

    @classmethod
    def from_runs(cls, quiver: Quiver, edge_dim: Mapping[int, int],
                  runs: Sequence[np.ndarray]) -> "TensorNetwork":
        """The network whose tensors are ``runs``, one (k, *shape) array per
        run of :func:`group_vertices` of ``quiver`` and ``edge_dim``: taken as
        they are, with no per-vertex copy, and checked as the constructor
        checks a mapping. The caller hands the arrays over and no longer
        writes to them."""
        return cls(quiver, edge_dim, _Runs(runs))

    def _check(self, runs: Sequence[np.ndarray]) -> None:
        """Check ``runs``, one (k, *shape) array per run of :meth:`shape_groups`,
        and take them, frozen, as this network's tensors.

        Each run is checked once, on its whole array: its shape, that its
        shape admits an isometry, and each member's isometry violation. A NaN
        or infinite entry makes its member's violation NaN or infinite, so
        only then are the entries scanned, to name the vertex. An impossible
        shape anywhere fires first; of the tolerance failures, the first
        vertex in vertex order is named.
        """
        groups = self.shape_groups()
        if len(runs) != len(groups):
            raise ShapeError(f"{len(runs)} tensor runs given for {len(groups)} shape groups")
        runs = [np.ascontiguousarray(run, dtype=np.complex128) for run in runs]
        for (verts, shape, split), run in zip(groups, runs):
            if run.shape != (len(verts),) + shape:
                raise ShapeError(f"vertex {verts[0]}: run of shape {run.shape} does not hold "
                                 f"{len(verts)} tensors of shape {shape}")
            out_dim, in_dim = matrix_dims(shape, split)
            if in_dim > out_dim:
                raise IsometryImpossibleError(
                    f"vertex {verts[0]}: incoming dimension {in_dim} exceeds outgoing {out_dim}"
                )
        violation = {}
        for (verts, _, split), run in zip(groups, runs):
            worst = isometry_violation(run, split)
            if not np.isfinite(worst).all():  # a NaN or Inf entry, or squares beyond the float range
                finite = np.isfinite(run).reshape(len(verts), -1).all(axis=1)
                if not finite.all():
                    raise ShapeError(f"vertex {verts[int(np.argmin(finite))]}: tensor entries must be "
                                     f"finite (found NaN or Inf)")
            violation.update(zip(verts, worst.tolist()))
        for v in self.quiver.vertices:
            if not violation[v] <= DEFAULT_ISOMETRY_TOL:
                raise ValueError(
                    f"vertex {v} tensor is not isometric "
                    f"(violation {violation[v]:.3e} > tol {DEFAULT_ISOMETRY_TOL:g})"
                )
        for run in runs:
            run.setflags(write=False)
        object.__setattr__(self, "vertex_tensor", self.by_vertex(runs))
        object.__setattr__(self, "_max_violation", max(violation.values(), default=0.0))

    def vertex_shape(self, v: int) -> tuple[int, ...]:
        return _vertex_shape(self.quiver, self.edge_dim, v)

    def vertex_split(self, v: int) -> IndexSplit:
        return _vertex_split(self.quiver, v)

    @property
    def n_sites(self) -> int:
        return len(self.quiver.out_edges)

    @property
    def site_dims(self) -> tuple[int, ...]:
        """Out-edge dimensions in canonical (sequence position) order."""
        return tuple(self.edge_dim[e] for e in self.quiver.out_edges)

    def with_tensors(self, tensors: Mapping[int, np.ndarray]) -> "TensorNetwork":
        """Same quiver and dims with replaced vertex tensors, copied into fresh
        runs and revalidated."""
        return TensorNetwork(self.quiver, self.edge_dim, tensors)

    def runs(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], IndexSplit, np.ndarray], ...]:
        """(vertices, shape, split, tensors) for each run of :meth:`shape_groups`,
        where ``tensors`` is the run's frozen (k, *shape) array."""
        return tuple((*group, run) for group, run in zip(self.shape_groups(), self.vertex_tensor.runs))

    def by_vertex(self, runs: Sequence[np.ndarray]) -> VertexStacks:
        """{v: v's member of its run's array} in vertex order, for ``runs`` one
        (k, ...) array per run of :meth:`shape_groups`."""
        return VertexStacks(self.shape_groups(), runs, self.quiver.vertices)

    def max_isometry_violation(self) -> float:
        """max over vertices of ‖M†M − I‖_max, computed once at construction."""
        return self._max_violation

    def shape_groups(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], IndexSplit], ...]:
        """:func:`group_vertices` of this network's quiver and edge dims."""
        return self.quiver.plan.groups.get(self._dims) or group_vertices(self.quiver, self.edge_dim)


def _vertex_shape(q: Quiver, edge_dim: Mapping[int, int], v: int) -> tuple[int, ...]:
    """The dims of vertex ``v``'s legs in canonical order: In edges, then Out."""
    return tuple(edge_dim[e] for e in q.vertex_in_edges(v) + q.vertex_out_edges(v))


def _vertex_split(q: Quiver, v: int) -> IndexSplit:
    n_in = len(q.vertex_in_edges(v))
    return IndexSplit(tuple(range(n_in)), tuple(range(n_in, n_in + len(q.vertex_out_edges(v)))))


def group_vertices(
    q: Quiver, edge_dim: Mapping[int, int]
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], IndexSplit], ...]:
    """(vertices, shape, split) for each group of vertices whose tensors share
    one shape and split, in order of their first vertex, cached on the
    quiver's plan by edge dims.

    A group is cut into runs of at most :data:`GROUP_BYTES` of tensors (one
    vertex if its tensor alone is larger), so a run's array, or a batched
    computation on it, adds little to the network's memory.
    """
    groups, key = q.plan.groups, tuple(sorted(edge_dim.items()))
    if key not in groups:
        by_shape = defaultdict(list)
        for v in q.vertices:
            by_shape[_vertex_shape(q, edge_dim, v), _vertex_split(q, v)].append(v)
        runs = []
        for (shape, split), vs in by_shape.items():
            k = max(1, GROUP_BYTES // (16 * math.prod(shape)))
            runs += [(tuple(vs[i:i + k]), shape, split) for i in range(0, len(vs), k)]
        groups[key] = tuple(runs)
    return groups[key]


def _require_model(net: TensorNetwork) -> int:
    """A statistical model has exactly one In edge of dimension 1."""
    ins = net.quiver.in_edges
    if len(ins) != 1 or net.edge_dim[ins[0]] != 1:
        raise ValueError("network is not a pure-state model (need one In edge of dimension 1)")
    return ins[0]


# ------------------------------------------------------------------
# sequence amplitudes
# ------------------------------------------------------------------

def whole_number(x, what: str, where: str = "") -> int:
    """``x`` as an int if it is a finite whole number (``2.0`` passes), else a
    ValueError "<what> <x><where> is not a finite whole number", with x as
    :func:`~isotn.errors._brief_value` shows it."""
    if type(x) is int:
        return x
    try:
        if x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} {_brief_value(x)}{where} is not a finite whole number")


def whole_array(values, what: str, where: str = "") -> np.ndarray:
    """``values`` as an int64 array; unless they are integers, each is read by :func:`whole_number`."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        arr = np.array([whole_number(x, what, where) for x in arr.ravel().tolist()]).reshape(arr.shape)
    big = arr.dtype.kind != "i" and (arr >= 2**63) | (arr < -2**63)  # the cast would wrap them
    if np.any(big):
        value = _brief_value(arr.ravel()[np.argmax(big.ravel())])
        raise ValueError(f"{what} {value}{where} does not fit in int64")
    return arr.astype(np.int64, copy=False)


def sequence_array(
    net: TensorNetwork, rows: Sequence[Sequence[int]], length: int | None = None
) -> np.ndarray:
    """Validate rows of symbols at once and return them as a (B, k) int64 array.

    A row is a whole sequence or, given ``length``, a prefix of that length.
    Each symbol must be a whole number (``2.0`` passes, ``0.5`` and NaN do
    not) within its site's dimension; the first bad one raises a ValueError
    naming its position.
    """
    dims = np.asarray(net.site_dims)
    k = dims.size if length is None else length
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged rows
        arr = None
    if (arr is not None and arr.dtype.kind in "iu" and arr.ndim == 2 and arr.shape[1] == k
            and len(arr) and np.all((arr >= 0) & (arr < dims[:k]))):
        return arr.astype(np.int64, copy=False)
    noun = "symbol index" if length is None else "prefix symbol"
    for row in rows:
        if len(row) != k:
            raise ValueError(f"sequence length {len(row)} != number of sites {k}")
        for pos, (x, d) in enumerate(zip(row, dims)):
            x = whole_number(x, noun, f" at position {pos}")
            if not 0 <= x < d:
                raise ValueError(f"{noun} {x} at position {pos} outside [0,{d})")
    if arr is None or arr.ndim != 2 or not len(arr):
        raise ValueError("sequences must form a nonempty (count, sites) table")
    return arr.astype(np.int64)


def amplitude(net: TensorNetwork, sequence: Sequence[int]) -> complex:
    """The coefficient of basis sequence ``s`` in the network state."""
    return complex(amplitudes(net, [sequence])[0])


def amplitudes(net: TensorNetwork, sequences: Sequence[Sequence[int]]) -> np.ndarray:
    """Amplitudes of a batch of basis sequences, as a complex (B,) array,
    from one batched run of the network's compiled path (:func:`contract`)."""
    _require_model(net)
    return contract(net, sequence_array(net, sequences))


class Step(NamedTuple):
    """One step of a compiled schedule (:func:`_path`): item c made from items
    a and b by one matmul, as ``spec`` (:func:`_compile`) says; ``make``
    lists the (id, spec) of the leaves made just before it, ``done`` the
    items dropped after it."""

    a: int
    b: int
    c: int
    spec: tuple
    make: tuple
    done: tuple


class Group(NamedTuple):
    """Like small steps of a schedule run as one matmul (:func:`_stack`).

    ``a``, ``b`` and ``c`` are (stack, slots): member m reads its operands
    from slot ``a[1][m]`` and ``b[1][m]`` of their stacks and writes its
    item to slot ``c[1][m]``; slots are an index array, or a slice where
    they are consecutive. ``spec`` is (lperm, lshape, rperm, rshape, shape)
    of the members' step spec with the stack axis in front. ``make`` and
    ``done`` are a step's, for plain arrays; ``load`` lists the (item,
    stack, slot) of the plain arrays copied into their slots first, and
    ``show`` those of the items a step or a result reads as plain arrays
    after it.
    """

    spec: tuple
    a: tuple
    b: tuple
    c: tuple
    make: tuple
    load: tuple
    show: tuple
    done: tuple


class Schedule(tuple):
    """A compiled schedule, the pair (steps, results) of :func:`_path`, and
    ``plan``, the (runs, stacks) :func:`_execute` runs it by
    (:func:`_stack`), compiled at its first run."""

    @functools.cached_property
    def plan(self) -> tuple[tuple, tuple]:
        return _stack(*self)


def _path(net: TensorNetwork, key: tuple | None = None) -> Schedule:
    """The compiled schedule of ``net`` for ``key``, cached on its quiver's
    plan by edge dims and key: None is the ket network, and (ops, opened,
    k) the doubled network (:func:`_doubled_path`) with operators at the
    sorted positions ``ops`` and the first k positions gathered, one member
    per tuple of open positions in ``opened``, every member's path merged
    into one schedule (:func:`_merge`).

    A schedule is (steps, results), each step a :class:`Step`. Step (a, b,
    c, spec, make, done) makes item c from items a and b as
    :func:`_compile` says; ``make`` lists the (id, spec) of the leaves it
    uses first, made just before it, and ``done`` the operands it uses for
    the last time. Each result is (item, axes), one per member; an item
    named by a leaf spec is a path of no steps. A leaf is numbered by its
    spec and a step's item by how it is made, the triple (a, b, spec): one
    id for all the paths of those dims, so equal items of different paths
    have one id, and equal parts are stored once.
    """
    by_key, parts, made = net.quiver.plan.paths.setdefault(net._dims, ({}, {}, {}))
    if key not in by_key:
        share = lambda t: parts.setdefault(t, t) if isinstance(t, tuple) else t
        if key is not None and len(key[1]) > 1:
            ops, opened, k = key
            members = [_path(net, (ops, (p,), k)) for p in opened]
        else:
            if key is None:  # the ket network, every Out leg gathered: one amplitude per row
                leaves = {v: _leaf(net, v, range(net.n_sites)) for v in net.quiver.vertices}
                steps, final, axes = _compile(leaves, {**net.edge_dim, _ROWS: 1}, (_ROWS,))
            else:
                ops, (p,), k = key
                steps, final, axes = _doubled_path(net, _roles(net.n_sites, ops, p, k))
            ids, made_here = {}, []
            for a, b, c, spec in steps:  # in one path each leaf is used once
                used = [share(i) for i in (a, b) if type(i) is tuple]
                make = share(tuple(share((made.setdefault(leaf, len(made)), leaf)) for leaf in used))
                ids.update((leaf, i) for i, leaf in make)
                a, b, spec = item = (ids.get(a, a), ids.get(b, b), share(spec))
                ids[c] = made.setdefault(item, len(made))
                made_here.append(Step(a, b, ids[c], spec, make, ()))
            members = [(made_here, ((ids.get(final, share(final)), axes),))]
        steps, results = _merge(members)
        by_key[key] = Schedule((tuple(map(share, steps)), results))
    return by_key[key]


def _merge(schedules: Sequence[tuple]) -> tuple:
    """One schedule of the steps of ``schedules`` in order, each item made
    once, and every member's results. A leaf is made at its first use, and
    a leaf or an item is dropped after its last use unless it is a
    result."""
    steps, results, seen = [], [], set()
    for member_steps, member_results in schedules:
        for step in member_steps:
            if step.c not in seen:
                seen.add(step.c)
                steps.append(step)
        results += member_results
    first = {}
    for k, step in enumerate(steps):
        for i, _ in step.make:  # the leaves among a and b
            first.setdefault(i, k)
    last = {i: k for k, step in enumerate(steps) for i in step[:2]}
    last.update((i, -1) for i, _ in results)
    # a member's own tuple when every leaf in it is used first here, as on a single path
    firsts = lambda make, k: (make if all(first[i] == k for i, _ in make)
                              else tuple(leaf for leaf in make if first[leaf[0]] == k))
    return (tuple(Step(a, b, c, spec, firsts(make, k), tuple(i for i in (a, b) if last[i] == k))
                  for k, (a, b, c, spec, make, _) in enumerate(steps)), tuple(results))


def _stack(steps: Sequence[Step], results: Sequence[tuple]) -> tuple[tuple, tuple]:
    """The runs :func:`_execute` makes of a schedule's ``steps``, and the
    (slots, item shape) of each stack they use.

    A step is small when both its operands and its item hold at most
    :data:`STACK_BYTES` each and neither operand is the caller's. A small
    step runs as late as the steps that read its item allow, at the end if
    none does; every other step keeps its place. Three or more small steps
    that land on one place with one spec and operand shapes run as one
    :class:`Group` (two save one call but cost their copies), cut so that
    no operand side or product holds more than :data:`GATHER_BYTES`; a
    step on its own runs as a :class:`Step` on plain arrays. Groups that
    land before one step run as soon as their operands are made, which
    frees slots early. A schedule with rows, whose sizes are known only
    when it runs, or with nothing to stack runs its steps as they are.
    """
    shapes = {}  # of every item whose shape is known here: not the caller's

    def operand(i: int, perm: tuple | None, reshape: tuple | None) -> tuple | None:
        if reshape is not None or shapes.get(i) is None:
            return reshape
        return shapes[i] if perm is None else tuple(shapes[i][ax] for ax in perm)

    for a, b, c, (lperm, lshape, rperm, rshape, shape, _, _), make, _ in steps:
        shapes.update((i, leaf[-1]) for i, leaf in make)
        x, y = operand(a, lperm, lshape), operand(b, rperm, rshape)
        shapes[c] = shape if shape is not None or None in (x, y) else x[:-1] + y[-1:]
    if any(s is not None and -1 in s for s in shapes.values()):
        return tuple(steps), ()
    size = lambda i: 16 * math.prod(shapes[i]) if shapes.get(i) is not None else math.inf
    small = [max(map(size, step[:3])) <= STACK_BYTES for step in steps]

    # when step k runs: (k, 0) in its place, or (t, -d) for a small step, d
    # places before step t, the first to read its item (t = len(steps): the end)
    readers = defaultdict(list)
    for k, step in enumerate(steps):
        readers[step.a].append(k)
        readers[step.b].append(k)
    when = [(k, 0) for k in range(len(steps))]
    for k in reversed(range(len(steps))):
        if small[k]:
            when[k] = min(((t, d - 1) for t, d in map(when.__getitem__, readers[steps[k].c])),
                          default=(len(steps), -1))
    together = defaultdict(list)
    for k, (a, b, _, spec, *_) in enumerate(steps):
        together[(when[k], spec, shapes[a], shapes[b]) if small[k] else when[k]].append(k)
    runs = []
    for ks in sorted(together.values(), key=lambda ks: (when[ks[0]], ks[0])):
        if len(ks) < 3:
            runs += [[k] for k in ks]
        else:
            per = max(1, GATHER_BYTES // max(map(size, steps[ks[0]][:3])))
            runs += [ks[i:i + per] for i in range(0, len(ks), per)]
    if len(runs) == len(steps):
        return tuple(steps), ()
    return _place(steps, results, _soonest(steps, runs, [when[ks[0]][0] for ks in runs]), shapes)


def _soonest(steps: Sequence[Step], runs: list[list[int]], places: list[int]) -> list[list[int]]:
    """``runs`` (lists of step numbers, in order) reordered so that among
    the runs of one place each runs as soon as the runs that make its
    operands have run: the order of a depth-first walk from the runs that
    read only earlier items, which ends each run's items sooner."""
    maker = {steps[k].c: g for g, ks in enumerate(runs) for k in ks}
    needs = [{maker[i] for k in ks for i in steps[k][:2] if i in maker} for ks in runs]
    users = defaultdict(list)
    for g, need in enumerate(needs):
        for h in sorted(need):
            users[h].append(g)
    order, start = [], 0
    while start < len(runs):
        end = next((g for g in range(start, len(runs)) if places[g] != places[start]), len(runs))
        waiting = {g: sum(h >= start for h in needs[g]) for g in range(start, end)}
        ready = [g for g in reversed(range(start, end)) if not waiting[g]]
        while ready:
            g = ready.pop()
            order.append(g)
            for h in reversed(users[g]):
                if h < end:
                    waiting[h] -= 1
                    if not waiting[h]:
                        ready.append(h)
        start = end
    return [runs[g] for g in order]


def _place(steps: Sequence[Step], results: Sequence[tuple], runs: list[list[int]],
           shapes: Mapping[int, tuple]) -> tuple[tuple, tuple]:
    """The :class:`Step` or :class:`Group` of each of ``runs`` (lists of step
    numbers, in the order they run) and the (slots, item shape) of each
    stack, for :func:`_stack`.

    A group's operands and items live in slots of the stack of their shape,
    and everything else as plain arrays. A plain array a group reads is
    loaded into a slot at its first such read, and a group's item that a
    step or a result reads is shown as a plain view of its slot. A slot is
    free again after its last read, and a plain array is dropped then;
    results are never dropped.
    """
    leaves = {i: leaf for step in steps for i, leaf in step.make}
    grouped = {steps[k].c for ks in runs if len(ks) > 1 for k in ks}
    made, loaded, plain_last, slot_last = defaultdict(list), defaultdict(list), {}, {}
    for t, ks in enumerate(runs):
        for k in ks:
            for i in steps[k][:2]:
                if i in leaves:  # made before its first run
                    made[t].append((i, leaves.pop(i)))
                if len(ks) == 1:
                    plain_last[i] = t
                    if i in grouped:
                        slot_last[i] = t
                    continue
                if i not in grouped and i not in slot_last:
                    loaded[t].append(i)
                    plain_last[i] = t
                slot_last[i] = t
    for i, _ in results:
        if type(i) is int:
            plain_last[i] = slot_last[i] = len(runs)
    ends, drops = defaultdict(list), defaultdict(list)
    for i, t in slot_last.items():
        ends[t].append(i)
    for i, t in plain_last.items():
        drops[t].append(i)

    stack, count, free, slot = {}, [], [], {}

    def take(i: int) -> None:
        j = stack.setdefault(shapes[i], len(stack))
        if j == len(count):
            count.append(0)
            free.append([])
        if free[j]:
            slot[i] = j, heapq.heappop(free[j])
        else:
            slot[i] = j, count[j]
            count[j] += 1

    def release(t: int) -> None:
        for i in ends[t]:
            heapq.heappush(free[slot[i][0]], slot[i][1])

    plan = []
    for t, ks in enumerate(runs):
        members = [steps[k] for k in ks]
        if len(ks) == 1:
            release(t)
            step, make, done = members[0], tuple(made[t]), tuple(drops[t])
            plan.append(step if (make, done) == step[4:] else step._replace(make=make, done=done))
            continue
        for i in loaded[t]:
            take(i)
        release(t)  # the operands are read before the items are written
        for step in members:
            take(step.c)
        lperm, lshape, rperm, rshape, shape, _, _ = members[0].spec
        lift = lambda perm: None if perm is None else (0, *(ax + 1 for ax in perm))
        grow = lambda shape: None if shape is None else (len(ks), *shape)
        plan.append(Group(
            (lift(lperm), grow(lshape), lift(rperm), grow(rshape), grow(shape)),
            *(_slots([slot[step[m]] for step in members]) for m in range(3)),
            tuple(made[t]), tuple((i, *slot[i]) for i in loaded[t]),
            tuple((step.c, *slot[step.c]) for step in members if step.c in plain_last),
            tuple(drops[t])))
    return tuple(plan), tuple((n, shape) for n, shape in zip(count, stack))


def _slots(where: Sequence[tuple[int, int]]) -> tuple:
    """(stack, slots) of items at ``where``, (stack, slot) each, all in one
    stack: a slice if the slots are consecutive, else an index array."""
    (j, first), *_ = where
    slots = [s for _, s in where]
    if slots == list(range(first, first + len(slots))):
        return j, slice(first, first + len(slots))
    slots = np.array(slots, dtype=np.intp)
    slots.setflags(write=False)  # held by a cached plan
    return j, slots


def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


# The leg of the row axis: a gathered Out leg is read at each row's symbol,
# one row per sequence or prefix, whose count is known only when a path runs.
_ROWS = -1


def _leaf(
    net: TensorNetwork, v: int, gathered: Container[int], shift: int = 0, shared: Container[int] = ()
) -> tuple[list[int], tuple]:
    """Vertex ``v`` as a leaf: its legs (:data:`_ROWS` if any is gathered,
    then the kept edges) and its spec (v, conj, perm, inverse, positions,
    shape), which puts its axes in the order (``gathered`` positions, In,
    kept), gathers it at each row's symbols and reshapes it (-1: the rows).
    With a ``shift`` it is the bra copy: conjugated, the edges outside
    ``shared`` shifted by it."""
    q, pos = net.quiver, net.quiver.plan.out_position
    edges = q.vertex_in_edges(v) + q.vertex_out_edges(v)
    fixed = [ax for ax, e in enumerate(edges) if pos.get(e, -1) in gathered]
    root = [ax for ax, e in enumerate(edges) if e in q.in_edges]
    kept = [ax for ax in range(len(edges)) if ax not in fixed + root]
    perm = tuple(fixed + root + kept)
    spec = (v, shift > 0, perm, _inverse(perm), tuple(pos[edges[ax]] for ax in fixed),
            (-1,) * bool(fixed) + tuple(net.edge_dim[edges[ax]] for ax in kept))
    names = [edges[ax] if edges[ax] in shared else edges[ax] + shift for ax in kept]
    return [_ROWS] * bool(fixed) + names, spec


def _doubled_path(net: TensorNetwork, roles: str) -> tuple:
    """The path of the doubled network ⟨Ψ|…|Ψ⟩.

    ``roles[p]`` is position p's role: ``g`` gathered at each row's symbol
    on both copies, ``o`` open (one edge id on ket, bra and the result,
    which keeps its diagonal), ``x`` an operator (item -1 − p, legs bra
    then ket, supplied by the caller) or ``t`` traced (one edge id on ket
    and bra). A vertex whose out legs are all traced drops out with its
    bra, exactly, as it is an isometry, and its in legs become traced, so
    only the causal cone of the other legs is left. Vertex v is ket item v
    and bra item V + v.
    """
    q = net.quiver
    traced = {e for e, r in zip(q.out_edges, roles) if r == "t"}
    kept = []
    for verts in reversed(q.plan.layers):
        for v in verts:
            if traced.issuperset(q.vertex_out_edges(v)):
                traced.update(q.vertex_in_edges(v))
            else:
                kept.append(v)
    opened = [e for e, r in zip(q.out_edges, roles) if r == "o"]
    shift, one = max(net.edge_dim) + 1, traced.union(opened)
    gathered = {p for p, r in enumerate(roles) if r == "g"}
    bra = max(q.vertices) + 1
    leaves = {v: _leaf(net, v, gathered) for v in kept}
    leaves.update({bra + v: _leaf(net, v, gathered, shift, one) for v in kept})
    leaves.update({-1 - p: ([e + shift, e], None) for p, e in enumerate(q.out_edges) if roles[p] == "x"})
    dim = {**net.edge_dim, **{e + shift: d for e, d in net.edge_dim.items()}, _ROWS: 1}
    return _compile(leaves, dim, [_ROWS] * bool(gathered) + opened)


def _compile(leaves: Mapping[int, tuple[list[int], tuple | None]], dim: Mapping[int, int],
             out: Sequence[int]) -> tuple:
    """The greedy pairwise contraction path over the items in ``leaves``.

    ``leaves`` maps each leaf's id to its legs in axis order and its spec
    (None: the caller supplies the item), ``dim`` gives leg dimensions (the
    rows count 1) and ``out`` the legs the result keeps. Steps number the
    items they make from one past the largest leaf id, in order; :func:`_path`
    renumbers them by how each is made. A leg two items share is summed if
    no other item and not the result holds it; else it is a batch axis of
    their matmul. Each step joins the two items that share a summed leg and
    give the smallest result, in entries per row, ties going to the smaller
    ids, so trees and chains contract from their leaves; items sharing none
    are then multiplied out in id order. An item that alone has rows goes
    first and its rows join the matrix rows; else the order that transposes
    fewer entries goes.

    Returns (steps, final item, its axes in ``out`` order); a leaf is named
    by its spec. Step (a, b, c, (lperm, lshape, rperm, rshape, shape, linv,
    rinv)) makes item c by one matmul of a and b, transposed (a: batch,
    kept, summed legs; b: batch, summed, kept legs) and reshaped. Every
    item's shape is known here (-1: the rows), so a permutation that is the
    identity (with its inverse), a reshape of an operand to the shape it
    has and a reshape of the product to the shape the matmul gives are
    None, and the executor skips them.
    """
    legs = {i: list(ls) for i, (ls, _) in leaves.items()}
    base = max(legs) + 1  # the id of the first item a step makes
    holders, steps = defaultdict(set), []  # the items holding each leg
    for i, ls in legs.items():
        for e in ls:
            holders[e].add(i)
    is_summed = lambda e: len(holders[e]) == 2 and e not in out  # by the two that hold it
    name = lambda i: (leaves[i][1] or i) if i in leaves else i
    entries = lambda es: math.prod(dim[e] for e in es)
    group = lambda es: -1 if _ROWS in es else entries(es)
    shape_of = lambda es: tuple(-1 if e == _ROWS else dim[e] for e in es)  # an item's shape

    def split(a: int, b: int) -> tuple[list[int], ...]:
        """The batch, a's kept, summed and b's kept legs of joining a and b."""
        shared = [e for e in legs[a] if e in legs[b]]
        return ([e for e in shared if not is_summed(e)], [e for e in legs[a] if e not in shared],
                [e for e in shared if is_summed(e)], [e for e in legs[b] if e not in shared])

    def size(a: int, b: int) -> int:
        """Entries per row of the product of items a and b."""
        batch, ka, _, kb = split(a, b)
        return entries(batch + ka + kb)

    def copied(a: int, b: int) -> int:
        """Entries per row that the order (a, b) transposes."""
        batch, ka, summed, kb = split(a, b)
        return (entries(legs[a]) * (batch + ka + summed != legs[a])
                + entries(legs[b]) * (batch + summed + kb != legs[b]))

    def merge(a: int, b: int) -> int:
        if (_ROWS in legs[a]) == (_ROWS in legs[b]):
            a, b = min((a, b), (b, a), key=lambda o: copied(*o))
        elif _ROWS in legs[b]:
            a, b = b, a
        batch, ka, summed, kb = split(a, b)
        la, lb, c = legs.pop(a), legs.pop(b), base + len(steps)
        legs[c] = batch + ka + kb
        for e in la + lb:
            holders[e] -= {a, b}
        for e in legs[c]:
            holders[e].add(c)
        lt, rt = batch + ka + summed, batch + summed + kb
        lperm = None if lt == la else tuple(map(la.index, lt))
        rperm = None if rt == lb else tuple(map(lb.index, rt))
        lead = (group(batch),) * bool(batch)
        lshape, rshape = lead + (group(ka), group(summed)), lead + (group(summed), group(kb))
        shape = shape_of(legs[c])
        steps.append((name(a), name(b), c, (
            lperm, None if lshape == shape_of(lt) else lshape,
            rperm, None if rshape == shape_of(rt) else rshape,
            None if shape == lshape[:-1] + rshape[-1:] else shape,
            None if lperm is None else _inverse(lperm), None if rperm is None else _inverse(rperm))))
        return c

    heap = sorted({(size(*p), *p) for p in {tuple(sorted(h)) for e, h in holders.items() if is_summed(e)}})
    while heap:
        _, a, b = heapq.heappop(heap)
        if a in legs and b in legs:
            c = merge(a, b)
            for x in {x for e in legs[c] if is_summed(e) for x in holders[e]} - {c}:
                heapq.heappush(heap, (size(x, c), x, c))
    while len(legs) > 1:
        merge(*sorted(legs)[:2])
    (c, ls), = legs.items()
    return steps, name(c), tuple(ls.index(e) for e in out if e in ls)


def contract(net: TensorNetwork, seqs: np.ndarray, saved: dict | None = None) -> np.ndarray:
    """The (B,) amplitudes of a validated (B, n) array ``seqs`` by the ket
    path; a dict passed as ``saved`` keeps every item, for
    :func:`environments`."""
    out, = _execute(net, _path(net), seqs, {} if saved is None else saved, saved is not None)
    return out if out.ndim else np.full(len(seqs), out)  # no Out leg: one amplitude serves every row


def _execute(net: TensorNetwork, path: Schedule, seqs: np.ndarray | None, items: dict,
             keep: bool = False) -> list[np.ndarray]:
    """Run a compiled schedule ``path`` on ``net`` in one pass, by its plan
    (:func:`_stack`), and return one result per member. Each leaf is made
    once, gathered at ``seqs``, just before its first use; a transpose or
    reshape the schedule holds as None is skipped. ``items`` holds the
    plain arrays made so far and those the caller supplies; each is dropped
    after its last use. With ``keep`` the steps run as they are and every
    item stays in ``items``."""
    steps, results = path
    runs, stacks = (steps, ()) if keep else path.plan
    if stacks:
        stacks = [np.empty((n, *shape), dtype=np.complex128) for n, shape in stacks]
    for run in runs:
        alone = type(run) is Step
        if alone:
            a, b, c, (lperm, lshape, rperm, rshape, shape, _, _), make, done = run
            for i, leaf in make:
                items[i] = _item(net, seqs, leaf)
            x, y = items[a], items[b]
        else:
            spec, (ja, sa), (jb, sb), (jc, sc), make, load, show, done = run
            lperm, lshape, rperm, rshape, shape = spec
            for i, leaf in make:
                items[i] = _item(net, seqs, leaf)
            for i, j, s in load:
                stacks[j][s] = items[i]
            x, y = stacks[ja][sa], stacks[jb][sb]
        if lperm is not None:
            x = x.transpose(lperm)
        if lshape is not None:
            x = x.reshape(lshape)
        if rperm is not None:
            y = y.transpose(rperm)
        if rshape is not None:
            y = y.reshape(rshape)
        z = x @ y if shape is None else (x @ y).reshape(shape)
        if alone:
            items[c] = z
        else:
            stacks[jc][sc] = z
            for i, j, s in show:
                items[i] = stacks[j][s]
        if not keep:
            for i in done:
                del items[i]
    return [(items[i] if type(i) is int else _item(net, seqs, i)).transpose(axes) for i, axes in results]


def _item(net: TensorNetwork, seqs: np.ndarray | None, leaf: tuple) -> np.ndarray:
    """The leaf of spec ``leaf`` (:func:`_leaf`), gathered at ``seqs``."""
    v, conj, perm, _, positions, shape = leaf
    t = net.vertex_tensor[v].transpose(perm)
    t = (t[tuple(seqs[:, p] for p in positions)] if positions else t).reshape(shape)
    return t.conj() if conj else t


def environments(
    net: TensorNetwork, seqs: np.ndarray, saved: dict, weights: np.ndarray
) -> dict[int, np.ndarray]:
    """Σ_b weights[b]·∂A(s_b)/∂t_v for every vertex v: the compiled path run
    backwards over the leaves and items :func:`contract` saved for ``seqs``.

    An operand without rows gets its adjoint summed over the batch by one
    matmul; a vertex folds its rows into its tensor as soon as its adjoint
    is known, by a segment sum over the joint code of its symbols.
    """
    steps, ((final, axes),) = _path(net)
    leaves = {i: leaf for *_, make, _ in steps for i, leaf in make}
    adj, envs = {}, {}

    def put(i: tuple | int, g: np.ndarray) -> None:
        leaf = leaves.get(i) if type(i) is int else i
        if leaf is None:
            adj[i] = g
            return
        v, _, perm, inverse, positions, _ = leaf
        shape = net.vertex_tensor[v].transpose(perm).shape
        if positions:
            dims = shape[:len(positions)]
            code = np.ravel_multi_index(tuple(seqs[:, p] for p in positions), dims)
            g = _sum_by_code(g.reshape(len(g), -1), code, math.prod(dims))
        envs[v] = g.reshape(shape).transpose(inverse)

    put(final, weights if axes else weights.sum())
    for a, b, c, (lperm, lshape, rperm, rshape, shape, linv, rinv), _, _ in reversed(steps):
        x, y = saved[a], saved[b]
        if lperm is not None:
            x = x.transpose(lperm)
        if rperm is not None:
            y = y.transpose(rperm)
        xm = x if lshape is None else x.reshape(lshape)
        ym = y if rshape is None else y.reshape(rshape)
        g = adj.pop(c)
        if shape is not None:
            g = g.reshape(xm.shape[:-1] + ym.shape[-1:])
        gx, gy = g @ np.swapaxes(ym, -1, -2), np.swapaxes(xm, -1, -2) @ g
        if lshape is not None:
            gx = gx.reshape(x.shape)
        if rshape is not None:
            gy = gy.reshape(y.shape)
        put(a, gx if linv is None else gx.transpose(linv))
        put(b, gy if rinv is None else gy.transpose(rinv))
    return envs


def _sum_by_code(rows: np.ndarray, code: np.ndarray, size: int) -> np.ndarray:
    """out[k] = Σ of the rows whose code is k, for k in range(size)."""
    order = np.argsort(code, kind="stable")
    ordered = code[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    out = np.zeros((size,) + rows.shape[1:], dtype=rows.dtype)
    out[ordered[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


# ------------------------------------------------------------------
# expectations of single-site operator products (doubled network)
# ------------------------------------------------------------------

def site_operator_expectation(net: TensorNetwork, site_ops: Mapping[int, np.ndarray]) -> complex:
    """⟨Ψ| O_{p1} ⊗ O_{p2} ⊗ ... |Ψ⟩ with identities at unlisted positions.

    ``site_ops`` maps sequence positions to square matrices on the local
    space. Only the operators' causal cone of the doubled network is
    contracted (:func:`_doubled`), never the state or a layer map.
    """
    return complex(_doubled(net, _site_ops(net, site_ops))[0])


def site_marginal(
    net: TensorNetwork, fixed_ops: Mapping[int, np.ndarray],
    position: int | tuple[int, ...] | list[int | tuple[int, ...]],
) -> np.ndarray | list[np.ndarray]:
    """All diagonal values ⟨Ψ| (⊗ fixed ops) ⊗ |a⟩⟨a|_position |Ψ⟩ at once.

    Equivalent to one :func:`site_operator_expectation` call per basis
    projector at ``position``, but one doubled-network contraction whose
    leg there is open. Returns a real vector of length
    ``site_dims[position]``; a strictly increasing tuple of positions gives
    the real joint diagonal, one axis per position. Positions, open or
    fixed, must be whole numbers (``2.0`` reads as 2).

    A list of such positions gives a list of their results, equal bit for
    bit, from one merged schedule (:func:`_path`): an item two of them
    share is made once and dropped after its last use, so entries that
    share open positions should come together.
    """
    many = isinstance(position, list)
    opened = [p if isinstance(p, tuple) else (p,) for p in (position if many else [position])]
    if not all(type(p) is int for ps in opened for p in ps):
        opened = [tuple(whole_number(p, "position") for p in ps) for ps in opened]
    if many and not all(opened):
        raise ValueError("no open position")
    ops, n = _site_ops(net, fixed_ops), net.n_sites
    _check_open(opened, n, ops)
    out = [x.real for x in _doubled(net, ops, opened)]
    return out if many else out[0]


def _check_open(opened: Sequence[tuple[int, ...]], n: int, ops: Container[int]) -> None:
    """Check tuples of open positions: each position within [0, n) and not
    fixed, each tuple strictly increasing. Several tuples are checked at
    once by array operations; the entries are walked one by one only for a
    single tuple or to raise for the first bad one."""
    if len(opened) > 1:
        ends = np.cumsum(np.fromiter(map(len, opened), dtype=np.intp, count=len(opened)))
        try:
            flat = np.fromiter(chain.from_iterable(opened), dtype=np.int64)
        except OverflowError:  # a position beyond int64, named below
            flat = None
        if flat is not None:
            at = np.minimum(flat.view(np.uint64), n)  # n: outside [0, n), a negative position wraps past it
            fixed = np.zeros(n + 1, dtype=bool)
            fixed[[n, *ops]] = True
            rising = flat[1:] > flat[:-1]
            rising[ends[:-1] - 1] = True  # the last position of an entry and the first of the next
            if not fixed[at].any() and rising.all():
                return
    for ps in opened:
        for p in ps:
            if not 0 <= p < n:
                raise ValueError(f"position {p} outside [0,{n})")
            if p in ops:
                raise ValueError(f"position {p} is both fixed and open")
        if not all(map(operator.lt, ps, ps[1:])):
            raise ValueError(f"open positions {ps} are not strictly increasing")


def _site_ops(net: TensorNetwork, site_ops: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Validate a position -> operator map against a pure-state model; each
    position must be a whole number (``2.0`` reads as 2)."""
    dims = net.site_dims
    ops: dict[int, np.ndarray] = {}
    for p, o in site_ops.items():
        p = whole_number(p, "position")
        if not 0 <= p < len(dims):
            raise ValueError(f"position {p} outside [0,{len(dims)})")
        o = np.asarray(o, dtype=np.complex128)
        if o.shape != (dims[p], dims[p]):
            raise ShapeError(f"operator at position {p} has shape {o.shape}, expected square {dims[p]}")
        ops[p] = o
    _require_model(net)
    return ops


def _doubled(
    net: TensorNetwork, ops: Mapping[int, np.ndarray], opened: Sequence[tuple[int, ...]] = ((),),
    seqs: np.ndarray | None = None,
) -> list[np.ndarray]:
    """⟨Ψ| ⊗_p ops[p] |Ψ⟩ with identities elsewhere (:func:`_doubled_path`),
    once for each tuple of sorted positions in ``opened``, by one schedule.

    Each result is the diagonal over the legs at its open positions, one
    axis each. Given a (B, k) array ``seqs``, positions < k are fixed at
    each row's symbols and the results lead with B rows.
    """
    k = 0 if seqs is None else seqs.shape[1]
    if not (ops or k or any(opened)):
        return [np.array(1.0 + 0.0j)] * len(opened)  # ⟨Ψ|Ψ⟩: every vertex drops out
    out = _execute(net, _path(net, (tuple(sorted(ops)), tuple(opened), k)), seqs,
                   {-1 - p: o for p, o in ops.items()})
    return out if seqs is None or k else [np.broadcast_to(x, (len(seqs),) + x.shape) for x in out]


def _roles(n: int, ops: Iterable[int], open_pos: Iterable[int], k: int = 0) -> str:
    """The :func:`_doubled_path` roles of n positions: the first k gathered,
    then ``open_pos`` open and ``ops`` operators, the rest traced."""
    roles = ["t"] * n
    for p in ops:
        roles[p] = "x"
    for p in open_pos:
        roles[p] = "o"
    roles[:k] = "g" * k
    return "".join(roles)


# ------------------------------------------------------------------
# random-network builders for the standard topologies
# ------------------------------------------------------------------

def _capped_power(base: int, exponent: int, cap: int) -> int:
    p = 1
    for _ in range(exponent):
        p *= base
        if p >= cap:
            return cap
    return p


def _bond_dims(q: Quiver, kind: str, n: int, w: int, bond: int | Sequence[int]) -> dict[int, int]:
    """Edge dimensions of a chain, tree or MERA by one rule.

    An internal edge in row r (the number of single-input vertices above
    it) gets w ** (n − r) on a chain or w ** (n >> r) otherwise, so every
    vertex can be an isometry, capped by ``bond``: an integer caps every
    row, a sequence rows 1…R in order (R = n − 1 on a chain, depth − 1
    otherwise), and w any deeper row.
    """
    rows = n - 1 if kind == "chain" else n.bit_length() - 2
    caps = None if isinstance(bond, int) else [int(b) for b in bond]
    if caps is not None and len(caps) != rows:
        what = {"chain": f"bond dims for a chain of {n}", "tree": "per-level bond dims",
                "mera": "per-row bond dims"}[kind]
        raise ValueError(f"need {rows} {what}, got {len(caps)}")
    for b in [bond] if caps is None else caps:
        if b < 1:
            raise ValueError(f"bond dimension must be positive, got {b}")
    row, dims = {q.in_edges[0]: 0}, {q.in_edges[0]: 1}
    for verts in q.plan.layers:
        for v in verts:
            ins = q.vertex_in_edges(v)
            r = row[ins[0]] + (len(ins) == 1)
            for e in q.vertex_out_edges(v):
                row[e] = r
                if e in q.plan.out_position:
                    dims[e] = w
                else:
                    cap = bond if caps is None else caps[r - 1] if r <= rows else w
                    dims[e] = _capped_power(w, n - r if kind == "chain" else n >> r, cap)
    return dims


def random_tensors(
    q: Quiver, edge_dim: Mapping[int, int], rng: np.random.Generator
) -> VertexStacks:
    """Independent Haar-random isometric tensors for every vertex, drawn in
    vertex order straight into their slots of fresh runs of
    :func:`group_vertices`, which :meth:`TensorNetwork.from_runs` takes
    (the dict's ``runs``). Each stretch of vertices that are consecutive
    members of one run is drawn as one stack by :func:`random_isometries`."""
    groups = group_vertices(q, edge_dim)
    runs = [np.empty((len(verts),) + shape, dtype=np.complex128) for verts, shape, _ in groups]
    place = {v: (j, i) for j, (verts, _, _) in enumerate(groups) for i, v in enumerate(verts)}
    stretches: list[list[int]] = []  # [run, first member, members]
    for v in q.vertices:
        j, i = place[v]
        if stretches and stretches[-1][0] == j and stretches[-1][1] + stretches[-1][2] == i:
            stretches[-1][2] += 1
        else:
            stretches.append([j, i, 1])
    for j, i, k in stretches:
        _, shape, split = groups[j]
        d_out, d_in = matrix_dims(shape, split)
        # in axes first, so as_stack is a view of the run's slots
        as_stack(runs[j][i:i + k], split)[...] = random_isometries(k, d_in, d_out, rng).transpose(0, 2, 1)
    for run in runs:
        run.setflags(write=False)
    return VertexStacks(groups, runs, q.vertices)


def random_network(
    kind: str,
    n: int,
    phys_dim: int,
    bond: int | Sequence[int],
    rng: np.random.Generator,
) -> TensorNetwork:
    """Haar-random isometric network of the given topology.

    ``kind`` is one of ``chain``, ``tree``, ``mera``. An integer ``bond``
    caps internal dimensions at the natural growth pattern of the
    topology; a sequence pins them explicitly (per bond for chains, per
    level/row for trees and MERAs). Dimensions are clamped wherever a
    larger value would make an isometric vertex impossible.
    """
    if phys_dim < 1:
        raise ValueError(f"symbol dimension must be positive, got {phys_dim}")
    builders = {"chain": build_chain, "tree": build_binary_tree, "mera": build_mera}
    if kind not in builders:
        raise ValueError(f"unknown network kind {kind!r}")
    q = builders[kind](n)
    dims = _bond_dims(q, kind, n, phys_dim, bond)
    return TensorNetwork.from_runs(q, dims, random_tensors(q, dims, rng).runs)
