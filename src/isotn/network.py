"""Decorated tensor networks and their contraction.

A :class:`TensorNetwork` is a quiver whose edges carry dimensions and whose
vertices carry isometric tensors. The canonical axis order at a vertex is
its incoming edges sorted by edge id followed by its outgoing edges sorted
by edge id; every contraction and the serialization format rely on this one
convention.

This module holds the runtime kernels only. The dense layer-map path
(full evaluation, the state, the operator flow) is the reference they are
tested against, and lives in :mod:`isotn.dense`, which nothing here
imports.

Sequence amplitudes on directed trees come from one batched kernel driven
by the quiver's cached :class:`~isotn.graph.Plan`: a leaf-to-root sweep
(:func:`tree_up`) over a (B, n) array of sequences gives B amplitudes at
once, and the matching root-to-leaf sweep (:func:`tree_environments`)
folds the weighted vertex environments of the whole batch into one tensor
per vertex, which is what the likelihood gradient needs. Neither sweep
materializes the full state or any per-sequence environment. General DAGs
(MERA) take every path through one boundary-state contraction
(:func:`_frontier`): it gives a sequence's amplitude, records the tape that
:func:`_environments_dag` runs backwards, or leaves the Out legs open and
gives the state, which is built once per network and cached on it.

Expectations of site-operator products and site marginals, and through
them the mutual-information curves, come from one doubled (ket-bra)
contraction that leaves any set of legs open (one for a marginal, two for
a pair's joint). On trees it is a single leaf-to-root sweep in which
every subtree without an operator or open leg contracts to the identity
and the open legs are row axes; its vertex step (:func:`_ket`,
:func:`_ket_bra`) is also the step of the sampler's conditionals. Other
DAGs sum over the state that :func:`_frontier` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import IsometryImpossibleError, ShapeError
from .graph import (
    Quiver,
    VertexLegs,
    build_binary_tree,
    build_chain,
    build_mera,
)
from .tensor_core import (
    DEFAULT_ISOMETRY_TOL,
    IndexSplit,
    astensor,
    from_matrix,
    isometry_violation,
    matrix_dims,
    random_isometry,
)

# A sequence state is one symbol index per Out edge, in canonical
# (sorted-by-edge-id) Out order.
SequenceState = tuple[int, ...]


@dataclass(frozen=True)
class TensorNetwork:
    """Quiver + edge dimensions + isometric vertex tensors."""

    quiver: Quiver
    edge_dim: Mapping[int, int]
    vertex_tensor: Mapping[int, np.ndarray]
    isometry_tol: float = DEFAULT_ISOMETRY_TOL

    def __post_init__(self):
        object.__setattr__(self, "edge_dim", dict(self.edge_dim))
        object.__setattr__(
            self, "vertex_tensor", {v: astensor(t) for v, t in dict(self.vertex_tensor).items()}
        )
        self._check()

    def _check(self):
        q = self.quiver
        all_edges = set(q.internal_edges) | set(q.in_edges) | set(q.out_edges)
        for e in all_edges:
            d = self.edge_dim.get(e)
            if d is None or d < 1:
                raise ShapeError(f"edge {e} has no positive dimension assigned")
        worst = 0.0
        for v in q.vertices:
            t = self.vertex_tensor.get(v)
            if t is None:
                raise ShapeError(f"vertex {v} has no tensor assigned")
            expected = self.vertex_shape(v)
            if t.shape != expected:
                raise ShapeError(
                    f"vertex {v} tensor shape {t.shape} does not match incident "
                    f"edge dims {expected}"
                )
            split = self.vertex_split(v)
            out_dim, in_dim = matrix_dims(t.shape, split)
            if in_dim > out_dim:
                raise IsometryImpossibleError(
                    f"vertex {v}: incoming dimension {in_dim} exceeds outgoing {out_dim}"
                )
            violation = isometry_violation(t, split)
            if not violation <= self.isometry_tol:
                raise ValueError(
                    f"vertex {v} tensor is not isometric "
                    f"(violation {violation:.3e} > tol {self.isometry_tol:g})"
                )
            worst = max(worst, violation)
        object.__setattr__(self, "_max_violation", worst)

    def vertex_shape(self, v: int) -> tuple[int, ...]:
        ins = self.quiver.vertex_in_edges(v)
        outs = self.quiver.vertex_out_edges(v)
        return tuple(self.edge_dim[e] for e in ins) + tuple(self.edge_dim[e] for e in outs)

    def vertex_split(self, v: int) -> IndexSplit:
        n_in = len(self.quiver.vertex_in_edges(v))
        n_out = len(self.quiver.vertex_out_edges(v))
        return IndexSplit(tuple(range(n_in)), tuple(range(n_in, n_in + n_out)))

    @property
    def n_sites(self) -> int:
        return len(self.quiver.out_edges)

    @property
    def site_dims(self) -> tuple[int, ...]:
        """Out-edge dimensions in canonical (sequence position) order."""
        return tuple(self.edge_dim[e] for e in self.quiver.out_edges)

    def with_tensors(self, tensors: Mapping[int, np.ndarray]) -> "TensorNetwork":
        """Same quiver and dims with replaced vertex tensors (revalidated)."""
        return TensorNetwork(self.quiver, self.edge_dim, tensors, self.isometry_tol)

    def max_isometry_violation(self) -> float:
        """max over vertices of ‖M†M − I‖_max, computed once at construction."""
        return self._max_violation


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
    ValueError "<what> <x><where> is not a finite whole number"."""
    if type(x) is int:
        return x
    try:
        if x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} {x}{where} is not a finite whole number")


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
    """Amplitudes of a batch of basis sequences, as a complex (B,) array.

    Tree networks run one batched leaf-to-root sweep (:func:`tree_up`);
    other DAGs run the boundary-state contraction (:func:`_frontier`) per
    sequence, fixing each observable leg to its symbol as soon as it appears.
    """
    _require_model(net)
    seqs = sequence_array(net, sequences)
    if net.quiver.plan.is_tree:
        return tree_up(net, seqs)[net.quiver.in_edges[0]][:, 0]
    return np.array([_frontier(net, tuple(s)) for s in seqs.tolist()], dtype=np.complex128)


# Batched tree kernel. A message on edge e is a (B, dim e) array, one row per
# sequence. Leaf legs are fixed by gathering the tensor at the symbols, never
# by contracting one-hot vectors; internal legs are contracted by batched
# matrix-vector products, and sums over the batch by a segment sum or a GEMM.

def _fix_leaves(t: np.ndarray, legs: VertexLegs, seqs: np.ndarray) -> np.ndarray:
    """t with every leaf leg set to its symbol, as (B, d_in, *inner dims).

    A vertex without leaf legs gives a broadcast view, not B copies.
    """
    if not legs.leaf_axes:
        return np.broadcast_to(t, (seqs.shape[0],) + t.shape)
    moved = t.transpose(legs.leaf_axes + (0,) + legs.inner_axes)
    return moved[tuple(seqs[:, p] for p in legs.leaf_positions)]


def _absorb(x: np.ndarray, axis: int, m: np.ndarray) -> np.ndarray:
    """Contract ``axis`` of the batched ``x`` with the per-row vectors ``m``."""
    x = np.moveaxis(x, axis, -1)
    b, d = m.shape
    return (x.reshape(b, -1, d) @ m[:, :, None]).reshape(x.shape[:-1])


def _row_outer(first: np.ndarray, rest: Sequence[np.ndarray]) -> np.ndarray:
    """Per-row outer product of (B, d_k) arrays, flattened to (B, Π d_k)."""
    out = first
    for m in rest:
        out = (out[:, :, None] * m[:, None, :]).reshape(len(out), -1)
    return out


def _sum_by_code(rows: np.ndarray, code: np.ndarray, size: int) -> np.ndarray:
    """out[k] = Σ of the rows whose code is k, for k in range(size)."""
    order = np.argsort(code, kind="stable")
    ordered = code[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    out = np.zeros((size,) + rows.shape[1:], dtype=rows.dtype)
    out[ordered[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


def tree_up(net: TensorNetwork, seqs: np.ndarray) -> dict[int, np.ndarray]:
    """Leaf-to-root messages of a directed tree for a validated (B, n) batch.

    Returns the message on every internal and In edge; the In edge's
    column 0 holds the amplitudes.
    """
    plan = net.quiver.plan
    up: dict[int, np.ndarray] = {}
    for verts in reversed(plan.layering.layers):
        for v in verts:
            legs = plan.legs[v]
            x = _fix_leaves(net.vertex_tensor[v], legs, seqs)
            for e in reversed(legs.inner_edges):
                x = _absorb(x, -1, up[e])
            up[plan.in_edge[v]] = x
    return up


def tree_environments(
    net: TensorNetwork, seqs: np.ndarray, up: Mapping[int, np.ndarray], weights: np.ndarray
) -> dict[int, np.ndarray]:
    """Σ_b weights[b]·∂A(s_b)/∂t_v for every vertex v, by one root-to-leaf sweep.

    ``up`` is :func:`tree_up` of the same batch. Each vertex's sum is
    folded into one tensor of its own shape: rows are summed per joint
    code of the vertex's leaf symbols (a segment sum over the sorted
    batch), or by one GEMM over the batch at a vertex without leaf legs,
    so no per-sequence environment is ever formed.
    """
    plan = net.quiver.plan
    b = seqs.shape[0]
    down = {net.quiver.in_edges[0]: np.asarray(weights, dtype=np.complex128)[:, None]}
    envs: dict[int, np.ndarray] = {}
    for verts in plan.layering.layers:
        for v in verts:
            t = net.vertex_tensor[v]
            legs = plan.legs[v]
            dn = down.pop(plan.in_edge[v])
            msgs = [up[e] for e in legs.inner_edges]
            x = _fix_leaves(t, legs, seqs)
            y = (dn[:, None, :] @ x.reshape(b, x.shape[1], -1)).reshape((b,) + x.shape[2:])
            for j, e in enumerate(legs.inner_edges):
                z = y
                for i in range(len(msgs) - 1, -1, -1):
                    if i != j:
                        z = _absorb(z, 1 + i, msgs[i])
                down[e] = z
            if legs.leaf_axes:
                leaf_dims = tuple(t.shape[a] for a in legs.leaf_axes)
                code = np.ravel_multi_index(
                    tuple(seqs[:, p] for p in legs.leaf_positions), leaf_dims)
                grouped = _sum_by_code(_row_outer(dn, msgs), code, math.prod(leaf_dims))
            else:
                last = msgs.pop() if msgs else np.ones((b, 1))
                grouped = _row_outer(dn, msgs).T @ last
            layout = legs.leaf_axes + (0,) + legs.inner_axes
            envs[v] = grouped.reshape([t.shape[a] for a in layout]).transpose(np.argsort(layout))
    return envs


def _frontier(
    net: TensorNetwork, s: SequenceState | None = None, tape: list | None = None
) -> np.ndarray:
    """Contract a model network layer by layer through its boundary state.

    The running state has one axis per frontier edge, and each vertex is
    applied by one matrix product over its input legs. Given a sequence
    ``s``, each Out leg is fixed to its symbol as soon as it appears and
    the 0-d result is the amplitude. Without one the Out legs stay open and
    the result is the state, axes in position order: it does not depend on
    anything but the network, so it is built once and cached on it,
    read-only, the way the quiver caches its plan. A list passed as
    ``tape`` records every step for :func:`_environments_dag`.
    """
    if s is None and tape is None and "_state" in net.__dict__:
        return net.__dict__["_state"]
    q = net.quiver
    pos = q.plan.out_position
    frontier: list[int] = [q.in_edges[0]]
    t = np.ones(net.edge_dim[q.in_edges[0]], dtype=np.complex128)
    for verts in q.plan.layering.layers:
        for v in verts:
            ins, outs = q.vertex_in_edges(v), q.vertex_out_edges(v)
            con = [frontier.index(e) for e in ins]
            keep = [ax for ax in range(t.ndim) if ax not in con]
            u = net.vertex_tensor[v]
            t_mat = t.transpose(keep + con).reshape(-1, math.prod(u.shape[:len(ins)]))
            u_mat = u.reshape(t_mat.shape[1], -1)
            if tape is not None:
                tape.append(("vertex", v, t_mat, u_mat, keep + con, t.shape, u.shape))
            t = (t_mat @ u_mat).reshape(tuple(t.shape[ax] for ax in keep) + u.shape[len(ins):])
            frontier = [e for e in frontier if e not in ins] + list(outs)
            for e in outs:
                if s is not None and e in pos:
                    ax = frontier.index(e)
                    if tape is not None:
                        tape.append(("fix", ax, s[pos[e]], t.shape))
                    t = np.take(t, s[pos[e]], axis=ax)
                    frontier.remove(e)
    if s is None:
        t = t.transpose([frontier.index(e) for e in q.out_edges])
        if tape is None:
            t.setflags(write=False)
            object.__setattr__(net, "_state", t)
    return t


def _environments_dag(net: TensorNetwork, s: SequenceState) -> tuple[dict[int, np.ndarray], complex]:
    """∂A(s)/∂t_v for every vertex, and A(s): reverse mode through :func:`_frontier`."""
    tape: list[tuple] = []
    amp = complex(_frontier(net, s, tape))
    envs: dict[int, np.ndarray] = {}
    adj = np.ones((), dtype=np.complex128)
    for entry in reversed(tape):
        if entry[0] == "fix":
            _, ax, idx, shape_before = entry
            full = np.zeros(shape_before, dtype=np.complex128)
            sel = [slice(None)] * len(shape_before)
            sel[ax] = idx
            full[tuple(sel)] = adj
            adj = full
        else:
            _, v, t_mat, u_mat, perm, t_shape, u_shape = entry
            adj_mat = adj.reshape(t_mat.shape[0], u_mat.shape[1])
            envs[v] = (t_mat.T @ adj_mat).reshape(u_shape)
            adj_prev = (adj_mat @ u_mat.T).reshape(
                tuple(t_shape[ax] for ax in perm)
            )
            adj = adj_prev.transpose(np.argsort(perm))
    return envs, amp


# ------------------------------------------------------------------
# expectations of single-site operator products (doubled network)
# ------------------------------------------------------------------

def site_operator_expectation(net: TensorNetwork, site_ops: Mapping[int, np.ndarray]) -> complex:
    """⟨Ψ| O_{p1} ⊗ O_{p2} ⊗ ... |Ψ⟩ with identities at unlisted positions.

    ``site_ops`` maps sequence positions to square matrices on the local
    space. On trees this runs ket-bra message passing in which any subtree
    containing no operator contributes an exact identity (isometry
    property), so the cost scales with the operator positions' depth, not
    the system size. Other DAGs sum over the state that one boundary-state
    contraction gives (Π site dims entries), never a dense layer map.
    """
    return complex(_doubled(net, _site_ops(net, site_ops)))


def site_marginal(
    net: TensorNetwork, fixed_ops: Mapping[int, np.ndarray], position: int | tuple[int, ...]
) -> np.ndarray:
    """All diagonal values ⟨Ψ| (⊗ fixed ops) ⊗ |a⟩⟨a|_position |Ψ⟩ at once.

    Equivalent to one :func:`site_operator_expectation` call per basis
    projector at ``position``, but computed in a single doubled-network
    pass with an open leg there. Returns a real vector of length
    ``site_dims[position]``; a strictly increasing tuple of positions gives
    the real joint diagonal, one axis per position.
    """
    n = net.n_sites
    opened = position if isinstance(position, tuple) else (position,)
    for p in opened:
        if not 0 <= p < n:
            raise ValueError(f"position {p} outside [0,{n})")
        if p in fixed_ops:
            raise ValueError(f"position {p} is both fixed and open")
    if any(a >= b for a, b in zip(opened, opened[1:])):
        raise ValueError(f"open positions {opened} are not strictly increasing")
    return np.real(_doubled(net, _site_ops(net, fixed_ops), opened))


def _site_ops(net: TensorNetwork, site_ops: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Validate a position -> operator map against a pure-state model."""
    dims = net.site_dims
    ops: dict[int, np.ndarray] = {}
    for p, o in site_ops.items():
        p = int(p)
        if not 0 <= p < len(dims):
            raise ValueError(f"position {p} outside [0,{len(dims)})")
        o = np.asarray(o, dtype=np.complex128)
        if o.shape != (dims[p], dims[p]):
            raise ShapeError(f"operator at position {p} has shape {o.shape}, expected square {dims[p]}")
        ops[p] = o
    _require_model(net)
    return ops


def _doubled(
    net: TensorNetwork, ops: dict[int, np.ndarray], open_pos: tuple[int, ...] = ()
) -> np.ndarray:
    """The doubled network ⟨Ψ| ⊗_p ops[p] |Ψ⟩ with identities elsewhere.

    The legs at the sorted positions ``open_pos`` stay open: the result is
    the diagonal over them, one axis each (0-d when none is open). On trees
    one leaf-to-root sweep of ket-bra vertex steps (:func:`_ket`) runs one
    row per joint symbol of the open legs, with one row axis per open
    position, so the root's (*R, 1, 1) message reshapes to the result. A
    message has length 1 on the axis of an open leg outside its subtree,
    and shared operators serve every row. Every subtree without an operator
    or open leg is skipped, an exact identity (isometry property).
    Other DAGs sum over the state that one boundary-state contraction
    (:func:`_frontier`) gives; no layer map is built.
    """
    plan = net.quiver.plan
    if not plan.is_tree:
        psi = b = _frontier(net)
        for p, o in ops.items():
            b = np.moveaxis(np.tensordot(b, o, axes=([p], [1])), -1, p)
        other = tuple(ax for ax in range(psi.ndim) if ax not in open_pos)
        return np.asarray(np.sum(psi.conj() * b, axis=other))

    q, pos = net.quiver, plan.out_position
    shape = tuple(net.site_dims[p] for p in open_pos)
    # one row axis per open position, along which only its own column varies
    cols = {p: np.arange(d).reshape([d if i == j else 1 for i in range(len(shape))])
            for j, (p, d) in enumerate(zip(open_pos, shape))}
    # ket-side matrices by edge: the operators on leaves, then the messages
    mats = {q.out_edges[p]: o for p, o in ops.items()}
    for verts in reversed(plan.layering.layers):
        for v in verts:
            if any(e in mats or pos.get(e, -1) in cols for e in q.vertex_out_edges(v)):
                x, y, _ = _ket(net, v, cols, mats)
                mats[plan.in_edge[v]] = _ket_bra(x, y, max(len(shape), 1))
    root = mats.get(q.in_edges[0])
    return np.array(1.0 + 0.0j) if root is None else root.reshape(shape)


# The ket-bra step through one vertex of a tree, shared by the doubled sweep
# above and the sampler's conditionals. Rows are the leading axes (one for the
# sampler's block, one per open leg in the doubled sweep); an axis of length 1
# serves every row.

def _ket(
    net: TensorNetwork, v: int, cols: Mapping[int, np.ndarray], mats: Mapping[int, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Vertex ``v``'s tensor with leaves gathered per row and matrices applied.

    ``cols`` maps positions to symbol columns over the row axes R: those
    leaves of ``v`` are gathered per row. ``mats`` maps edge ids to (d, d)
    or (*R, d, d) matrices, applied on the ket side of the legs left open
    (identity where none). Returns x (*R, d_in, *open legs), y (x with the
    matrices applied) and the axis of each open leg in both, by edge.
    """
    lead = next(iter(cols.values())).ndim if cols else 1
    pos = net.quiver.plan.out_position
    legs = list(enumerate(net.quiver.vertex_out_edges(v), start=1))
    fixed = [(ax, pos[e]) for ax, e in legs if pos.get(e, -1) in cols]
    kept = [(ax, e) for ax, e in legs if pos.get(e, -1) not in cols]
    moved = net.vertex_tensor[v].transpose([ax for ax, _ in fixed] + [0] + [ax for ax, _ in kept])
    x = moved[tuple(cols[p] for _, p in fixed)] if fixed else moved[(None,) * lead]
    axis = {e: i for i, (_, e) in enumerate(kept, start=lead + 1)}
    y = x
    for e, i in axis.items():
        if mats.get(e) is not None:
            y = _apply(y, i, mats[e], lead)
    return x, y, axis


def _apply(y: np.ndarray, axis: int, m: np.ndarray, lead: int) -> np.ndarray:
    """y'[b, .., ō, ..] = Σ_o m[b, ō, o] y[b, .., o, ..] on ``axis``; b is
    the ``lead`` row axes."""
    y = np.swapaxes(y, axis, -1)
    out = y.reshape(y.shape[:lead] + (-1, y.shape[-1])) @ np.swapaxes(m, -1, -2)
    return np.swapaxes(out.reshape(out.shape[:lead] + y.shape[lead:]), -1, axis)


def _ket_bra(x: np.ndarray, y: np.ndarray, lead: int = 1) -> np.ndarray:
    """The (*R, d_in, d_in) message Σ_r conj(x[b, ī, r]) y[b, i, r] on the in
    leg (b: the ``lead`` row axes), every leg :func:`_ket` left open traced."""
    d = x.shape[lead]
    return (x.reshape(x.shape[:lead] + (d, -1)).conj()
            @ np.swapaxes(y.reshape(y.shape[:lead] + (d, -1)), -1, -2))


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
    row, dims = {q.in_edges[0]: 0}, {q.in_edges[0]: 1}
    for verts in q.plan.layering.layers:
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
) -> dict[int, np.ndarray]:
    """Independent Haar-random isometric tensors for every vertex."""
    tensors = {}
    for v in q.vertices:
        n_in = len(q.vertex_in_edges(v))
        shape = tuple(edge_dim[e] for e in q.vertex_in_edges(v) + q.vertex_out_edges(v))
        split = IndexSplit(tuple(range(n_in)), tuple(range(n_in, len(shape))))
        d_out, d_in = matrix_dims(shape, split)
        tensors[v] = from_matrix(random_isometry(d_in, d_out, rng), shape, split)
    return tensors


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
    return TensorNetwork(q, dims, random_tensors(q, dims, rng))
