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
every subtree without an operator or open leg contracts to the identity;
other DAGs sum over the state that :func:`_frontier` gives. The sampler's
conditionals use the same identity on paths (:mod:`isotn.sampling`).
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
            in_dim = int(np.prod([t.shape[a] for a in split.in_axes], dtype=np.int64))
            out_dim = int(np.prod([t.shape[a] for a in split.out_axes], dtype=np.int64))
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
            try:
                whole = x == int(x)
            except (TypeError, ValueError, OverflowError):
                whole = False
            if not whole:
                raise ValueError(f"{noun} {x} at position {pos} is not a finite whole number")
            if not 0 <= x < d:
                raise ValueError(f"{noun} {int(x)} at position {pos} outside [0,{d})")
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
    one leaf-to-root sweep passes ket-bra messages and skips every subtree
    without an operator or open leg, an exact identity (isometry property).
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

    dims, root_edge = net.site_dims, net.quiver.in_edges[0]
    ops = dict(ops)
    for p in open_pos:
        ops[p] = np.zeros((dims[p],) * 3, dtype=np.complex128)
        ops[p][(np.arange(dims[p]),) * 3] = 1.0
    pos, in_edge, out_edges = plan.out_position, plan.in_edge, net.quiver.vertex_out_edges
    tensors, msgs = net.vertex_tensor, {}
    # positions of the open axes an edge's message carries, in _sandwich's order
    opened = {net.quiver.out_edges[p]: (p,) for p in open_pos}
    for verts in reversed(plan.layering.layers):
        for v in verts:
            outs = out_edges(v)
            out_msgs = [ops.get(pos[e]) if e in pos else msgs.pop(e) for e in outs]
            below = [opened.pop(e) for e in outs if e in opened]
            if below:
                opened[in_edge[v]] = sum(below, ())
            if all(m is None for m in out_msgs):
                msgs[in_edge[v]] = None
            else:
                msgs[in_edge[v]] = _sandwich(tensors[v], out_msgs)
    root = msgs[root_edge]
    if root is None:
        return np.array(1.0 + 0.0j)
    order = opened.get(root_edge, ())
    return root[0, 0, ...].transpose(sorted(range(len(order)), key=order.__getitem__))


def _sandwich(t: np.ndarray, out_msgs: list[np.ndarray | None]) -> np.ndarray:
    """Ket-bra message through a one-input vertex: Σ conj(t)[ī,ō] Π M_k[ō_k,o_k,...] t[i,o].

    A message is None (identity) or a (bra, ket, *open) array whose
    trailing axes are open diagonal indices. Plain matrices are applied
    first, so no product carries an open axis it does not need; the open
    axes follow ī, i in the result, in out-edge order.
    """
    b = t
    for opening in (False, True):
        for k, m in enumerate(out_msgs):
            if m is not None and (m.ndim > 2) == opening:
                # b'[..., ō_k, ..., open] = Σ M[ō_k, o_k, open] b[..., o_k, ...]
                b = np.moveaxis(np.tensordot(b, m, axes=([1 + k], [1])), 1 - m.ndim, 1 + k)
    out_axes = list(range(1, t.ndim))
    return np.tensordot(t.conj(), b, axes=(out_axes, out_axes))


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


def _chain_dims(q: Quiver, n: int, w: int, bond: int | Sequence[int]) -> dict[int, int]:
    dims = {q.in_edges[0]: 1}
    for e in q.out_edges:
        dims[e] = w
    bonds = sorted(q.internal_edges)
    if isinstance(bond, int):
        wanted = [bond] * (n - 1)
    else:
        wanted = [int(b) for b in bond]
        if len(wanted) != n - 1:
            raise ValueError(f"need {n - 1} bond dims for a chain of {n}, got {len(wanted)}")
    for k, e in enumerate(bonds):
        # tail capacity keeps every vertex a valid isometry
        dims[e] = min(wanted[k], _capped_power(w, n - 1 - k, wanted[k]))
    return dims


def _tree_level(vertex: int) -> int:
    return (vertex + 1).bit_length() - 1


def _tree_dims(q: Quiver, n: int, w: int, bond: int | Sequence[int]) -> dict[int, int]:
    depth = n.bit_length() - 1
    dims = {q.in_edges[0]: 1}
    for e in q.out_edges:
        dims[e] = w
    if isinstance(bond, int):
        per_level = None
    else:
        per_level = [int(b) for b in bond]
        if len(per_level) != max(depth - 1, 0):
            raise ValueError(f"need {depth - 1} per-level bond dims, got {len(per_level)}")
    for e in q.internal_edges:
        level = _tree_level(q.target[e])  # 1..depth-1
        leaves_below = n >> level
        cap = bond if per_level is None else per_level[level - 1]
        dims[e] = _capped_power(w, leaves_below, cap)
    return dims


def _mera_dims(q: Quiver, n: int, w: int, bond: int | Sequence[int]) -> dict[int, int]:
    depth = n.bit_length() - 1
    # row of an edge = number of single-input (tree) vertices above it
    row: dict[int, int] = {q.in_edges[0]: 0}
    for verts in q.plan.layering.layers:
        for v in verts:
            ins = q.vertex_in_edges(v)
            r = row[ins[0]]
            r_out = r + 1 if len(ins) == 1 else r
            for e in q.vertex_out_edges(v):
                row[e] = r_out
    if isinstance(bond, int):
        per_row = [_capped_power(w, n >> r, bond) for r in range(depth + 1)]
    else:
        wanted = [int(b) for b in bond]
        if len(wanted) != max(depth - 1, 0):
            raise ValueError(f"need {depth - 1} per-row bond dims, got {len(wanted)}")
        per_row = [1] + wanted + [w]
        per_row = [min(d, _capped_power(w, n >> r, d)) for r, d in enumerate(per_row)]
    dims = {q.in_edges[0]: 1}
    for e in list(q.internal_edges) + list(q.out_edges):
        dims[e] = w if e in q.out_edges else per_row[row[e]]
    return dims


def random_tensors(
    q: Quiver, edge_dim: Mapping[int, int], rng: np.random.Generator
) -> dict[int, np.ndarray]:
    """Independent Haar-random isometric tensors for every vertex."""
    tensors = {}
    for v in q.vertices:
        in_dims = [edge_dim[e] for e in q.vertex_in_edges(v)]
        out_dims = [edge_dim[e] for e in q.vertex_out_edges(v)]
        d_in = int(np.prod(in_dims, dtype=np.int64))
        d_out = int(np.prod(out_dims, dtype=np.int64))
        m = random_isometry(d_in, d_out, rng)
        shape = tuple(in_dims) + tuple(out_dims)
        split = IndexSplit(tuple(range(len(in_dims))), tuple(range(len(in_dims), len(shape))))
        tensors[v] = from_matrix(m, shape, split)
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
    if kind == "chain":
        q = build_chain(n)
        dims = _chain_dims(q, n, phys_dim, bond)
    elif kind == "tree":
        q = build_binary_tree(n)
        dims = _tree_dims(q, n, phys_dim, bond)
    elif kind == "mera":
        q = build_mera(n)
        dims = _mera_dims(q, n, phys_dim, bond)
    else:
        raise ValueError(f"unknown network kind {kind!r}")
    return TensorNetwork(q, dims, random_tensors(q, dims, rng))
