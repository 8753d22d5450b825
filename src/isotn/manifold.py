"""Geometry of the isometric parameter space.

Vertex tensors live on products of Stiefel manifolds. Raw gradients are
projected to the tangent space of the isometry constraint, updates retract
back via the polar factor, and the quotient by the gauge group (unitaries
on internal and In edges) is accounted for numerically: the rank of the
gauge action's differential plus the moduli dimension recovers the total
parameter count.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import UnsupportedTopologyError
from .network import TensorNetwork, VertexStacks
from .tensor_core import as_stack, from_stack, matrix_dims, project_to_isometry

TangentVector = dict[int, np.ndarray]


def _stack(arrays: Mapping[int, np.ndarray], groups: tuple, j: int) -> np.ndarray:
    """The arrays of run ``j`` of ``groups`` as one (k, *shape) complex stack,
    not to be written to: the run's own array if ``arrays`` holds it
    (:class:`VertexStacks`), else a copy. A missing or misshapen direction
    raises ValueError naming its vertex."""
    run = arrays.run(groups, j) if isinstance(arrays, VertexStacks) else None
    if run is not None:
        return run
    verts, shape, _ = groups[j]
    for v in verts:
        if v not in arrays:
            raise ValueError(f"vertex {v}: no direction given")
        if np.shape(arrays[v]) != shape:
            raise ValueError(f"vertex {v}: direction shape {np.shape(arrays[v])} != tensor shape {shape}")
    return np.array([arrays[v] for v in verts], dtype=np.complex128)


def tangent_project(net: TensorNetwork, raw: Mapping[int, np.ndarray]) -> TangentVector:
    """Project per-vertex arrays onto the Stiefel tangent space.

    Per vertex, with U the grouped matrix and G the grouped input:
    ξ = G − U·herm(U†G) (Edelman, Arias & Smith, SIAM J. Matrix Anal.
    Appl. 20, 1998). The result satisfies U†ξ + ξ†U = 0 and the
    projection is idempotent. Each run of the network runs at once on its
    transposed stacks A = Uᵀ, B = Gᵀ: with K = B·A†, ξᵀ = B − herm(K)·A.
    The result's values are read-only views of one stack per run.
    """
    out, groups = [], net.shape_groups()
    for j, (verts, shape, split, u) in enumerate(net.runs()):
        a, b = as_stack(u, split), as_stack(_stack(raw, groups, j), split)
        k = b @ np.swapaxes(a, 1, 2).conj()
        x = (k + np.swapaxes(k, 1, 2).conj()) / 2.0 @ a
        out.append(from_stack(np.subtract(b, x, out=x), (len(verts),) + shape, split))
    return net.by_vertex(out)


def tangency_violation(net: TensorNetwork, xi: Mapping[int, np.ndarray]) -> float:
    """max over vertices of ‖U†ξ + ξ†U‖_max (0 for an exact tangent)."""
    worst, groups = 0.0, net.shape_groups()
    for j, (_, _, split, u) in enumerate(net.runs()):
        a, x = as_stack(u, split), as_stack(_stack(xi, groups, j), split)
        sym = x @ np.swapaxes(a, 1, 2).conj()  # (U†ξ)ᵀ, whose sum with its adjoint has the same moduli
        worst = max(worst, float(np.max(np.abs(sym + np.swapaxes(sym, 1, 2).conj()))))
    return worst


def retract(net: TensorNetwork, xi: Mapping[int, np.ndarray], step: float) -> TensorNetwork:
    """Move every vertex by ``step``·ξ and snap back to the nearest isometry,
    one polar factor call per run, whose stack the new network takes as
    its run. A move with a NaN or infinite entry raises ShapeError."""
    runs, groups = [], net.shape_groups()
    for j, (_, _, split, u) in enumerate(net.runs()):
        with np.errstate(over="ignore", invalid="ignore"):  # left to the polar factor's check
            moved = _stack(xi, groups, j) * step
            moved += u
        runs.append(project_to_isometry(moved, split))
    return TensorNetwork.from_runs(net.quiver, net.edge_dim, runs)


def moduli_dimension(net: TensorNetwork) -> int:
    """Complex dimension of the parameter space modulo gauge, for trees.

    Sums, over vertices, in_dim·(product of out dims) − in_dim². Only
    meaningful for directed trees with a single In edge; other topologies
    raise UnsupportedTopologyError.
    """
    q = net.quiver
    if len(q.in_edges) != 1 or not q.plan.is_tree:
        raise UnsupportedTopologyError(
            "moduli dimension formula applies to directed trees with one In edge"
        )
    total = 0
    for v in q.vertices:
        d_out, d_in = matrix_dims(net.vertex_tensor[v].shape, net.vertex_split(v))
        total += d_in * d_out - d_in * d_in
    return total


def real_stiefel_dim(net: TensorNetwork) -> int:
    """Total real dimension of the product of vertex Stiefel manifolds.

    Each vertex with grouped matrix shape (w, v) contributes 2wv − v².
    """
    total = 0
    for v in net.quiver.vertices:
        d_out, d_in = matrix_dims(net.vertex_tensor[v].shape, net.vertex_split(v))
        total += 2 * d_out * d_in - d_in * d_in
    return total


def _antihermitian_basis(d: int):
    """Real basis of the d²-dimensional space of anti-Hermitian d×d matrices."""
    for k in range(d):
        m = np.zeros((d, d), dtype=np.complex128)
        m[k, k] = 1j
        yield m
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = 1.0
            m[k, j] = -1.0
            yield m
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = 1j
            m[k, j] = 1j
            yield m


def _act_on_leg(t: np.ndarray, ax: int, m: np.ndarray) -> np.ndarray:
    """``t`` with the (d, d) matrix ``m`` applied to its leg ``ax``."""
    return np.moveaxis(np.tensordot(t, m, axes=([ax], [1])), -1, ax)


def _gauged_legs(net: TensorNetwork, v: int):
    """(edge, axis, is_in) for each leg of ``v`` on an internal or In edge."""
    ins, outs = net.quiver.vertex_in_edges(v), net.quiver.vertex_out_edges(v)
    legs = [(e, ax, True) for ax, e in enumerate(ins)]
    return legs + [(e, len(ins) + k, False) for k, e in enumerate(outs) if e in net.quiver.target]


def gauge_transform(net: TensorNetwork, unitaries: Mapping[int, np.ndarray]) -> TensorNetwork:
    """Act by a gauge group element: a unitary per internal or In edge.

    Each vertex tensor is composed with u_e on every outgoing internal edge
    and with u_e^{-1} on every incoming edge, i.e. with conj(u_e) = (u_e^{-1})ᵀ
    on that leg; Out edges are untouched. The evaluation map, hence every
    sequence probability, is unchanged.
    """
    for e, u in unitaries.items():
        if e not in net.quiver.target:
            raise ValueError(f"edge {e} is not an internal or In edge")
        if np.shape(u) != (net.edge_dim[e],) * 2:
            raise ValueError(f"unitary for edge {e} has wrong shape")
    new_tensors = {}
    for v in net.quiver.vertices:
        t = net.vertex_tensor[v]
        for e, ax, is_in in _gauged_legs(net, v):
            if e in unitaries:
                u = np.asarray(unitaries[e], dtype=np.complex128)
                t = _act_on_leg(t, ax, u.conj() if is_in else u)
        new_tensors[v] = t
    return net.with_tensors(new_tensors)


def gauge_orbit_rank(net: TensorNetwork) -> int:
    """Numerical rank of the gauge action's differential at the current point.

    A column of the real Jacobian J is the motion of every vertex tensor
    under one anti-Hermitian generator X on one internal or In edge: X on
    the edge's out leg at its source, −Xᵀ on its in leg at its target. A
    column touches at most two vertices, so JᵀJ is assembled vertex by
    vertex: each vertex adds J_v·J_vᵀ, where the rows of J_v are the real
    and imaginary parts of its own tensor's motion under each generator
    of its own gauged legs, at those edges' offsets. No rows × columns
    matrix is built. The rank counts the Gram eigenvalues above 1e-12 of
    the largest, i.e. singular values of J above 1e-6·σ_max; squaring
    puts true zeros near 1e-8·σ_max. For a generic tree the action is
    free, so the rank equals the summed squared edge dimensions, and
    (real parameter dim − rank)/2 recovers the moduli dimension. On MERA
    it falls short of that sum by E_gauged − V: edge phases that cancel
    at every vertex act trivially.
    """
    gauged = sorted(net.quiver.target)  # the internal and In edges
    sizes = [net.edge_dim[e] ** 2 for e in gauged]
    offset = dict(zip(gauged, np.cumsum([0] + sizes).tolist()))
    gram = np.zeros((sum(sizes), sum(sizes)))
    for v in net.quiver.vertices:
        t = net.vertex_tensor[v]
        gens = [(offset[e] + k, ax, -x.T if is_in else x) for e, ax, is_in in _gauged_legs(net, v)
                for k, x in enumerate(_antihermitian_basis(net.edge_dim[e]))]
        jv = np.empty((len(gens), t.size), dtype=np.complex128)
        for row, (_, ax, x) in zip(jv, gens):
            row[:] = _act_on_leg(t, ax, x).ravel()
        jv = jv.view(np.float64)  # real and imaginary parts interleaved
        cols = [col for col, _, _ in gens]
        gram[np.ix_(cols, cols)] += jv @ jv.T
    lam = np.linalg.eigvalsh(gram)
    if lam.size == 0 or lam[-1] <= 0.0:
        return 0
    return int(np.sum(lam > 1e-12 * lam[-1]))
