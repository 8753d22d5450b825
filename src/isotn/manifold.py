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
from .network import TensorNetwork
from .tensor_core import as_stack, from_stack, matrix_dims, project_to_isometry

TangentVector = dict[int, np.ndarray]


def _stack(arrays: Mapping[int, np.ndarray], verts: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """The arrays of one shape group's ``verts`` stacked as a (k, *shape)
    complex copy; a missing or misshapen direction raises ValueError
    naming its vertex."""
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
    projection is idempotent. Each shape group runs at once on its
    transposed stacks A = Uᵀ, B = Gᵀ: with K = B·A†, ξᵀ = B − herm(K)·A.
    """
    out: TangentVector = {}
    for verts, shape, split in net.shape_groups():
        g = _stack(raw, verts, shape)
        a, b = as_stack(_stack(net.vertex_tensor, verts, shape), split), as_stack(g, split)
        k = b @ np.swapaxes(a, 1, 2).conj()
        b -= (k + np.swapaxes(k, 1, 2).conj()) / 2.0 @ a
        out.update(zip(verts, from_stack(b, g.shape, split)))
    return out


def tangency_violation(net: TensorNetwork, xi: Mapping[int, np.ndarray]) -> float:
    """max over vertices of ‖U†ξ + ξ†U‖_max (0 for an exact tangent)."""
    worst = 0.0
    for verts, shape, split in net.shape_groups():
        a = as_stack(_stack(net.vertex_tensor, verts, shape), split)
        x = as_stack(_stack(xi, verts, shape), split)
        sym = x @ np.swapaxes(a, 1, 2).conj()  # (U†ξ)ᵀ, whose sum with its adjoint has the same moduli
        worst = max(worst, float(np.max(np.abs(sym + np.swapaxes(sym, 1, 2).conj()))))
    return worst


def retract(net: TensorNetwork, xi: Mapping[int, np.ndarray], step: float) -> TensorNetwork:
    """Move every vertex by ``step``·ξ and snap back to the nearest isometry,
    one polar factor call per shape group."""
    new_tensors = {}
    for verts, shape, split in net.shape_groups():
        moved = _stack(xi, verts, shape) * step + _stack(net.vertex_tensor, verts, shape)
        new_tensors.update(zip(verts, project_to_isometry(moved, split)))
    return net.with_tensors(new_tensors)


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


def gauge_transform(net: TensorNetwork, unitaries: Mapping[int, np.ndarray]) -> TensorNetwork:
    """Act by a gauge group element: a unitary per internal or In edge.

    Each vertex tensor is composed with u_e on every outgoing internal edge
    and with u_e^{-1} on every incoming edge; Out edges are untouched. The
    evaluation map, hence every sequence probability, is unchanged.
    """
    q = net.quiver
    gauged = set(q.internal_edges) | set(q.in_edges)
    for e, u in unitaries.items():
        if e not in gauged:
            raise ValueError(f"edge {e} is not an internal or In edge")
        d = net.edge_dim[e]
        if np.asarray(u).shape != (d, d):
            raise ValueError(f"unitary for edge {e} has wrong shape")
    new_tensors = {}
    for v in q.vertices:
        t = net.vertex_tensor[v]
        ins = q.vertex_in_edges(v)
        outs = q.vertex_out_edges(v)
        for ax, e in enumerate(ins):
            if e in unitaries:
                inv = np.asarray(unitaries[e], dtype=np.complex128).conj().T
                t = np.moveaxis(np.tensordot(t, inv, axes=([ax], [0])), -1, ax)
        for k, e in enumerate(outs):
            if e in unitaries:
                u = np.asarray(unitaries[e], dtype=np.complex128)
                ax = len(ins) + k
                t = np.moveaxis(np.tensordot(t, u, axes=([ax], [1])), -1, ax)
        new_tensors[v] = t
    return net.with_tensors(new_tensors)


def gauge_orbit_rank(net: TensorNetwork) -> int:
    """Numerical rank of the gauge action's differential at the current point.

    Columns of the (real) Jacobian are the infinitesimal motions of all
    vertex tensors under one anti-Hermitian generator on one internal or In
    edge; the rank counts singular values above 1e-8 of the largest. For a
    generic tree the action is free, so the rank equals the summed squared
    edge dimensions, and (real parameter dim − rank)/2 recovers the moduli
    dimension.
    """
    q = net.quiver
    gauged = sorted(set(q.internal_edges) | set(q.in_edges))
    rows = sum(2 * net.vertex_tensor[v].size for v in q.vertices)
    cols = sum(net.edge_dim[e] ** 2 for e in gauged)
    if cols == 0:
        return 0
    jac = np.zeros((rows, cols), dtype=np.float64)
    col = 0
    for e in gauged:
        touched = []
        for v in q.vertices:
            ins = q.vertex_in_edges(v)
            outs = q.vertex_out_edges(v)
            if e in ins:
                touched.append((v, "in", ins.index(e)))
            if e in outs:
                touched.append((v, "out", len(ins) + outs.index(e)))
        for gen in _antihermitian_basis(net.edge_dim[e]):
            deltas = {}
            for v, side, ax in touched:
                t = net.vertex_tensor[v]
                if side == "out":
                    d = np.moveaxis(np.tensordot(t, gen, axes=([ax], [1])), -1, ax)
                else:
                    d = -np.moveaxis(np.tensordot(t, gen, axes=([ax], [0])), -1, ax)
                deltas[v] = deltas.get(v, 0) + d
            chunks = []
            for v in q.vertices:
                d = deltas.get(v)
                flat = np.zeros(net.vertex_tensor[v].size, dtype=np.complex128) if d is None else d.ravel()
                chunks.append(flat.real)
                chunks.append(flat.imag)
            jac[:, col] = np.concatenate(chunks)
            col += 1
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-8 * sv[0]))
