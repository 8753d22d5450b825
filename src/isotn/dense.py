"""Dense layer-map evaluation: the reference implementation.

A network evaluates as the ordered composition of its layer maps, each the
tensor product of one layer's vertex tensors and identities on the edges
that pass it. The layers are those of the quiver's plan
(``net.quiver.plan.layers``), the one layering the runtime kernels use
too; no caller supplies another. The same maps carry operators between
boundaries, the coarse-graining flow of Evenbly & Vidal, PRB 79, 144108
(2009). A layer map is as large as the square of its boundary space, so
this path is for small networks: the tests check the runtime kernels of
:mod:`isotn.network` against it, and no runtime module imports it.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import ShapeError
from .network import TensorNetwork, _require_model
from .tensor_core import astensor


def layer_boundaries(net: TensorNetwork) -> tuple[tuple[int, ...], ...]:
    """Edge sets (sorted by id) between consecutive layers.

    ``boundaries[0]`` is the In edges; ``boundaries[l+1]`` is the boundary
    after applying layer ``l``; the last one is the Out edges.
    """
    q = net.quiver
    bounds = [tuple(q.in_edges)]
    current = set(q.in_edges)
    for verts in q.plan.layers:
        consumed = {e for v in verts for e in q.vertex_in_edges(v)}
        produced = {e for v in verts for e in q.vertex_out_edges(v)}
        current = (current - consumed) | produced
        bounds.append(tuple(sorted(current)))
    return tuple(bounds)


def layer_map(net: TensorNetwork, level: int) -> np.ndarray:
    """Tensor-product map of layer ``l`` extended by identities.

    Returns a tensor whose axes are the outgoing boundary edges (sorted by
    id) followed by the incoming boundary edges (sorted by id); composing
    all layer maps in order reproduces :func:`evaluate`.
    """
    q = net.quiver
    layers = q.plan.layers
    if not 0 <= level < len(layers):
        raise ValueError(f"layer index {level} outside [0,{len(layers)})")
    bounds = layer_boundaries(net)
    b_in, b_out = bounds[level], bounds[level + 1]
    consumed = {e for v in layers[level] for e in q.vertex_in_edges(v)}

    parts: list[np.ndarray] = []
    labels: list[tuple[str, int]] = []
    for v in layers[level]:
        parts.append(net.vertex_tensor[v])
        labels += [("in", e) for e in q.vertex_in_edges(v)]
        labels += [("out", e) for e in q.vertex_out_edges(v)]
    for e in b_in:
        if e not in consumed:
            d = net.edge_dim[e]
            parts.append(np.eye(d, dtype=np.complex128))
            labels += [("in", e), ("out", e)]

    big = reduce(lambda a, b: np.tensordot(a, b, axes=0), parts)
    perm = [labels.index(("out", e)) for e in b_out] + [labels.index(("in", e)) for e in b_in]
    return astensor(big.transpose(perm))


def _dim(net: TensorNetwork, edges) -> int:
    """Dimension of the tensor product of the spaces on ``edges``."""
    return math.prod(net.edge_dim[e] for e in edges)


def _compose(net: TensorNetwork, start: int, stop: int, x=None) -> np.ndarray:
    """Apply the layer maps from boundary ``start`` to ``stop``, in order, to ``x``.

    Each map is grouped as a (prod out dims, prod in dims) matrix. Without
    ``x`` the result is their product, the identity on boundary ``start``
    when the range is empty.
    """
    bounds = layer_boundaries(net)
    if x is None:
        x = np.eye(_dim(net, bounds[start]), dtype=np.complex128)
    for level in range(start, stop):
        m = layer_map(net, level).reshape(_dim(net, bounds[level + 1]), _dim(net, bounds[level]))
        x = m @ x
    return x


def _check_boundary(net: TensorNetwork, level: int) -> None:
    n_layers = len(net.quiver.plan.layers)
    if not 0 <= level <= n_layers:
        raise ValueError(f"boundary index {level} outside [0,{n_layers}]")


def _square(op: np.ndarray, d: int) -> np.ndarray:
    """``op`` as a complex (d, d) matrix."""
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (d, d):
        raise ShapeError(f"operator shape {op.shape} != ({d},{d})")
    return op


def evaluate(net: TensorNetwork) -> np.ndarray:
    """Full evaluation map of the network.

    Axes are the Out edges in canonical order followed by the In edges;
    for a closed network the result is a scalar. Computed as the ordered
    composition of the layer maps.
    """
    in_dims = [net.edge_dim[e] for e in net.quiver.in_edges]
    mat = _compose(net, 0, len(net.quiver.plan.layers))
    return astensor(mat.reshape(list(net.site_dims) + in_dims))


def state(net: TensorNetwork) -> np.ndarray:
    """The normalized state: the evaluation map applied to 1.

    Requires a single In edge of dimension 1; returns a rank-n tensor over
    the Out spaces.
    """
    _require_model(net)
    return astensor(evaluate(net)[..., 0])


def intermediate_state(net: TensorNetwork, level: int) -> np.ndarray:
    """State vector on boundary ``l`` (0 = In side, len(layers) = Out side)."""
    _require_model(net)
    _check_boundary(net, level)
    return astensor(_compose(net, 0, level, np.ones(1, dtype=np.complex128)))


def operator_flow(net: TensorNetwork, op: np.ndarray, level: int) -> np.ndarray:
    """Pull a base-layer operator back to boundary ``l``.

    ``op`` is a square matrix on the full Out space. The result is
    c† op c with c the composition of the layer maps from boundary
    ``level`` down to the base, a square matrix on that boundary's space.
    Its expectation in the intermediate state there equals the expectation
    of ``op`` in the full state.
    """
    _check_boundary(net, level)
    op = _square(op, _dim(net, net.quiver.out_edges))
    c = _compose(net, level, len(net.quiver.plan.layers))
    return astensor(c.conj().T @ op @ c)


def operator_descend(net: TensorNetwork, op: np.ndarray, level: int) -> np.ndarray:
    """Push a boundary-``level`` operator down to the base layer: c op c†.

    The inverse direction of :func:`operator_flow` up to the projector onto
    the image of c; expectations in the network state are preserved, since
    the state lies in that image.
    """
    _check_boundary(net, level)
    op = _square(op, _dim(net, layer_boundaries(net)[level]))
    c = _compose(net, level, len(net.quiver.plan.layers))
    return astensor(c @ op @ c.conj().T)
