"""Exact autoregressive sampling from the Born distribution.

Each symbol is drawn from its conditional given the already-fixed prefix,
the diagonal of the reduced density matrix at its position with the prefix
projected out. The conditionals are exact, so the chain of draws reproduces
the joint Born probability exactly.

One kernel gives the conditionals of a block of rows at once, for
:func:`sample` (every draw of a block advances one position at a time) and
:func:`conditional_distribution` (a block of one row). On directed trees,
chains included, every vertex is an isometry, so a subtree with no fixed
leaf contracts to the identity and a conditional needs only the path from
the root to its leaf (Ferris & Vidal, arXiv:1201.3974). The kernel caches
the doubled up-message of every edge with a fixed leaf below it and the
top-down reduced density along the current root-to-leaf path, both as
(B, d, d) arrays rescaled to unit trace, so the step from position k-1 to
k recontracts only the edges between those two leaves and their lowest
common ancestor, each vertex by the doubled sweep's ket-bra step. Other
DAGs (MERA) contract the state once per call and read every conditional
from its |ψ|² marginal tables.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Sequence

import numpy as np

from .errors import ConditioningError
from .network import SequenceState, TensorNetwork, _open_state, _require_model, sequence_array
from .network import _ket, _ket_bra

# conditionals smaller than this total mass are treated as exactly zero
_MASS_FLOOR = 1e-300

# draws that advance together; bounds the kernel's memory, not its results
_BLOCK_ROWS = 64


def conditional_distribution(net: TensorNetwork, prefix: Sequence[int]) -> np.ndarray:
    """Distribution of the next symbol given the fixed prefix.

    ``prefix`` fixes positions 0..k-2; the returned vector is the exact
    conditional for position k-1 = len(prefix), nonnegative and summing
    to 1. Raises ConditioningError when the prefix itself has zero
    probability. On trees one root-to-leaf path and the up-messages of the
    prefix's subtrees are contracted; other DAGs marginalize the state.
    """
    k = len(prefix)
    if k >= net.n_sites:
        raise ValueError(f"prefix length {k} must be < {net.n_sites}")
    seqs = sequence_array(net, [prefix], k)
    return _normalize(_kernel(net)(seqs)(k), seqs)[0]


def sample(
    net: TensorNetwork, count: int, rng: np.random.Generator
) -> list[SequenceState]:
    """Draw ``count`` i.i.d. sequences by the recursive conditional scheme.

    Inverse-CDF draws use strict ``u < cumulative`` comparison over the
    symbol index order, so identical generator streams give identical
    samples on any platform. Draw i at position k uses uniform i·n + k of
    the stream, whatever the block size.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    n = net.n_sites
    kernel = _kernel(net)
    draws: list[SequenceState] = []
    for start in range(0, count, _BLOCK_ROWS):
        u = rng.random((min(_BLOCK_ROWS, count - start), n))
        seqs = np.zeros(u.shape, dtype=np.int64)
        weights = kernel(seqs)
        for k in range(n):
            cum = np.cumsum(_normalize(weights(k), seqs[:, :k]), axis=1)
            seqs[:, k] = _inverse_cdf(cum, u[:, k])
        draws += map(tuple, seqs.tolist())
    return draws


def _normalize(weights: np.ndarray, prefixes: np.ndarray) -> np.ndarray:
    """Rows of ``weights`` clipped at zero and divided by their sums."""
    if np.any(weights < -1e-12):
        raise ValueError(f"negative conditional weight {weights.min():.3e}; numerical bug")
    weights = np.clip(weights, 0.0, None)
    total = weights.sum(axis=1)
    empty = np.flatnonzero(total <= _MASS_FLOOR)
    if empty.size:
        raise ConditioningError(tuple(prefixes[empty[0]].tolist()))
    return weights / total[:, None]


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first index whose cumulative sum exceeds ``u``."""
    k = np.sum(cum <= u[:, None], axis=1)
    for b in np.flatnonzero(k >= cum.shape[1]):
        # u >= cum[-1]: the normalized cumsum can end at 1 - 2**-53
        k[b] = np.max(np.nonzero(np.diff(np.concatenate(([0.0], cum[b]))) > 0.0))
    return k


def _kernel(net: TensorNetwork) -> Callable[[np.ndarray], Callable[[int], np.ndarray]]:
    """The conditional kernel of ``net``, set up once per call.

    Given a (B, ≥k) symbol array it returns ``weights``: ``weights(k)`` is
    the (B, w_k) array of unnormalized conditional weights at position k,
    each row conditioned on its own symbols at positions 0..k-1. Call it
    with k = 0, 1, ... while filling in the array's columns in that order.
    """
    _require_model(net)
    if net.quiver.plan.is_tree:
        return lambda seqs: _TreePaths(net, seqs).weights
    # tables[j]: |ψ|² summed over positions j..n-1, one axis per position < j
    tables = [np.abs(_open_state(net)) ** 2]
    for _ in range(net.n_sites):
        tables.insert(0, tables[0].sum(axis=-1))
    dims = net.site_dims
    return lambda seqs: lambda k: np.broadcast_to(
        tables[k + 1][tuple(seqs[:, :k].T)], (len(seqs), dims[k]))


class _TreePaths:
    """Conditionals of one block of rows on a directed tree.

    An up-message (bra, ket) on edge e contracts the subtree below e with
    its fixed leaves gathered at each row's symbols, and stays valid while
    the number of fixed positions below e is unchanged. The reduced density
    ρ on edge e contracts everything outside that subtree. Positions are
    fixed in increasing order, so every ρ on the previous leaf's path stays
    valid; the ones in ``rho``, in insertion order, are exactly that path.
    """

    def __init__(self, net: TensorNetwork, seqs: np.ndarray):
        q = net.quiver
        self.net, self.plan, self.seqs = net, q.plan, seqs
        self.source, self.target, self.out_edges = q.source, q.target, q.out_edges
        # the fixed positions' symbol columns, views that see later draws
        self.cols: dict[int, np.ndarray] = {}
        self.up: dict[int, tuple[int, np.ndarray]] = {}
        root = q.in_edges[0]
        self.rho = {root: np.ones((seqs.shape[0], 1, 1), dtype=np.complex128)}

    def weights(self, k: int) -> np.ndarray:
        """The (B, w_k) diagonal of ρ at position k, positions < k fixed."""
        for p in range(len(self.cols), k):
            self.cols[p] = self.seqs[:, p]
        v = self.source[self.out_edges[k]]
        edge, path = self.plan.in_edge[v], []
        while edge not in self.rho:
            path.append(edge)
            edge = self.plan.in_edge[self.source[edge]]
        while next(reversed(self.rho)) != edge:
            self.rho.popitem()
        for edge in reversed(path):
            self.rho[edge] = _unit_trace(self._descend(self.source[edge], k, edge))
        return self._descend(v, k).real

    def _descend(self, v: int, k: int, edge: int | None = None) -> np.ndarray:
        """ρ on the out edge ``edge`` of ``v`` as (B, d, d), or without one
        the (B, w) diagonal of ρ on the leaf leg at position k."""
        x, y, axis = _ket(self.net, v, self.cols, self._messages(v, k, edge))
        d_in = x.shape[1]
        rho = self.rho[self.plan.in_edge[v]]
        b = len(rho)
        open_axis = axis[self.out_edges[k] if edge is None else edge]
        if y is x and all(p >= k for p in self.plan.legs[v].leaf_positions):
            # no row data at v: fold the vertex with its conjugate once, then
            # apply that superoperator to every row's ρ
            t = np.swapaxes(x[0], open_axis - 1, 1)
            d = t.shape[1]
            if edge is None:  # g[ī, i, a] = Σ_r conj(t[ī, a, r]) t[i, a, r]
                t = t.reshape(d_in, d, -1).transpose(1, 0, 2)
                g = (t.conj() @ t.transpose(0, 2, 1)).transpose(1, 2, 0)
                return rho.reshape(b, -1) @ g.reshape(d_in * d_in, d)
            t = t.reshape(d_in * d, -1)  # g[ī, ō, i, o] = Σ_r conj(t[ī, ō, r]) t[i, o, r]
            g = _ket_bra(t, t, 0).reshape(d_in, d, d_in, d).transpose(0, 2, 1, 3)
            return (rho.reshape(b, -1) @ g.reshape(d_in * d_in, d * d)).reshape(b, d, d)
        z = (rho @ y.reshape(len(y), d_in, -1)).reshape((b,) + y.shape[1:])
        x, z = np.swapaxes(x, open_axis, 1), np.swapaxes(z, open_axis, 1)
        if edge is None:
            d = x.shape[1]
            return np.sum(x.reshape(len(x), d, -1).conj() * z.reshape(b, d, -1), axis=2)
        return _ket_bra(x, z)

    def _messages(self, v: int, k: int, skip: int | None = None) -> dict[int, np.ndarray | None]:
        """The up-message of every internal leg of ``v`` but ``skip``."""
        return {e: self._message(e, k) for e in self.plan.legs[v].inner_edges if e != skip}

    def _message(self, edge: int, k: int) -> np.ndarray | None:
        """The up-message on ``edge``, or None (the identity) below no fixed leaf."""
        count = bisect_left(self.plan.below[edge], k)
        if count == 0:
            return None
        hit = self.up.get(edge)
        if hit is not None and hit[0] == count:
            return hit[1]
        # recompute the stale messages below, children before parents
        todo, order = [edge], []
        while todo:
            e = todo.pop()
            order.append(e)
            for c in self.plan.legs[self.target[e]].inner_edges:
                n_c = bisect_left(self.plan.below[c], k)
                if n_c and self.up.get(c, (0,))[0] != n_c:
                    todo.append(c)
        for e in reversed(order):
            v = self.target[e]
            x, y, _ = _ket(self.net, v, self.cols, self._messages(v, k))
            n_e = bisect_left(self.plan.below[e], k)
            self.up[e] = (n_e, _unit_trace(_ket_bra(x, y)))
            if n_e == len(self.plan.below[e]):  # final: no later step reads the children
                for c in self.plan.legs[v].inner_edges:
                    self.up.pop(c, None)
        return self.up[edge][1]


def _unit_trace(m: np.ndarray) -> np.ndarray:
    """(B, d, d) rows divided by their traces; a zero row stays zero.

    The scale cancels in the final normalization, and it keeps products
    over long prefixes from underflowing.
    """
    tr = np.trace(m, axis1=1, axis2=2).real
    return m / np.where(tr > 0.0, tr, 1.0)[:, None, None]
