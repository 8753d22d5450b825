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
reduced density along the current root-to-leaf path, both as (B, d, d)
arrays rescaled to unit trace, so the step from position k-1 to k
recontracts only the edges between those two leaves and their lowest
common ancestor, each vertex by one ket-bra step. An up-message changes
only while the path runs through its edge, so it is remade when the path
leaves that edge. Those steps are compiled once per quiver
(:func:`_steps`). A vertex with no row data is folded with its conjugate
once and kept on the network, whose tensors are read-only, in a memo of
at most the tensors' bytes.
Other DAGs (MERA) run the doubled network's compiled path with the prefix
gathered per row and position k open, over the causal cone of those legs.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConditioningError, _brief
from .graph import Quiver
from .network import SequenceState, TensorNetwork, _doubled, _require_model, sequence_array, whole_number

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
    prefix's subtrees are contracted, on other DAGs the doubled causal cone.
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
    return [s for block in sample_blocks(net, count, rng) for s in block]


def sample_blocks(
    net: TensorNetwork, count: int, rng: np.random.Generator
) -> Iterator[list[SequenceState]]:
    """The draws of :func:`sample`, a block of up to :data:`_BLOCK_ROWS` at
    a time, each yielded as soon as it is drawn. ``count`` is read as a
    whole number (``2.0`` reads as 2)."""
    count = whole_number(count, "count")
    if count < 0:
        raise ValueError("count must be nonnegative")
    kernel = _kernel(net) if count else None
    for start in range(0, count, _BLOCK_ROWS):
        u = rng.random((min(_BLOCK_ROWS, count - start), net.n_sites))
        seqs = np.zeros(u.shape, dtype=np.int64)
        weights = kernel(seqs)
        for k in range(net.n_sites):
            cum = _normalize(weights(k), seqs[:, :k]).cumsum(axis=1)
            seqs[:, k] = _inverse_cdf(cum, u[:, k])
        yield list(map(tuple, seqs.tolist()))


def _normalize(weights: np.ndarray, prefixes: np.ndarray) -> np.ndarray:
    """Rows of ``weights`` clipped at zero and divided by their sums."""
    low = weights.min()
    if low < 0.0:
        if low < -1e-12:
            b = int(np.argmin(weights.min(axis=1)))
            raise ValueError(f"negative conditional weight {low:.3e} at position {prefixes.shape[1]} "
                             f"in row {b}, prefix {_brief(tuple(prefixes[b].tolist()))}; numerical bug")
        weights = np.maximum(weights, 0.0)
    total = weights.sum(axis=1)
    if total.min() <= _MASS_FLOOR:
        raise ConditioningError(tuple(prefixes[np.argmax(total <= _MASS_FLOOR)].tolist()))
    return weights / total[:, None]


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first index whose cumulative sum exceeds ``u``."""
    k = (cum <= u[:, None]).sum(axis=1)
    if k.max() >= cum.shape[1]:
        for b in np.flatnonzero(k >= cum.shape[1]):
            # u >= cum[-1]: the normalized cumsum can end at 1 - 2**-53
            k[b] = np.max(np.nonzero(np.diff(np.concatenate(([0.0], cum[b]))) > 0.0))
    return k


def _kernel(net: TensorNetwork) -> Callable[[np.ndarray], Callable[[int], np.ndarray]]:
    """The conditional kernel of ``net``, set up once per call.

    Given a (B, ≥k) symbol array it returns ``weights``: ``weights(k)`` is
    the (B, w_k) array of unnormalized conditional weights at position k,
    each row conditioned on its own symbols at positions 0..k-1. Call it
    with k = 0, 1, ... while filling in the columns in turn, or at any k once.
    On trees a k past the next one steps through the positions in between.
    """
    _require_model(net)
    if net.quiver.plan.is_tree:
        return lambda seqs: _TreePaths(net, seqs).weights
    return lambda seqs: lambda k: _doubled(net, {}, [(k,)], seqs[:, :k])[0].real


class _TreePaths:
    """Conditionals of one block of rows on a directed tree. An up-message
    (bra, ket) on edge e contracts the subtree below e with its fixed leaves
    gathered at each row's symbols; ``up`` holds the ones later steps read.
    The reduced density ρ on edge e contracts everything outside that
    subtree; ``rho`` holds the ρ's of the current root-to-leaf path, root
    first, and ``path`` the descents that make them. A row axis of length 1
    serves every row."""

    def __init__(self, net: TensorNetwork, seqs: np.ndarray):
        self.net, self.seqs = net, seqs
        self.memo = net.__dict__.setdefault("_tree_memo", {None: sum(r.nbytes for r in net.vertex_tensor.runs)})
        self.up, self.rho, self.path, self.next = {}, [np.ones((1, 1, 1), dtype=np.complex128)], [], 0

    def weights(self, k: int) -> np.ndarray:
        """The (B, w_k) diagonal of ρ at position k, positions < k fixed,
        after the steps from the last position asked for up to k. Only the
        ρ's on the path at k are made."""
        for msgs, keep, descents in _steps(self.net.quiver)[self.next:k + 1]:
            for e, ket, drop in msgs:
                self.up[e] = _unit_trace(_ket_bra(*self._ket(*ket)))
                for c in drop:
                    del self.up[c]
            del self.rho[keep:], self.path[keep - 1:]
            self.path += descents[:-1]
        for op in self.path[len(self.rho) - 1:]:
            self.rho.append(_unit_trace(self._descend(self.rho[-1], *op)))
        self.next = k + 1
        w = self._descend(self.rho[-1], *descents[-1]).real
        return w if len(w) == len(self.seqs) else np.broadcast_to(w, (len(self.seqs), w.shape[1]))

    def _folded(self, v: int, axis: int, leaf: bool) -> np.ndarray:
        """:func:`_fold` of vertex ``v`` for its out leg at ``axis``, kept on
        the network while there is room (the bytes left, at key None)."""
        g = self.memo.get((v, axis))
        if g is None:
            g = _fold(self.net.vertex_tensor[v].swapaxes(axis - 1, 1), leaf)
            if g.nbytes <= self.memo[None]:
                self.memo[None] -= g.nbytes
                self.memo[v, axis] = g
        return g

    def _descend(self, rho: np.ndarray, ket: tuple, axis: int, leaf: bool, fold: bool) -> np.ndarray:
        """ρ on the out leg at ``axis`` of :meth:`_ket` ``ket`` from ``rho`` on
        its in leg as (B, d, d), or for a leaf leg the (B, w) diagonal."""
        if fold:  # no row data at the vertex: one superoperator for every row
            g = self._folded(ket[0], axis, leaf)
            return (rho.reshape(len(rho), -1) @ g.reshape(len(g), -1)).reshape((len(rho),) + g.shape[1:])
        x, y = self._ket(*ket)
        z = rho @ y.reshape(len(y), x.shape[1], -1)
        x, z = x.swapaxes(axis, 1), z.reshape((len(z),) + y.shape[1:]).swapaxes(axis, 1)
        if leaf:
            return (x.reshape(x.shape[:2] + (-1,)).conj() * z.reshape(z.shape[:2] + (-1,))).sum(axis=2)
        return _ket_bra(x, z)

    def _ket(self, v: int, order: tuple, fixed: tuple, mats: tuple) -> tuple[np.ndarray, np.ndarray]:
        """x: vertex ``v``'s tensor, axes in ``order``, the leaves at positions
        ``fixed`` gathered per row, as (B or 1, d_in, *open legs); y: x with
        the up-message of each (edge, axis) in ``mats`` on the ket side."""
        moved = self.net.vertex_tensor[v].transpose(order)
        x = moved[tuple(self.seqs[:, p] for p in fixed)] if fixed else moved[None]
        y = x
        for e, i in mats:  # y'[b, .., ō, ..] = Σ_o m[b, ō, o] y[b, .., o, ..]
            y = y.swapaxes(i, -1)
            out = y.reshape(len(y), -1, y.shape[-1]) @ self.up[e].swapaxes(-1, -2)
            y = out.reshape((len(out),) + y.shape[1:]).swapaxes(-1, i)
        return x, y


def _fold(t: np.ndarray, leaf: bool) -> np.ndarray:
    """t (d_in, d, ...) times its conjugate, legs after d traced: (d_in², d) for a leaf, else (d_in², d, d)."""
    d_in, d = t.shape[:2]
    if leaf:  # g[ī, i, a] = Σ_r conj(t[ī, a, r]) t[i, a, r]
        t = t.reshape(d_in, d, -1).transpose(1, 0, 2)
        return (t.conj() @ t.transpose(0, 2, 1)).transpose(1, 2, 0).reshape(d_in * d_in, d)
    t = t.reshape(d_in * d, -1)  # g[ī, ō, i, o] = Σ_r conj(t[ī, ō, r]) t[i, o, r]
    return (t.conj() @ t.T).reshape(d_in, d, d_in, d).transpose(0, 2, 1, 3).reshape(d_in * d_in, d, d)


def _steps(q: Quiver) -> tuple:
    """The tree kernel's steps on ``q`` from position k-1 to k for every k,
    cached on its plan. A step is (up-messages to remake, deepest first,
    each with the children's messages it ends; ρ's kept; ρ's to redo, then
    the leaf).
    An up-message changes only when a leaf below its edge is fixed, and the
    path is then inside its subtree, so it is remade when the path leaves
    its edge and stays fresh until the path comes back."""
    if not q.plan.tree_steps:
        q.plan.tree_steps[None] = tuple(map(_Replay(q).step, range(len(q.out_edges))))
    return q.plan.tree_steps[None]


class _Replay:
    """The tree kernel's bookkeeping, on the graph alone: the current path,
    root first, and each edge's first and last position below it."""

    def __init__(self, q: Quiver):
        self.q, self.pos, self.path = q, q.plan.out_position, dict.fromkeys(q.in_edges)
        self.in_edge = {v: q.vertex_in_edges(v)[0] for v in q.vertices}
        self.span = {e: (p, p) for e, p in self.pos.items()}
        for v in [v for layer in q.plan.layers for v in layer][::-1]:  # children first
            firsts, lasts = zip(*(self.span[e] for e in q.vertex_out_edges(v)))
            self.span[self.in_edge[v]] = min(firsts), max(lasts)

    def step(self, k: int) -> tuple:
        """The step from position k-1 to k, after those to every earlier k."""
        msgs, src, leaf = [], self.q.source, self.q.out_edges[k]
        edge, new = self.in_edge[src[leaf]], []
        while edge not in self.path:
            new.append(edge)
            edge = self.in_edge[src[edge]]
        while next(reversed(self.path)) != edge:  # the edges holding leaf k-1, not k
            left = self.path.popitem()[0]
            ket = self._at(self.q.target[left], k)[0]
            done = self.span[left][1] < k  # then no later step reads the children
            msgs.append((left, ket, tuple(c for c, _ in ket[3]) if done else ()))
        keep = len(self.path)
        self.path.update(dict.fromkeys(reversed(new)))
        descents = tuple(self._at(src[e], k, e) for e in (*reversed(new), leaf))
        return tuple(msgs), keep, descents

    def _at(self, v: int, k: int, edge: int | None = None) -> tuple:
        """:meth:`_TreePaths._descend`'s arguments at ``v`` to ``edge`` at k;
        an internal edge off the path with a fixed leaf below is read as its
        up-message, else it is the identity."""
        legs = list(enumerate(self.q.vertex_out_edges(v), start=1))
        fixed = [(ax, self.pos[e]) for ax, e in legs if self.pos.get(e, k) < k]
        kept = [(ax, e) for ax, e in legs if self.pos.get(e, k) >= k]
        axis = {e: i for i, (_, e) in enumerate(kept, start=2)}
        mats = tuple((e, i) for e, i in axis.items() if e != edge and self.span[e][0] < k)
        ket = v, tuple(ax for ax, _ in [*fixed, (0, None), *kept]), tuple(p for _, p in fixed), mats
        return ket, axis.get(edge), edge in self.pos, not (fixed or mats)


def _unit_trace(m: np.ndarray) -> np.ndarray:
    """(B, d, d) rows divided by their traces; a zero row stays zero.

    The scale cancels in the final normalization, and it keeps products
    over long prefixes from underflowing.
    """
    tr = m.trace(axis1=1, axis2=2).real
    return m / (tr if tr.min() > 0.0 else np.where(tr > 0.0, tr, 1.0))[:, None, None]


def _ket_bra(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (B, d_in, d_in) message Σ_r conj(x[b, ī, r]) y[b, i, r] on the in
    leg, every other leg of x and y traced."""
    d = x.shape[1]
    return x.reshape(len(x), d, -1).conj() @ y.reshape(len(y), d, -1).swapaxes(1, 2)
