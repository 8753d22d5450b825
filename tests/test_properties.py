"""Property tests of the doubled network and the sampler's conditionals
against the dense state, on every topology.

The random trees are directed trees whose Out-edge ids are shuffled, so a
leaf's sequence position need not follow depth-first order, and whose
vertices have mixed leaf and internal legs in any order; the interleaved
trees put each leaf at a random vertex. The standard networks are the
chains, binary trees and MERAs of ``random_network``.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isotn.dense import state
from isotn.graph import Quiver
from isotn.network import (
    TensorNetwork,
    amplitude,
    random_network,
    random_tensors,
    site_marginal,
    site_operator_expectation,
)
from isotn.sampling import conditional_distribution, sample

from conftest import philox


@st.composite
def random_trees(draw):
    """A Haar-random isometric network on a random directed tree.

    2–6 leaves, fan-out 1–3 (below level 4, only as much fan-out as
    keeps the depth finite), site dims 2–3, internal dims 1–4 capped so
    every vertex can be an isometry.
    """
    source, target, internal, leaf_sources = {}, {0: 0}, [], []
    vertices = [0]

    def grow(v, leaves, depth):
        fan = draw(st.integers(1 if depth < 4 else min(leaves, 3), min(3, leaves)))
        cuts = sorted(draw(st.lists(st.integers(1, leaves - 1), min_size=fan - 1,
                                    max_size=fan - 1, unique=True))) if fan > 1 else []
        for size in np.diff([0, *cuts, leaves]).tolist():
            if size == 1 and (depth >= 4 or draw(st.booleans())):
                leaf_sources.append(v)
                continue
            e, child = 1 + len(internal), len(vertices)
            internal.append(e)
            vertices.append(child)
            source[e], target[e] = v, child
            grow(child, size, depth + 1)

    n = draw(st.integers(2, 6))
    grow(0, n, 1)
    base = 1 + len(internal)
    out_ids = draw(st.permutations(range(base, base + n)))
    for e, v in zip(out_ids, leaf_sources):
        source[e] = v
    q = Quiver(tuple(vertices), tuple(internal), (0,), tuple(out_ids), source, target)
    dims = {0: 1, **{e: draw(st.integers(2, 3)) for e in out_ids}}
    for e in sorted(internal, reverse=True):  # children have larger ids than parents
        room = int(np.prod([dims[o] for o in q.vertex_out_edges(target[e])]))
        dims[e] = min(draw(st.integers(1, 4)), room)
    return TensorNetwork(q, dims, random_tensors(q, dims, philox(draw(st.integers(0, 2**16)))))


@st.composite
def interleaved_trees(draw):
    """A Haar-random isometric network on a random directed tree of 1–5
    vertices whose 1–8 leaves sit at random vertices (each childless vertex
    holds one), so that consecutive positions jump between subtrees. Site
    dims 2–3, internal dims 1–4 capped so every vertex can be an isometry."""
    n_v = draw(st.integers(1, 5))
    parent = {v: draw(st.integers(0, v - 1)) for v in range(1, n_v)}  # vertex v hangs on edge v
    owners = [v for v in range(n_v) if v not in parent.values()]
    owners += draw(st.lists(st.integers(0, n_v - 1), max_size=8 - len(owners)))
    owners = draw(st.permutations(owners))  # the vertex of each position
    outs = tuple(range(n_v, n_v + len(owners)))
    q = Quiver(tuple(range(n_v)), tuple(parent), (0,), outs, {**parent, **dict(zip(outs, owners))},
               {0: 0, **{v: v for v in parent}})
    dims = {0: 1, **{e: draw(st.integers(2, 3)) for e in outs}}
    for e in sorted(parent, reverse=True):
        dims[e] = min(draw(st.integers(1, 4)), math.prod(dims[o] for o in q.vertex_out_edges(e)))
    return TensorNetwork(q, dims, random_tensors(q, dims, philox(draw(st.integers(0, 2**16)))))


@st.composite
def standard_networks(draw):
    """A Haar-random chain (2–6 sites), binary tree or MERA (2, 4 or 8
    sites), site dims 2–3, bond cap 1–4. An 8-site MERA has site dim 2:
    at 3 the dense oracle's layer maps take seconds."""
    kind = draw(st.sampled_from(["chain", "tree", "mera"]))
    n = draw(st.integers(2, 6)) if kind == "chain" else draw(st.sampled_from([2, 4, 8]))
    w = 2 if (kind, n) == ("mera", 8) else draw(st.integers(2, 3))
    return random_network(kind, n, w, draw(st.integers(1, 4)), philox(draw(st.integers(0, 2**16))))


def hermitian(d, gen):
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return a + a.conj().T


def dense_doubled(psi, ops, open_pos):
    """Σ over the closed positions of conj(ψ)·(⊗ ops)ψ, the open ones kept."""
    ket = psi
    for p, o in ops.items():
        ket = np.moveaxis(np.tensordot(o, ket, axes=([1], [p])), 0, p)
    closed = tuple(ax for ax in range(psi.ndim) if ax not in open_pos)
    return np.sum(psi.conj() * ket, axis=closed)


def check_against_dense_state(net, data):
    """Marginals (1–3 open legs, up to 2 operators) and an expectation."""
    n, dims = net.n_sites, net.site_dims
    psi = state(net)
    opened = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                       max_size=min(3, n), unique=True)))
    rest = [p for p in range(n) if p not in opened]
    op_pos = data.draw(st.lists(st.sampled_from(rest), max_size=2, unique=True)) if rest else []
    gen = philox(data.draw(st.integers(0, 2**16)))
    ops = {p: hermitian(dims[p], gen) for p in op_pos}

    want = dense_doubled(psi, ops, opened).real
    got = site_marginal(net, ops, tuple(opened) if len(opened) > 1 else opened[0])
    assert got.shape == tuple(dims[p] for p in opened)
    assert np.max(np.abs(got - want)) <= 1e-12

    ops[opened[0]] = hermitian(dims[opened[0]], gen)
    want = dense_doubled(psi, ops, ())
    assert abs(site_operator_expectation(net, ops) - want) <= 1e-12


@settings(max_examples=150)
@given(net=random_trees(), data=st.data())
def test_tree_marginals_and_expectations_match_dense_state(net, data):
    check_against_dense_state(net, data)


@settings(max_examples=100)
@given(net=standard_networks(), data=st.data())
def test_standard_network_marginals_and_expectations_match_dense_state(net, data):
    check_against_dense_state(net, data)


@settings(max_examples=100)
@given(net=st.one_of(random_trees(), standard_networks()), seed=st.integers(0, 2**16))
def test_conditionals_multiply_to_the_born_probability(net, seed):
    s = sample(net, 1, philox(seed))[0]
    chain = np.prod([conditional_distribution(net, s[:k])[s[k]] for k in range(net.n_sites)])
    born = abs(amplitude(net, s)) ** 2
    assert abs(chain - born) <= 1e-12 * born


@settings(max_examples=150)
@given(net=interleaved_trees(), data=st.data())
def test_tree_conditionals_match_projected_marginals(net, data):
    # the tree kernel against the doubled network with the prefix's projectors fixed
    dims = net.site_dims
    k = data.draw(st.integers(0, net.n_sites - 1))
    prefix = tuple(data.draw(st.integers(0, d - 1)) for d in dims[:k])
    want = site_marginal(net, {p: np.diag(np.eye(dims[p])[x]) for p, x in enumerate(prefix)}, k)
    assume(want.sum() > 1e-6)
    got = conditional_distribution(net, prefix)
    assert np.max(np.abs(got - want / want.sum())) <= 1e-12
