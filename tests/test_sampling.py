import itertools
import tracemalloc

import numpy as np
import pytest

import isotn.network as network
import isotn.sampling as sampling
from isotn.errors import ConditioningError
from isotn.graph import Quiver, build_binary_tree, build_chain
from isotn.model import born_probability
from isotn.dense import state
from isotn.network import TensorNetwork, random_network, random_tensors, site_marginal
from isotn.sampling import conditional_distribution, sample

from conftest import deterministic_chain_net, enumerate_sequences, philox, single_vertex_net, two_site_net


def reference_sample(net, count, rng):
    """The sampler spelled out: each conditional from projector marginals of the doubled network."""
    dims = net.site_dims
    draws = []
    for row in rng.random((count, len(dims))):
        s = []
        for k, u in enumerate(row):
            fixed = {p: np.diag(np.eye(dims[p])[x]) for p, x in enumerate(s)}
            w = np.clip(site_marginal(net, fixed, k), 0.0, None)
            cum = np.cumsum(w / w.sum())
            a = int(np.searchsorted(cum, u, side="right"))
            s.append(a if a < len(w) else int(np.flatnonzero(w)[-1]))  # cumsum can end below 1
        draws.append(tuple(s))
    return draws


def small_tree(leaf_parents, seed):
    """Root (vertex 0) feeding vertices 1 and 2, whose leaves are listed in position order."""
    outs = tuple(range(3, 3 + len(leaf_parents)))
    q = Quiver((0, 1, 2), (1, 2), (0,), outs, {1: 0, 2: 0, **dict(zip(outs, leaf_parents))},
               {0: 0, 1: 1, 2: 2})
    dims = {0: 1, 1: 2, 2: 2, **{e: 2 for e in outs}}
    return TensorNetwork(q, dims, random_tensors(q, dims, philox(seed)))


class TestConditionalDistribution:
    def test_empty_prefix_uniform(self):
        net = single_vertex_net([1 / np.sqrt(2), 1 / np.sqrt(2)])
        np.testing.assert_allclose(conditional_distribution(net, ()), [0.5, 0.5], atol=1e-12)

    def test_deterministic_net_one_hot(self):
        net = deterministic_chain_net((0, 1, 1), 2)
        np.testing.assert_allclose(conditional_distribution(net, (0, 1)), [0.0, 1.0], atol=1e-12)

    def test_matches_enumeration_oracle(self, rng):
        net = random_network("tree", 8, 2, 3, rng)
        psi = state(net)
        probs = np.abs(psi) ** 2
        for k in range(6):
            for prefix in itertools.product(range(2), repeat=k):
                block = probs[prefix]
                marg = block.reshape(2, -1).sum(axis=1)
                expected = marg / marg.sum()
                got = conditional_distribution(net, prefix)
                np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_sums_to_one(self, rng):
        net = random_network("mera", 4, 2, 2, rng)
        for prefix in [(), (0,), (1, 0), (0, 1, 1)]:
            dist = conditional_distribution(net, prefix)
            assert abs(dist.sum() - 1.0) < 1e-10
            assert np.all(dist >= 0.0)

    def test_zero_probability_prefix(self):
        net = deterministic_chain_net((0, 0, 0), 2)
        with pytest.raises(ConditioningError) as err:
            conditional_distribution(net, (1,))
        assert err.value.prefix == (1,)

    def test_prefix_too_long(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        with pytest.raises(ValueError):
            conditional_distribution(net, (0, 0, 0, 0))


class TestChainRule:
    @pytest.mark.parametrize("kind,n", [("tree", 8), ("chain", 6)])
    def test_product_of_conditionals_is_joint(self, kind, n, rng):
        net = random_network(kind, n, 2, 2, rng)
        for s in enumerate_sequences(net.site_dims):
            p = born_probability(net, s)
            if p < 1e-14:
                continue
            chained = 1.0
            for k in range(n):
                chained *= conditional_distribution(net, s[:k])[s[k]]
            assert abs(chained - p) < 1e-10


class TestSample:
    def test_deterministic_model_every_draw_equal(self):
        net = deterministic_chain_net((1, 0, 1), 2)
        draws = sample(net, 20, philox(0))
        assert draws == [(1, 0, 1)] * 20

    def test_uniform_frequencies(self):
        # all four two-symbol sequences with amplitude 1/2
        net = two_site_net(np.full(4, 0.5))
        draws = sample(net, 100_000, philox(123))
        counts = {s: 0 for s in enumerate_sequences((2, 2))}
        for d in draws:
            counts[d] += 1
        for s, c in counts.items():
            assert abs(c / 100_000 - 0.25) < 0.01  # ~7σ of the binomial

    def test_total_variation_against_exact(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        n_draws = 200_000
        draws = sample(net, n_draws, philox(77))
        counts = {}
        for d in draws:
            counts[d] = counts.get(d, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(s, 0) / n_draws - born_probability(net, s))
            for s in enumerate_sequences(net.site_dims)
        )
        assert tv < 0.01

    def test_same_seed_same_draws(self, rng):
        net = random_network("tree", 8, 2, 2, rng)
        a = sample(net, 50, philox(5))
        b = sample(net, 50, philox(5))
        assert a == b

    def test_draw_at_the_top_of_the_cumulative_sum(self):
        # the normalized cumsum of ten 0.1 weights ends at 1 - 2**-53, which
        # Generator.random() can return; the draw is then the last symbol
        class TopGenerator:
            def random(self, size=None):
                if size is not None:
                    return np.full(size, np.nextafter(1.0, 0.0))
                return np.nextafter(1.0, 0.0)

        net = single_vertex_net(np.full(10, 10**-0.5))
        assert np.cumsum(conditional_distribution(net, ()))[-1] == np.nextafter(1.0, 0.0)
        assert sample(net, 1, TopGenerator()) == [(9,)]

    def test_zero_count(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        assert sample(net, 0, philox(0)) == []


class TestExactness:
    @pytest.mark.parametrize("make", [
        lambda: random_network("chain", 8, 3, 3, philox(31)),
        lambda: random_network("tree", 8, 3, 3, philox(32)),
        lambda: small_tree((2, 1, 2, 1), 33),  # interleaved: vertex 1 holds positions 1 and 3
        lambda: small_tree((1, 1, 1, 2, 2, 2), 0),  # criterion 7's six-leaf tree
        lambda: random_network("mera", 8, 2, 2, philox(34)),
        lambda: random_network("tree", 32, 27, 8, philox(39)),  # the benchmark's size, 8 draws
    ], ids=["chain8", "tree8", "interleaved4", "six_leaf", "mera8", "bench_tree32"])
    def test_same_draws_as_reference(self, make):
        net = make()
        count = 8 if net.n_sites == 32 else 150
        assert sample(net, count, philox(8)) == reference_sample(net, count, philox(8))

    def test_draws_do_not_depend_on_block_size(self, monkeypatch):
        net = random_network("tree", 8, 3, 3, philox(35))
        whole = sample(net, 70, philox(9))
        monkeypatch.setattr(sampling, "_BLOCK_ROWS", 3)
        assert sample(net, 70, philox(9)) == whole


def memo_bytes(net):
    """Bytes of the arrays the tree sampler keeps on ``net``."""
    memo = net.__dict__.get("_tree_memo", {})
    return sum(fold.nbytes for key, fold in memo.items() if key is not None)


def tensor_bytes(net):
    return sum(run.nbytes for run in net.vertex_tensor.runs)


class TestMemo:
    @pytest.mark.parametrize("make", [
        lambda: random_network("chain", 8, 3, 3, philox(31)),
        lambda: random_network("tree", 8, 3, 3, philox(32)),
        lambda: small_tree((2, 1, 2, 1), 33),
    ], ids=["chain8", "tree8", "interleaved4"])
    def test_warm_memo_gives_the_same_draws(self, make):
        warm = make()
        sample(warm, 5, philox(1))
        assert memo_bytes(warm) > 0
        assert sample(warm, 150, philox(8)) == sample(make(), 150, philox(8))
        prefix = sample(warm, 1, philox(2))[0][:-1]
        assert np.array_equal(conditional_distribution(warm, prefix), conditional_distribution(make(), prefix))

    def test_memo_stays_within_the_tensor_bytes(self):
        # each internal vertex (16, 16, 16) folds to 256 x 256 entries,
        # more than all the network's tensors together
        net = random_network("tree", 8, 4, 16, philox(40))
        draws = sample(net, 60, philox(14))
        assert 0 < memo_bytes(net) <= tensor_bytes(net) < 16 * 256**2
        assert draws == reference_sample(net, 60, philox(14))
        assert sample(net, 60, philox(14)) == draws and memo_bytes(net) <= tensor_bytes(net)

    def test_tensors_cannot_be_replaced_under_the_memo(self):
        # the memo keys folds by vertex alone: a network's tensors are read-only
        a = random_network("tree", 8, 3, 3, philox(41))
        sample(a, 5, philox(1))
        b = random_network("tree", 8, 3, 3, philox(42))
        with pytest.raises(TypeError):
            a.vertex_tensor.update(b.vertex_tensor)
        with pytest.raises(TypeError):
            a.vertex_tensor[0] = np.zeros_like(a.vertex_tensor[0])
        fresh = random_network("tree", 8, 3, 3, philox(41))
        assert sample(a, 40, philox(15)) == sample(fresh, 40, philox(15))
        assert 0 < memo_bytes(a) <= tensor_bytes(a)


def test_negative_weight_names_position_and_row(monkeypatch):
    def kernel(net):
        def block(seqs):
            def weights(k):
                w = np.full((len(seqs), 2), 0.5)
                w[1, 0] = -0.25 if k == 2 else 0.5
                return w
            return weights
        return block

    monkeypatch.setattr(sampling, "_kernel", kernel)
    with pytest.raises(ValueError, match=r"^negative conditional weight -2.500e-01 at position 2 in row 1, "
                                         r"prefix \([01], [01]\); numerical bug$"):
        sample(random_network("tree", 4, 2, 2, philox(0)), 3, philox(0))


def test_a_negative_weight_within_rounding_is_clipped_to_zero(monkeypatch):
    def kernel(net):
        return lambda seqs: lambda k: np.tile([-1e-13, 0.25, 0.75], (len(seqs), 1))

    monkeypatch.setattr(sampling, "_kernel", kernel)
    p = conditional_distribution(random_network("tree", 4, 2, 2, philox(0)), [0])
    assert p[0] == 0.0 and p.sum() == 1.0


def tree_quivers():
    """Chains, binary trees and 60 seeded random trees of 1–40 vertices,
    half of them hung as deep as a chain, whose edge ids are shuffled so
    that the positions below an edge need not be contiguous."""
    yield from map(build_chain, (1, 2, 5, 33))
    yield from map(build_binary_tree, (2, 8, 32))
    gen = philox(50)
    for _ in range(60):
        n_v = int(gen.integers(1, 41))
        parent = {v: v - 1 if gen.random() < 0.5 else int(gen.integers(v)) for v in range(1, n_v)}
        owners = [v for v in range(n_v) if v not in parent.values()]
        owners += gen.integers(n_v, size=int(gen.integers(n_v + 1))).tolist()
        ids = (1 + gen.permutation(n_v - 1 + len(owners))).tolist()
        bond, outs = dict(zip(parent, ids)), ids[n_v - 1:]  # vertex v hangs on edge bond[v]
        yield Quiver(tuple(range(n_v)), tuple(bond.values()), (0,), tuple(outs),
                     {**{e: parent[v] for v, e in bond.items()}, **dict(zip(outs, owners))},
                     {0: 0, **{e: v for v, e in bond.items()}})


class TestSteps:
    @pytest.mark.parametrize("q", tree_quivers())
    def test_each_step_remakes_the_messages_the_path_leaves(self, q):
        above = []  # per position, the internal edges above its leaf, deepest first
        for leaf in q.out_edges:
            above.append([])
            v = q.source[leaf]
            while (e := q.vertex_in_edges(v)[0]) in q.source:
                above[-1].append(e)
                v = q.source[e]
        made, kept = {}, set()  # the step each message was last made at; those not yet dropped

        def check_reads(ket, k):  # the internal edges off the path with a fixed leaf below, made since
            assert [e for e, _ in ket[3]] == [e for e in q.vertex_out_edges(ket[0]) if e in q.target
                                              and e not in above[k] and any(e in a for a in above[:k])]
            for e, _ in ket[3]:
                fixed = [p for p in range(k) if e in above[p]]
                assert e in kept and fixed and made[e] > fixed[-1]

        for k, (msgs, _, descents) in enumerate(sampling._steps(q)):
            left = [e for e in above[k - 1] if e not in above[k]] if k else []
            assert [e for e, _, _ in msgs] == left
            for e, ket, drop in msgs:
                check_reads(ket, k)
                made[e] = k
                kept = kept - set(drop) | {e}
            for ket, *_ in descents:
                check_reads(ket, k)

    def test_compiling_a_long_chain_stays_small(self):
        # O(n) bookkeeping: sorted positions below every edge would be n²/2 ints, ~17 MiB
        q = build_chain(2048)
        q.plan
        tracemalloc.start()
        try:
            sampling._steps(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestRealisticLengths:
    @pytest.mark.parametrize("kind,n,bond", [("chain", 256, 4), ("tree", 512, 8)])
    def test_long_sequences_sample(self, kind, n, bond):
        net = random_network(kind, n, 27, bond, philox(36))
        draws = sample(net, 8, philox(10))
        assert len(draws) == 8 and all(len(d) == n for d in draws)
        assert sample(net, 8, philox(10)) == draws

    def test_long_prefix_conditional_normalized(self):
        net = random_network("chain", 256, 27, 4, philox(36))
        prefix = sample(net, 1, philox(11))[0][:255]
        dist = conditional_distribution(net, prefix)
        assert abs(dist.sum() - 1.0) <= 1e-12
        assert np.all(dist >= 0.0)

    def test_deep_tree_conditional_without_recursion(self):
        # a chain rooted at its last site: the subtree of the 1199-symbol
        # prefix hangs 1199 vertices deep below the conditional's vertex
        n = 1200
        internal, outs = tuple(range(1, n)), tuple(range(n, 2 * n))
        q = Quiver(tuple(range(n)), internal, (0,), outs,
                   {**{e: e for e in internal}, **{n + j: j for j in range(n)}},
                   {0: n - 1, **{e: e - 1 for e in internal}})
        dims = {0: 1, **{e: 2 for e in internal + outs}}
        net = TensorNetwork(q, dims, random_tensors(q, dims, philox(38)))
        prefix = sample(net, 1, philox(13))[0][:-1]
        assert abs(conditional_distribution(net, prefix).sum() - 1.0) <= 1e-12

    def test_mera_sampler_compiles_one_path_per_position(self, monkeypatch):
        net = random_network("mera", 16, 2, 2, philox(37))
        calls = []
        real = network._compile
        monkeypatch.setattr(network, "_compile", lambda *args: calls.append(1) or real(*args))
        draws = sample(net, 5, philox(12))
        assert len(draws) == 5 and len(calls) == 16
        assert sample(net, 5, philox(12)) == draws and len(calls) == 16

    def test_long_prefix_error_is_bounded(self):
        net = deterministic_chain_net((0,) * 257, 2)
        prefix = (1,) + (0,) * 255
        with pytest.raises(ConditioningError) as err:
            conditional_distribution(net, prefix)
        assert err.value.prefix == prefix
        assert len(str(err.value)) <= 200 and "length 256" in str(err.value)
