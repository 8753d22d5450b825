import itertools

import numpy as np
import pytest

from isotn.errors import ConditioningError
from isotn.model import born_probability
from isotn.network import random_network, state
from isotn.sampling import conditional_distribution, sample

from conftest import deterministic_chain_net, enumerate_sequences, philox, single_vertex_net, two_site_net


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
            def random(self):
                return np.nextafter(1.0, 0.0)

        net = single_vertex_net(np.full(10, 10**-0.5))
        assert np.cumsum(conditional_distribution(net, ()))[-1] == np.nextafter(1.0, 0.0)
        assert sample(net, 1, TopGenerator()) == [(9,)]

    def test_zero_count(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        assert sample(net, 0, philox(0)) == []
