import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isotn import model, sampling
from isotn.manifold import gauge_transform
from isotn.model import (
    SampleMultiset,
    SymbolSet,
    born_probability,
    empirical_distribution,
    entropy,
    kl_divergence,
    log_likelihood,
)
from isotn.network import amplitude, amplitudes, random_network
from isotn.tensor_core import random_isometry

from conftest import deterministic_chain_net, enumerate_sequences, philox, single_vertex_net


def test_symbol_set_rejects_duplicates():
    with pytest.raises(ValueError):
        SymbolSet(("a", "a"))
    with pytest.raises(ValueError):
        SymbolSet(())


def test_sample_multiset_validation():
    with pytest.raises(ValueError):
        SampleMultiset(2, {(0, 1, 0): 1})
    with pytest.raises(ValueError):
        SampleMultiset(2, {(0, 1): 0})
    s = SampleMultiset(2, {(0, 0): 3, (1, 1): 1})
    assert s.cardinality == 4


@pytest.mark.parametrize("entries, value", [
    ({(0.5, 1.7): 1, (0, 1): 2}, "symbol 0.5"),
    ({(0, math.nan): 1}, "symbol nan"),
    ({(0, 1): 1.5}, "multiplicity 1.5"),
])
def test_sample_multiset_rejects_non_whole_numbers(entries, value):
    # truncating would merge (0.5, 1.7) into (0, 1) or count 1.5 as 1
    with pytest.raises(ValueError, match=rf"^{value} is not a finite whole number$"):
        SampleMultiset(2, entries)


def test_sample_multiset_keeps_whole_floats_as_ints():
    s = SampleMultiset(2, {(2.0, 1): 2.0})
    assert s.entries == {(2, 1): 2} and all(type(x) is int for x in (*next(iter(s.entries)), s.cardinality))


@given(st.integers(1, 4).flatmap(lambda n: hnp.arrays(
    np.int64, st.tuples(st.integers(0, 30), st.just(n)), elements=st.integers(-2, 2))))
def test_a_table_counts_its_rows_like_a_counter(table):
    n = table.shape[1]
    from_table = SampleMultiset(n, table)
    from_counter = SampleMultiset(n, Counter(map(tuple, table.tolist())))
    for s in (from_table, from_counter):
        np.testing.assert_array_equal(s.rows, from_table.rows)
        np.testing.assert_array_equal(s.counts, from_table.counts)
        assert s.rows.dtype == np.int64 and s.rows.shape == (len(s.counts), n)
        assert not s.rows.flags.writeable and not s.counts.flags.writeable
        assert s.cardinality == len(table)
    assert list(from_table.items()) == list(from_counter.items())
    keys = [s for s, _ in from_table.items()]
    assert keys == sorted(set(map(tuple, table.tolist())))


_I64 = np.iinfo(np.int64)


@st.composite
def spanned_tables(draw):
    """(N, n) int64 tables whose symbols span just below or just above a key
    width boundary (2^8, 2^16, 2^32), or the whole int64 range, from a drawn
    minimum, which may be negative."""
    n, count = draw(st.integers(1, 4)), draw(st.integers(0, 30))
    span = draw(st.sampled_from([0, 1, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63, 2**64 - 1]))
    lo = draw(st.integers(int(_I64.min), int(_I64.max) - span))
    values = [lo, lo + 1, lo + span // 2, lo + span - 1, lo + span]
    return draw(hnp.arrays(np.int64, (count, n), elements=st.sampled_from(values)))


@given(spanned_tables())
def test_rows_are_counted_like_a_row_unique(table):
    n = table.shape[1]
    expected_rows, expected_counts = np.unique(table, axis=0, return_counts=True)
    sample = SampleMultiset(n, table)
    assert sample.rows.dtype == np.int64 and sample.rows.shape == (len(expected_rows), n)
    assert not sample.rows.flags.writeable and not sample.counts.flags.writeable
    np.testing.assert_array_equal(sample.rows, expected_rows)
    np.testing.assert_array_equal(sample.counts, expected_counts)
    tokens = table.ravel()  # and through the strided view of corpus.windows
    if len(tokens) >= n:
        view = np.lib.stride_tricks.sliding_window_view(tokens, n)[::2]
        expected_rows, expected_counts = np.unique(view, axis=0, return_counts=True)
        sample = SampleMultiset(n, view)
        np.testing.assert_array_equal(sample.rows, expected_rows)
        np.testing.assert_array_equal(sample.counts, expected_counts)


def test_sample_table_is_checked():
    with pytest.raises(ValueError, match=r"^symbol 0.5 is not a finite whole number$"):
        SampleMultiset(2, np.array([[1.0, 0.5]]))
    with pytest.raises(ValueError, match=r"shape \(2, 3\) is not \(count, 2\)"):
        SampleMultiset(2, np.zeros((2, 3), dtype=int))
    assert SampleMultiset(2, [[1.0, 0], [1, 0]]).entries == {(1, 0): 2}


def test_unsigned_symbols_past_int64_rejected():
    with pytest.raises(ValueError, match=r"^symbol 9223372036854775808 does not fit in int64$"):
        SampleMultiset(1, np.array([[2**63], [5]], dtype=np.uint64))
    with pytest.raises(ValueError, match=r"^symbol 9.223372036854776e\+18 does not fit in int64$"):
        SampleMultiset(1, np.array([[2.0**63], [5.0]]))
    np.testing.assert_array_equal(SampleMultiset(1, np.array([[5], [2]], dtype=np.uint8)).rows, [[2], [5]])


@pytest.mark.parametrize("make", [
    lambda: SampleMultiset(1, {("x" * 100_000,): 1}),
    lambda: amplitudes(random_network("chain", 4, 2, 2, philox(1)), [[0, "x" * 100_000, 0, 0]]),
    lambda: SampleMultiset(1, [[10**5000]]),  # too long for str()
    lambda: SampleMultiset(1, [[10**3999]]),
    lambda: SampleMultiset(2, {tuple(range(100_000)): 1}),
    lambda: SampleMultiset(100_000, {tuple(range(100_000)): 0}),
], ids=["string_symbol", "string_symbol_index", "integer_of_5001_digits", "integer_of_4000_digits",
        "long_key_of_wrong_length", "long_key_of_multiplicity_0"])
def test_error_messages_stay_short(make):
    with pytest.raises(ValueError) as info:
        make()
    assert len(str(info.value)) < 200


def test_long_values_are_shown_briefly():
    with pytest.raises(ValueError, match=r"^symbol \(an integer of 5001 digits\) does not fit in int64$"):
        SampleMultiset(1, [[10**5000]])
    with pytest.raises(ValueError, match=r"^sequence \(0, 1, 2, .*, 15, …\) of length 100000 has length"):
        SampleMultiset(2, {tuple(range(100_000)): 1})


def test_an_empty_sample_has_no_empirical_distribution():
    with pytest.raises(ValueError, match=r"^sequence length must be positive$"):
        SampleMultiset(0, {})
    with pytest.raises(ValueError, match=r"^empty sample$"):
        empirical_distribution(SampleMultiset(2, {}))


class TestBornProbability:
    def test_uniform_single_vertex(self):
        net = single_vertex_net([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert abs(born_probability(net, (0,)) - 0.5) < 1e-12
        assert abs(born_probability(net, (1,)) - 0.5) < 1e-12

    def test_deterministic(self):
        net = deterministic_chain_net((1, 0), 2)
        assert abs(born_probability(net, (1, 0)) - 1.0) < 1e-12
        assert born_probability(net, (0, 0)) == 0.0

    def test_normalization_random_tree(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        # n=4 keeps the test fast; the acceptance suite covers larger sizes
        total = sum(born_probability(net, s) for s in enumerate_sequences(net.site_dims))
        assert abs(total - 1.0) < 1e-10


class TestEmpiricalDistribution:
    def test_frequencies(self):
        dist = empirical_distribution(SampleMultiset(2, {(0, 0): 3, (1, 1): 1}))
        assert dist == {(0, 0): 0.75, (1, 1): 0.25}

    def test_single_entry(self):
        dist = empirical_distribution(SampleMultiset(1, {(0,): 5}))
        assert dist == {(0,): 1.0}

    def test_uniform_multiset(self):
        entries = {s: 2 for s in enumerate_sequences((2, 2))}
        dist = empirical_distribution(SampleMultiset(2, entries))
        assert all(abs(p - 0.25) < 1e-15 for p in dist.values())


class TestLogLikelihood:
    def test_deterministic_net_zero_objective(self):
        net = deterministic_chain_net((0, 1), 2)
        sample = SampleMultiset(2, {(0, 1): 7})
        assert log_likelihood(net, sample) == 0.0

    def test_uniform_net_log_two(self):
        net = single_vertex_net([1 / np.sqrt(2), 1 / np.sqrt(2)])
        sample = SampleMultiset(1, {(0,): 1})
        assert abs(log_likelihood(net, sample) - math.log(2)) < 1e-12

    def test_equals_negative_log_born_sum(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        entries = {(0, 0, 1, 1): 3, (1, 0, 1, 0): 2, (0, 1, 0, 1): 1}
        sample = SampleMultiset(4, entries)
        expected = -sum(m * math.log(born_probability(net, s)) for s, m in entries.items())
        assert abs(log_likelihood(net, sample) - expected) < 1e-10

    def test_zero_amplitude_reports_infinite_objective(self):
        net = deterministic_chain_net((0, 0), 2)
        sample = SampleMultiset(2, {(1, 1): 1})
        with pytest.warns(RuntimeWarning, match=r"\(1, 1\)"):
            assert log_likelihood(net, sample) == math.inf

    def test_zero_probability_warning_is_bounded(self):
        net = deterministic_chain_net((0,) * 256, 2)
        with pytest.warns(RuntimeWarning) as record:
            assert log_likelihood(net, SampleMultiset(256, {(1,) * 256: 1})) == math.inf
        message = str(record[0].message)
        assert len(message) <= 200 and "length 256" in message

    def test_long_rows_score_where_probabilities_underflow(self):
        # at n=256 every |A| is below 1e-160, so |A|² is 0.0; −2·log|A| is exact
        gen = philox(3)
        net = random_network("chain", 256, 27, 4, gen)
        sample = SampleMultiset(256, np.array(sampling.sample(net, 16, gen)))
        moduli = [abs(amplitude(net, s)) for s in sample.rows.tolist()]
        assert 0.0 < min(moduli) and max(moduli) ** 2 == 0.0
        expected = -2.0 * math.fsum(m * math.log(a) for m, a in zip(sample.counts.tolist(), moduli))
        assert abs(log_likelihood(net, sample) - expected) <= 1e-12 * abs(expected)

    def test_memory_is_flat_in_the_number_of_windows(self):
        net = random_network("mera", 8, 5, 4, philox(46))
        gen = philox(47)

        def peak(count):
            rows = gen.integers(0, 5, (count, 8)).tolist()
            sample = SampleMultiset(8, {tuple(r): 1 for r in rows})
            tracemalloc.start()
            try:
                log_likelihood(net, sample)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8)  # compile the path first
        assert peak(4 * model._EVAL_ROWS) <= 1.1 * peak(model._EVAL_ROWS)

    def test_chunks_score_like_one_batch(self):
        net = random_network("chain", 6, 3, 3, philox(48))
        rows = philox(49).integers(0, 3, (3 * model._EVAL_ROWS, 6)).tolist()
        sample = SampleMultiset(6, {tuple(r): 1 + k % 3 for k, r in enumerate(rows)})
        probs = np.abs(amplitudes(net, list(sample.entries))) ** 2
        expected = -sum(m * math.log(p) for m, p in zip(sample.entries.values(), probs))
        assert abs(log_likelihood(net, sample) - expected) <= 1e-13 * abs(expected)


class TestKLDivergence:
    def test_equal_distributions(self):
        p = {s: 0.25 for s in enumerate_sequences((2, 2))}
        assert kl_divergence(p, dict(p)) == 0.0

    def test_point_mass_vs_uniform(self):
        p = {(0,): 1.0, (1,): 0.0}
        q = {(0,): 0.5, (1,): 0.5}
        assert abs(kl_divergence(p, q) - math.log(2)) < 1e-12

    def test_disjoint_support_is_infinite(self):
        assert kl_divergence({(0,): 1.0}, {(1,): 1.0}) == math.inf

    def test_kl_is_cross_entropy_minus_entropy(self, rng):
        # D(emp || model) == F/|S| - H(emp), the identity tying the two objectives
        net = random_network("tree", 4, 2, 2, rng)
        entries = {(0, 0, 0, 0): 4, (1, 1, 0, 0): 3, (0, 1, 1, 0): 2}
        sample = SampleMultiset(4, entries)
        emp = empirical_distribution(sample)
        mu = {s: born_probability(net, s) for s in emp}
        lhs = kl_divergence(emp, mu)
        rhs = log_likelihood(net, sample) / sample.cardinality - entropy(emp)
        assert abs(lhs - rhs) < 1e-10


def test_gauge_invariance_of_born_probabilities(rng):
    net = random_network("tree", 8, 2, 3, rng)
    unitaries = {}
    gen = philox(99)
    for e in list(net.quiver.internal_edges) + list(net.quiver.in_edges):
        d = net.edge_dim[e]
        unitaries[e] = random_isometry(d, d, gen)
    gauged = gauge_transform(net, unitaries)
    for s in [tuple(gen.integers(0, 2, 8)) for _ in range(20)]:
        assert abs(born_probability(net, s) - born_probability(gauged, s)) < 1e-10
