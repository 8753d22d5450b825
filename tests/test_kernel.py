"""The compiled contraction path against independent oracles.

The oracles are the dense full state (amplitudes) and one ``np.einsum``
per sequence and vertex over the network with its Out legs fixed
(gradients); neither uses the compiled path, the plan's leg bookkeeping or
any batching. MERA at the benchmark size (n=32, w=27, D=8) is checked by
gauge invariance and finite differences instead.
"""

import math
import string
import sys
from collections import Counter

import numpy as np
import pytest

from isotn import graph, network
from isotn.dense import state
from isotn.errors import ZeroAmplitudeError
from isotn.manifold import gauge_transform, moduli_dimension, real_stiefel_dim, retract, tangent_project
from isotn.model import SampleMultiset, log_likelihood
from isotn.network import TensorNetwork, amplitudes, random_network, random_tensors, site_marginal
from isotn.sampling import conditional_distribution
from isotn.tensor_core import isometry_violation, random_isometry
from isotn.training import TrainConfig, gradient, mean_gradient, train

from conftest import deterministic_chain_net, enumerate_sequences, philox


@pytest.mark.parametrize("kind", ["chain", "tree", "mera"])
def test_batched_amplitudes_match_dense_state(kind):
    net = random_network(kind, 8, 3, 3, philox(21))
    seqs = enumerate_sequences(net.site_dims)
    psi = state(net)
    expected = np.array([psi[s] for s in seqs])
    assert np.max(np.abs(amplitudes(net, seqs) - expected)) <= 1e-12


def random_batch(net, gen, size):
    w = net.site_dims[0]
    return [(tuple(int(x) for x in gen.integers(0, w, net.n_sites)), int(gen.integers(2, 5)))
            for _ in range(size)]


def einsum_environments(net, s):
    """E_v = ∂A(s)/∂t_v for every vertex v, and A(s), by np.einsum.

    With the Out legs fixed at ``s`` and the In leg at its one index, E_v
    contracts every other vertex and leaves v's remaining legs as the
    output subscripts; it is zero off the entries at the fixed indices.
    """
    q, pos = net.quiver, net.quiver.plan.out_position
    fixed = {**{e: s[p] for e, p in pos.items()}, **{e: 0 for e in q.in_edges}}
    letter = dict(zip(sorted(net.edge_dim), string.ascii_letters))
    ops = {}
    for v in q.vertices:
        edges = q.vertex_in_edges(v) + q.vertex_out_edges(v)
        at = tuple(fixed.get(e, slice(None)) for e in edges)
        ops[v] = (at, net.vertex_tensor[v][at], "".join(letter[e] for e in edges if e not in fixed))

    def contract(vs, out):
        subs = ",".join(ops[v][2] for v in vs) + "->" + out
        return np.einsum(subs, *(ops[v][1] for v in vs), optimize="greedy")

    envs = {}
    for v, (at, _, sub) in ops.items():
        envs[v] = np.zeros(net.vertex_tensor[v].shape, dtype=np.complex128)
        envs[v][at] = contract([u for u in q.vertices if u != v], sub)
    return envs, complex(contract(q.vertices, ""))


@pytest.mark.parametrize("kind", ["chain", "tree", "mera"])
def test_mean_gradient_matches_einsum_oracle(kind):
    gen = philox(22)
    net = random_network(kind, 8, 3, 3, gen)
    batch = random_batch(net, gen, 12)
    acc = {v: np.zeros(t.shape, dtype=np.complex128) for v, t in net.vertex_tensor.items()}
    loss = 0.0
    for s, m in batch:
        envs, amp = einsum_environments(net, s)
        for v, e in envs.items():
            acc[v] += m * -np.conj(e / amp)
        loss += -2.0 * m * math.log(abs(amp))
    total = sum(m for _, m in batch)
    g, batch_loss = mean_gradient(net, batch)
    scale = max(np.max(np.abs(a)) for a in acc.values()) / total
    worst = max(np.max(np.abs(g[v] - acc[v] / total)) for v in acc)
    assert worst <= 1e-12 * scale
    assert abs(batch_loss - loss / total) <= 1e-12 * abs(loss / total)


def test_items_sharing_no_edge_multiply_out():
    # vertex 2 has no in edge: the path ends in an outer product with it
    q = graph.Quiver((0, 1, 2), (1,), (0,), (3, 4, 5), {1: 0, 3: 0, 4: 1, 5: 2}, {0: 0, 1: 1})
    dims = {0: 1, 1: 2, 3: 2, 4: 3, 5: 2}
    net = TensorNetwork(q, dims, random_tensors(q, dims, philox(35)))
    seqs = enumerate_sequences(net.site_dims)
    psi = state(net)
    assert np.max(np.abs(amplitudes(net, seqs) - np.array([psi[s] for s in seqs]))) <= 1e-12
    assert np.max(np.abs(site_marginal(net, {}, (0, 1, 2)) - np.abs(psi) ** 2)) <= 1e-12
    g, _ = mean_gradient(net, [(seqs[7], 1)])
    envs, amp = einsum_environments(net, seqs[7])
    assert max(np.max(np.abs(g[v] + np.conj(envs[v] / amp))) for v in g) <= 1e-12


def test_mera_at_benchmark_size():
    # the layer-by-layer boundary state needed 2**48 entries per amplitude here
    gen = philox(32)
    net = random_network("mera", 32, 27, 8, gen)
    batch = random_batch(net, gen, 8)
    seqs = [s for s, _ in batch]
    amps = amplitudes(net, seqs)
    # a unitary on the In edge would only change the global phase
    unitaries = {e: random_isometry(net.edge_dim[e], net.edge_dim[e], gen)
                 for e in net.quiver.internal_edges}
    gauged = amplitudes(gauge_transform(net, unitaries), seqs)
    assert np.max(np.abs(gauged - amps)) <= 1e-12 * np.max(np.abs(amps))
    g, _ = mean_gradient(net, batch)
    h = 1e-5
    for _ in range(2):
        raw = {v: gen.standard_normal(t.shape) + 1j * gen.standard_normal(t.shape)
               for v, t in net.vertex_tensor.items()}
        xi = tangent_project(net, raw)
        scale = math.sqrt(sum(float(np.sum(np.abs(x) ** 2)) for x in xi.values()))
        xi = {v: x / scale for v, x in xi.items()}
        analytic = 2.0 * sum(float(np.real(np.vdot(xi[v], g[v]))) for v in g)
        fd = (mean_gradient(retract(net, xi, h), batch)[1]
              - mean_gradient(retract(net, xi, -h), batch)[1]) / (2 * h)
        assert abs(analytic - fd) / max(abs(fd), 1e-3) < 1e-5


def test_single_row_batch_equals_gradient():
    gen = philox(23)
    net = random_network("tree", 8, 3, 3, gen)
    s = tuple(int(x) for x in gen.integers(0, 3, 8))
    g, _ = mean_gradient(net, [(s, 1)])
    single = gradient(net, s)
    for v in g:
        np.testing.assert_array_equal(g[v], single[v])


def test_zero_amplitude_row_named():
    net = deterministic_chain_net((0, 1, 0), 2)
    batch = [((0, 1, 0), 2), ((1, 1, 0), 1), ((0, 0, 0), 1)]
    with pytest.raises(ZeroAmplitudeError) as err:
        mean_gradient(net, batch)
    assert err.value.sequence == (1, 1, 0)


def test_log_likelihood_zero_row_is_infinite():
    net = deterministic_chain_net((0, 1, 0), 2)
    sample = SampleMultiset(3, {(0, 1, 0): 3, (1, 1, 0): 1})
    with pytest.warns(RuntimeWarning, match=r"\(1, 1, 0\)"):
        assert log_likelihood(net, sample) == math.inf


def test_train_rejects_first_bad_sequence_in_sorted_order():
    net = random_network("tree", 4, 2, 2, philox(24))
    sample = SampleMultiset(4, {(1, 0, 0, 5): 1, (0, 1, 3, 0): 2, (0, 0, 0, 0): 1})
    with pytest.raises(ValueError, match=r"^symbol index 3 at position 2 outside \[0,2\)$"):
        train(net, sample, TrainConfig(learning_rate=0.05, steps=1))


SYMBOL_CALLS = {
    "amplitudes": lambda net, s: amplitudes(net, [s]),
    "mean_gradient": lambda net, s: mean_gradient(net, [(s, 1)])[1],
    "conditional_distribution": lambda net, s: conditional_distribution(net, s[:3]),
}


@pytest.mark.parametrize("symbol", [0.5, math.nan, 2.0])
@pytest.mark.parametrize("name", sorted(SYMBOL_CALLS))
def test_symbols_must_be_whole_numbers(name, symbol):
    net = random_network("tree", 4, 3, 2, philox(30))
    call = SYMBOL_CALLS[name]
    if symbol == 2.0:
        np.testing.assert_array_equal(call(net, (0, symbol, 1, 0)), call(net, (0, 2, 1, 0)))
        return
    with pytest.raises(ValueError, match=rf"^(symbol index|prefix symbol) {symbol} at position 1 "
                                         r"is not a finite whole number$"):
        call(net, (0, symbol, 1, 0))


def test_recorded_isometry_violation_is_the_per_vertex_maximum():
    net = random_network("tree", 8, 3, 3, philox(25))
    worst = max(isometry_violation(net.vertex_tensor[v], net.vertex_split(v))
                for v in net.quiver.vertices)
    assert net.max_isometry_violation() == worst


@pytest.fixture
def plan_builds(monkeypatch):
    """Counts of topological_layers and is_tree calls per (name, quiver id)."""
    calls = Counter()
    for name in ("topological_layers", "is_tree"):
        original = getattr(graph, name)

        def counting(q, _original=original, _name=name):
            calls[_name, id(q)] += 1
            return _original(q)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("isotn")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counting)
    return calls


def test_training_builds_plan_once_per_quiver(plan_builds):
    calls = plan_builds
    net = random_network("tree", 8, 2, 2, philox(26))
    gen = philox(27)
    sample = SampleMultiset(8, {tuple(int(x) for x in gen.integers(0, 2, 8)): 1 + k % 2
                                for k in range(6)})
    train(net, sample, TrainConfig(learning_rate=0.05, steps=3, batch_size=4))
    q = id(net.quiver)
    assert calls["topological_layers", q] == 1 and calls["is_tree", q] == 1
    assert max(calls.values()) == 1


def test_training_compiles_the_path_once(monkeypatch):
    calls = []
    real = network._compile
    monkeypatch.setattr(network, "_compile", lambda *args: calls.append(1) or real(*args))
    net = random_network("mera", 8, 2, 2, philox(33))
    gen = philox(34)
    sample = SampleMultiset(8, {tuple(int(x) for x in gen.integers(0, 2, 8)): 1 for _ in range(6)})
    train(net, sample, TrainConfig(learning_rate=0.05, steps=3, batch_size=4))
    assert len(calls) == 1


def test_moduli_counts_read_the_compiled_plan(plan_builds):
    net = random_network("tree", 8, 2, 2, philox(31))
    amplitudes(net, [(0,) * 8])
    built = dict(plan_builds)
    assert moduli_dimension(net) > 0 and real_stiefel_dim(net) > 0
    assert plan_builds == built and plan_builds["is_tree", id(net.quiver)] == 1


def test_dag_paths_build_plan_once_per_quiver(plan_builds):
    net = random_network("mera", 8, 2, 2, philox(28))
    gen = philox(29)
    seqs = [tuple(int(x) for x in gen.integers(0, 2, 8)) for _ in range(20)]
    amplitudes(net, seqs)
    mean_gradient(net, [(s, 1) for s in seqs])
    assert max(plan_builds.values()) == 1
