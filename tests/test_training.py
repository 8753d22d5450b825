import math
import re
import string
import warnings
from collections import Counter

import numpy as np
import pytest

from isotn import training
from isotn.errors import SingularMatrixError, ZeroAmplitudeError
from isotn.manifold import gauge_transform, retract, tangent_project
from isotn.model import SampleMultiset, log_likelihood
from isotn.network import amplitude, random_network
from isotn.tensor_core import as_matrix, random_isometry
from isotn.training import LossTrace, TrainConfig, gradient, mean_gradient, sgd_step, train

from conftest import deterministic_chain_net, philox, single_vertex_net


def objective(net, s):
    return -2.0 * math.log(abs(amplitude(net, s)))


def einsum_objective(net, tensors, s):
    """F = −2 log|A(s)| on ``net``'s quiver and dims with the plain tensor
    dict ``tensors``, which need not be isometries, by one np.einsum with
    the Out legs fixed at ``s`` and the In leg at its one index."""
    q, pos = net.quiver, net.quiver.plan.out_position
    fixed = {**{e: s[p] for e, p in pos.items()}, **{e: 0 for e in q.in_edges}}
    letter = dict(zip(sorted(net.edge_dim), string.ascii_letters))
    subs, ops = [], []
    for v in q.vertices:
        edges = q.vertex_in_edges(v) + q.vertex_out_edges(v)
        ops.append(tensors[v][tuple(fixed.get(e, slice(None)) for e in edges)])
        subs.append("".join(letter[e] for e in edges if e not in fixed))
    return -2.0 * math.log(abs(np.einsum(",".join(subs) + "->", *ops)))


def directional_derivative(net, s, xi, h=1e-5):
    """Central finite difference of F along a tangent direction, via retraction."""
    return (objective(retract(net, xi, h), s) - objective(retract(net, xi, -h), s)) / (2 * h)


def random_tangent(net, rng):
    raw = {v: rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
           for v, t in net.vertex_tensor.items()}
    return tangent_project(net, raw)


class TestGradient:
    def test_minimum_has_vanishing_tangent_gradient(self):
        net = deterministic_chain_net((0, 1, 0), 2)
        g = gradient(net, (0, 1, 0))
        xi = tangent_project(net, g)
        assert max(np.max(np.abs(xi[v])) for v in xi) < 1e-8

    def test_one_parameter_family_analytic(self):
        # U(θ) = (cos θ, sin θ): F(θ) = −2 log cos θ, dF/dθ = 2 tan θ
        theta = 0.3
        net = single_vertex_net([np.cos(theta), np.sin(theta)])
        g = gradient(net, (0,))
        dU = np.array([[-np.sin(theta), np.cos(theta)]])
        analytic = 2.0 * np.tan(theta)
        derived = 2.0 * np.real(np.vdot(dU, g[0]))
        assert abs(derived - analytic) < 1e-6
        fd = (objective(single_vertex_net([np.cos(theta + 1e-6), np.sin(theta + 1e-6)]), (0,))
              - objective(single_vertex_net([np.cos(theta - 1e-6), np.sin(theta - 1e-6)]), (0,))) / 2e-6
        assert abs(derived - fd) < 1e-6

    @pytest.mark.parametrize("kind,n", [("chain", 6), ("tree", 8), ("mera", 4), ("mera", 8)])
    def test_matches_finite_differences(self, kind, n):
        gen = philox(42)
        net = random_network(kind, n, 2, 3, gen)
        s = tuple(gen.integers(0, 2, n))
        assert abs(amplitude(net, s)) > 1e-3  # seed chosen to keep F well-conditioned
        g = gradient(net, s)
        for _ in range(20):
            xi = random_tangent(net, gen)
            analytic = 2.0 * sum(np.real(np.vdot(xi[v], g[v])) for v in g)
            fd = directional_derivative(net, s, xi)
            assert abs(analytic - fd) <= 1e-5 * max(abs(fd), 1e-3)

    def test_ambient_directional_derivative(self):
        # unconstrained probe: dF along any ambient direction equals 2 Re⟨δ, G⟩;
        # F off the manifold comes from an einsum of the plain perturbed tensors
        gen = philox(5)
        net = random_network("tree", 4, 2, 2, gen)
        s = (0, 1, 1, 0)
        g = gradient(net, s)
        assert abs(einsum_objective(net, net.vertex_tensor, s) - objective(net, s)) < 1e-12
        h = 1e-6
        for _ in range(5):
            delta = {v: gen.standard_normal(t.shape) + 1j * gen.standard_normal(t.shape)
                     for v, t in net.vertex_tensor.items()}
            plus = {v: net.vertex_tensor[v] + h * delta[v] for v in delta}
            minus = {v: net.vertex_tensor[v] - h * delta[v] for v in delta}
            fd = (einsum_objective(net, plus, s) - einsum_objective(net, minus, s)) / (2 * h)
            analytic = 2.0 * sum(np.real(np.vdot(delta[v], g[v])) for v in g)
            assert abs(analytic - fd) < 1e-5 * max(abs(fd), 1.0)

    def test_zero_amplitude_raises(self):
        net = deterministic_chain_net((0, 0), 2)
        with pytest.raises(ZeroAmplitudeError) as err:
            gradient(net, (1, 1))
        assert err.value.sequence == (1, 1)

    def test_zero_amplitude_message_is_bounded(self):
        net = deterministic_chain_net((0,) * 256, 2)
        bad = (1,) * 256
        with pytest.raises(ZeroAmplitudeError) as err:
            gradient(net, bad)
        assert err.value.sequence == bad
        assert len(str(err.value)) <= 200 and "length 256" in str(err.value)


class TestSgdStep:
    def test_zero_learning_rate_keeps_parameters(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        out = sgd_step(net, np.array([[0, 0, 1, 1]]), np.array([1]), 0.0)
        for v in net.quiver.vertices:
            np.testing.assert_allclose(out.vertex_tensor[v], net.vertex_tensor[v], atol=1e-12)

    def test_single_step_decreases_objective(self):
        gen = philox(2)
        net = single_vertex_net(random_isometry(1, 2, gen).ravel())
        s = (0,)
        before = objective(net, s)
        after = objective(sgd_step(net, np.array([s]), np.array([1]), 1e-2), s)
        assert after < before

    def test_preserves_isometry(self, rng):
        net = random_network("mera", 4, 2, 2, rng)
        rows, counts = np.array([[0, 1, 0, 1], [1, 1, 0, 0]]), np.array([2, 1])
        out = sgd_step(net, rows, counts, 0.1)
        assert out.max_isometry_violation() < 1e-10

    def test_overflowing_step_warns_nothing(self, rng):
        # the Gram matrices of a 1e300 move overflow; the SVD takes over
        net = random_network("tree", 4, 2, 2, rng)
        rows, counts = np.array([[0, 1, 0, 1], [1, 1, 0, 0]]), np.array([2, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sgd_step(net, rows, counts, 1e300)
        assert out.max_isometry_violation() < 1e-10

    def test_descent_property_full_batch(self):
        # with a small fixed step the full-batch objective never increases
        gen = philox(9)
        net = single_vertex_net(random_isometry(1, 3, gen).ravel())
        rows, counts = np.array([[0], [1]]), np.array([3, 1])
        losses = []
        for _ in range(50):
            losses.append(mean_gradient(net, rows, counts)[1])
            net = sgd_step(net, rows, counts, 0.05)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


@pytest.mark.parametrize("counts, message", [
    ([2, 0], "count 0 of row 1 is not a positive whole number"),
    ([-1, 1], "count -1 of row 0 is not a positive whole number"),
    ([1, 0.5], "count 0.5 of row 1 is not a positive whole number"),
    ([np.nan, 1], "count nan of row 0 is not a positive whole number"),
    ([1], "1 counts given for 2 rows"),
    ([1, 1, 1], "3 counts given for 2 rows"),
], ids=["zero", "negative", "fraction", "nan", "fewer", "more"])
def test_counts_must_be_positive_whole_numbers_one_per_row(counts, message):
    net = random_network("tree", 4, 2, 2, philox(3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        sgd_step(net, np.array([[0, 1, 0, 1], [1, 1, 0, 0]]), np.array(counts), 0.1)


class TestTrain:
    def _sample(self):
        return SampleMultiset(4, {(0, 0, 0, 0): 4, (1, 1, 1, 1): 2, (0, 1, 0, 1): 2})

    def test_zero_steps_returns_input(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        out, trace = train(net, self._sample(), TrainConfig(learning_rate=0.1, steps=0))
        assert out is net
        assert trace == LossTrace(())

    def test_deterministic_trace(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        cfg = TrainConfig(learning_rate=0.05, steps=40, batch_size=3, seed=11)
        _, trace_a = train(net, self._sample(), cfg)
        _, trace_b = train(net, self._sample(), cfg)
        assert trace_a.to_csv() == trace_b.to_csv()
        for ra, rb in zip(trace_a.records, trace_b.records):
            assert (ra.step, ra.loss, ra.max_isometry_violation) == (
                rb.step, rb.loss, rb.max_isometry_violation)

    def test_objective_improves(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        sample = self._sample()
        out, _ = train(net, sample, TrainConfig(learning_rate=0.05, steps=150, batch_size=8, seed=0))
        assert log_likelihood(out, sample) < log_likelihood(net, sample)

    def test_isometry_maintained_throughout(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        _, trace = train(net, self._sample(), TrainConfig(learning_rate=0.1, steps=30, batch_size=4))
        assert all(r.max_isometry_violation <= 1e-8 for r in trace.records)

    def test_shape_mismatch_rejected_before_stepping(self, rng):
        net = random_network("tree", 8, 2, 2, rng)
        with pytest.raises(ValueError):
            train(net, self._sample(), TrainConfig(learning_rate=0.1, steps=5))

    @pytest.mark.parametrize("error", [
        ZeroAmplitudeError((1,) * 256),
        SingularMatrixError("matrix is rank-deficient; polar factor undefined", 1e-17),
        ValueError("vertex 0 tensor is not isometric (violation 1.000e-03 > tol 1e-10)"),
    ], ids=["zero_amplitude", "singular", "not_isometric"])
    def test_failing_step_is_named(self, rng, monkeypatch, error):
        calls = []

        def third_call_fails(net, rows, counts):
            calls.append(rows)
            if len(calls) == 3:
                raise error
            return mean_gradient(net, rows, counts)

        monkeypatch.setattr(training, "mean_gradient", third_call_fails)
        net = random_network("tree", 4, 2, 2, rng)
        with pytest.raises(type(error)) as err:
            train(net, self._sample(), TrainConfig(learning_rate=0.05, steps=5))
        assert err.value is error and str(err.value).startswith("step 2: ")
        assert len(str(err.value)) <= 200
        assert getattr(err.value, "sequence", (1,) * 256) == (1,) * 256
        assert getattr(err.value, "smallest_singular_value", 1e-17) == 1e-17

    def test_empty_sample_is_rejected_unless_no_step_runs(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        empty = SampleMultiset(4, {})
        with pytest.raises(ValueError, match="nonempty"):
            train(net, empty, TrainConfig(learning_rate=0.05, steps=1, batch_size=2))
        assert train(net, empty, TrainConfig(learning_rate=0.05, steps=0))[0] is net

    def test_batches_follow_the_shuffled_expansion_of_sorted_items(self, rng, monkeypatch):
        # the reference draws batches the way the stream was first defined:
        # sorted items expanded one entry per window, the index list shuffled
        # on Philox stream (seed, 1) an epoch at a time, each batch counted
        sample = SampleMultiset(4, {(1, 1, 1, 1): 2, (0, 0, 0, 0): 4, (0, 1, 0, 1): 3})
        cfg = TrainConfig(learning_rate=0.05, steps=6, batch_size=13, seed=5)
        expanded = [s for s, m in sorted(sample.items()) for _ in range(m)]
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=5, spawn_key=(1,))))
        order, expected = [], []
        for _ in range(cfg.steps):
            while len(order) < cfg.batch_size:
                epoch = list(range(len(expanded)))
                gen.shuffle(epoch)
                order.extend(epoch)
            take, order = order[:cfg.batch_size], order[cfg.batch_size:]
            expected.append(sorted(Counter(expanded[i] for i in take).items()))

        seen = []
        monkeypatch.setattr(training, "mean_gradient", lambda net, rows, counts: seen.append((rows, counts))
                            or mean_gradient(net, rows, counts))
        train(random_network("tree", 4, 2, 2, rng), sample, cfg)
        assert len(seen) == len(expected)
        for (rows, counts), batch in zip(seen, expected):
            assert np.array_equal(rows, [s for s, _ in batch]) and np.array_equal(counts, [m for _, m in batch])

    def test_checkpoint_callback_invoked(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        seen = []
        train(net, self._sample(), TrainConfig(learning_rate=0.1, steps=10, checkpoint_every=4),
              on_checkpoint=lambda step, snap: seen.append(step))
        assert seen == [4, 8]


@pytest.mark.parametrize("kind, n, w, bond", [("chain", 8, 3, 4), ("tree", 8, 3, 4), ("mera", 8, 3, 3)])
def test_trained_tensors_stay_checked_views_of_their_runs(kind, n, w, bond):
    net = random_network(kind, n, w, bond, philox(21))
    gen = philox(22)
    sample = SampleMultiset(n, {tuple(int(x) for x in gen.integers(0, w, n)): 1 for _ in range(12)})
    out, trace = train(net, sample, TrainConfig(learning_rate=0.05, steps=3, batch_size=4))
    # the check ran on the last retracted network, over every vertex
    worst = 0.0
    for v in out.quiver.vertices:
        m = as_matrix(out.vertex_tensor[v], out.vertex_split(v))
        worst = max(worst, float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1])))))
    assert out.max_isometry_violation() == worst == trace.records[-1].max_isometry_violation
    # each run's tensors are views of one array: no vertex was copied out
    assert any(len(verts) > 1 for verts, *_ in out.runs())
    for verts, _, _, run in out.runs():
        assert len({id(out.vertex_tensor[v].base) for v in verts}) == 1
        assert all(np.shares_memory(out.vertex_tensor[v], run) for v in verts)


def test_objective_gauge_invariant(rng):
    net = random_network("tree", 4, 2, 2, rng)
    sample = SampleMultiset(4, {(0, 0, 1, 1): 2, (1, 0, 1, 0): 1})
    gen = philox(7)
    unitaries = {e: random_isometry(net.edge_dim[e], net.edge_dim[e], gen)
                 for e in list(net.quiver.internal_edges) + list(net.quiver.in_edges)}
    gauged = gauge_transform(net, unitaries)
    assert abs(log_likelihood(net, sample) - log_likelihood(gauged, sample)) < 1e-10


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0, steps=1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.1, steps=1, batch_size=0)


@pytest.mark.parametrize("field, value, message", [
    ("learning_rate", math.nan, "learning rate nan is not a finite positive number"),
    ("learning_rate", math.inf, "learning rate inf is not a finite positive number"),
    ("learning_rate", -0.5, "learning rate -0.5 is not a finite positive number"),
    ("steps", 2.5, "step count 2.5 is not a finite whole number"),
    ("steps", -1, "step count must be nonnegative"),
    ("batch_size", 2.5, "batch size 2.5 is not a finite whole number"),
    ("checkpoint_every", 2.5, "checkpoint_every 2.5 is not a finite whole number"),
    ("checkpoint_every", -1, "checkpoint_every must be nonnegative"),
    ("seed", 2.5, "seed 2.5 is not a finite whole number"),
    ("seed", -1, "seed -1 is not a nonnegative integer"),
])
def test_train_config_names_the_field_it_rejects(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(**{"learning_rate": 0.1, "steps": 1, field: value})


def test_train_config_keeps_whole_floats_as_ints():
    cfg = TrainConfig(learning_rate=0.1, steps=2.0, batch_size=3.0, checkpoint_every=1.0)
    assert (cfg.steps, cfg.batch_size, cfg.checkpoint_every) == (2, 3, 1)
    assert all(type(x) is int for x in (cfg.steps, cfg.batch_size, cfg.checkpoint_every))
