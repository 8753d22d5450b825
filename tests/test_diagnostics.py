import math

import numpy as np
import pytest

from isotn.diagnostics import (
    DecayCurve,
    DecayFit,
    _mi_from_joint,
    compare_decay,
    decay_curve,
    decay_report_records,
    fit_decay,
    pairwise_mutual_information_data,
    pairwise_mutual_information_model,
    render_decay_report,
)
from isotn.errors import FitError
from isotn.dense import state
from isotn.graph import build_chain
from isotn.network import TensorNetwork, random_network, random_tensors, site_marginal

from conftest import philox, two_site_net


def plug_in_mi(joint):
    joint = np.asarray(joint, dtype=float)
    joint = joint / joint.sum()
    pi, pj = joint.sum(axis=1), joint.sum(axis=0)
    total = 0.0
    for a in range(joint.shape[0]):
        for b in range(joint.shape[1]):
            if joint[a, b] > 0:
                total += joint[a, b] * math.log(joint[a, b] / (pi[a] * pj[b]))
    return total


class TestModelMI:
    def test_product_state_has_zero_mi(self):
        net = random_network("chain", 6, 2, 1, philox(3))  # dim-1 bonds
        for i in range(6):
            for j in range(i + 1, 6):
                assert abs(pairwise_mutual_information_model(net, i, j)) < 1e-12

    def test_bell_pair_gives_log_two(self):
        net = two_site_net(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        assert abs(pairwise_mutual_information_model(net, 0, 1) - math.log(2)) < 1e-12

    def test_matches_enumeration_oracle(self, rng):
        net = random_network("tree", 8, 2, 3, rng)
        probs = np.abs(state(net)) ** 2
        for i, j in ((0, 1), (0, 7), (2, 5), (3, 4)):
            axes = tuple(ax for ax in range(8) if ax not in (i, j))
            joint = probs.sum(axis=axes)
            if i > j:
                joint = joint.T
            expected = plug_in_mi(joint)
            assert abs(pairwise_mutual_information_model(net, i, j) - expected) < 1e-10

    def test_one_marginal_call_per_pair(self, rng, monkeypatch):
        import isotn.diagnostics as diagnostics

        calls = []
        real = diagnostics.site_marginal
        monkeypatch.setattr(diagnostics, "site_marginal",
                            lambda *args: calls.append(args[2]) or real(*args))
        net = random_network("tree", 8, 3, 3, rng)
        for i, j in ((0, 1), (5, 2), (3, 7)):
            pairwise_mutual_information_model(net, i, j)
        assert calls == [(0, 1), (2, 5), (3, 7)]

    def test_position_validation(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        with pytest.raises(ValueError):
            pairwise_mutual_information_model(net, 1, 1)
        with pytest.raises(ValueError):
            pairwise_mutual_information_model(net, 0, 9)

    def test_pair_ends_are_read_as_whole_numbers(self, rng):
        net = random_network("tree", 8, 2, 3, rng)
        assert pairwise_mutual_information_model(net, 1.0, 3.0) == pairwise_mutual_information_model(net, 1, 3)
        samples = philox(5).integers(0, 2, size=(50, 8))
        assert (pairwise_mutual_information_data(samples, np.int64(2), 6.0)
                == pairwise_mutual_information_data(samples, 2, 6))
        for call in (lambda: pairwise_mutual_information_model(net, 1.5, 3),
                     lambda: pairwise_mutual_information_data(samples, 0, 1.5)):
            with pytest.raises(ValueError, match=r"^position 1\.5 is not a finite whole number$"):
                call()


class TestJointStack:
    def test_stack_gives_the_one_joint_values(self):
        gen = philox(11)
        joints = gen.random((2, 3, 4, 3)) * (gen.random((2, 3, 4, 3)) > 0.3)  # some zero weights
        joints[1, 2] = np.eye(4, 3)
        stacked = _mi_from_joint(joints)
        assert stacked.shape == (2, 3)
        for joint, value in zip(joints.reshape(-1, 4, 3), stacked.ravel()):
            assert abs(value - _mi_from_joint(joint)) <= 1e-15
            assert abs(value - plug_in_mi(joint)) <= 1e-12
        assert float(_mi_from_joint(np.full((2, 2), 0.25))) == 0.0

    def test_one_bad_joint_fails_the_stack(self):
        joints = np.full((5, 2, 2), 0.25)
        joints[3, 1, 0] = -1e-9
        with pytest.raises(ValueError, match="negative joint weight -1.000e-09"):
            _mi_from_joint(joints)
        joints[3, 1, 0] = -5e-13  # within the tolerance: clipped to zero
        assert np.all(_mi_from_joint(joints) >= 0.0)
        joints[1] = 0.0
        with pytest.raises(ValueError, match="zero mass"):
            _mi_from_joint(joints)


class TestDataMI:
    def test_constant_samples_zero(self):
        samples = [[0, 1, 0]] * 50
        assert pairwise_mutual_information_data(samples, 0, 2) == 0.0

    def test_iid_uniform_is_tiny(self):
        gen = philox(10)
        samples = gen.integers(0, 2, size=(100_000, 2))
        assert pairwise_mutual_information_data(samples, 0, 1) < 1e-3

    def test_known_joint_within_bootstrap_band(self):
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        analytic = plug_in_mi(joint)
        gen = philox(8)
        n = 20_000
        flat = gen.choice(4, size=n, p=joint.ravel())
        samples = np.stack([flat // 2, flat % 2], axis=1)
        est = pairwise_mutual_information_data(samples, 0, 1)
        boots = []
        for _ in range(200):
            idx = gen.integers(0, n, size=n)
            boots.append(pairwise_mutual_information_data(samples[idx], 0, 1))
        sigma = float(np.std(boots))
        assert abs(est - analytic) <= 3 * sigma + 4.0 / (2 * n)  # 3σ band plus plug-in bias order

    def test_rejects_negative_symbols(self):
        samples = [[-1, 1, 0], [1, 0, 1], [0, 0, 1], [-1, 1, 0]]
        with pytest.raises(ValueError, match="negative symbol -1"):
            pairwise_mutual_information_data(samples, 0, 1)
        with pytest.raises(ValueError, match="negative symbol -1"):
            decay_curve(samples, 1)

    def test_rejects_non_integer_symbols(self):
        samples = [[0.5, 1.7], [1.2, 0.1], [0.9, 1.9], [1.0, 0.0]]
        with pytest.raises(ValueError, match="symbol 0.5 in samples is not a finite whole number"):
            pairwise_mutual_information_data(samples, 0, 1)
        with pytest.raises(ValueError, match="is not a finite whole number"):
            decay_curve(samples, 1)
        with pytest.raises(ValueError, match="symbol nan in samples is not a finite whole number"):
            pairwise_mutual_information_data([[0.0, 1.0], [1.0, np.nan]], 0, 1)
        # whole numbers stored as floats are still symbols
        assert pairwise_mutual_information_data([[0.0, 1.0], [1.0, 0.0]], 0, 1) == pytest.approx(math.log(2))

    def test_rejects_empty_and_singleton(self):
        with pytest.raises(ValueError):
            pairwise_mutual_information_data([], 0, 1)
        with pytest.raises(ValueError):
            pairwise_mutual_information_data([[0, 1]], 0, 1)


class TestDecayCurve:
    def test_product_state_all_zero(self):
        net = random_network("chain", 6, 2, 1, philox(3))
        curve = decay_curve(net, 5)
        assert all(v < 1e-12 for _, v in curve.points)

    def test_chain_curve_computable(self, rng):
        net = random_network("chain", 32, 2, 4, rng)
        curve = decay_curve(net, 6)
        assert [l for l, _ in curve.points] == list(range(1, 7))
        assert all(v >= 0.0 for _, v in curve.points)

    def test_tree_curve_full_range(self, rng):
        net = random_network("tree", 32, 2, 8, rng)
        curve = decay_curve(net, 31)
        assert len(curve.points) == 31

    @pytest.mark.parametrize("kind", ["chain", "tree", "mera", "unequal_sites"])
    def test_one_stack_gives_the_per_distance_means(self, kind):
        # the curve's one joint stack against a mean per distance of each
        # pair's own joint, padded to w x w where its sites are smaller
        if kind == "unequal_sites":
            q = build_chain(8)
            dims = {**dict.fromkeys(q.in_edges, 1), **dict.fromkeys(q.internal_edges, 2),
                    **dict(zip(q.out_edges, (2, 3) * 4))}
            net = TensorNetwork.from_runs(q, dims, random_tensors(q, dims, philox(14)).runs)
        else:
            net = random_network(kind, 16, 2, 4, philox(14))
        n, w = net.n_sites, max(net.site_dims)
        curve = decay_curve(net, n - 1)
        for l, value in curve.points:
            joints = [site_marginal(net, {}, (i, i + l)) for i in range(n - l)]
            stack = np.array([np.pad(j, [(0, w - d) for d in j.shape]) for j in joints])
            assert value == float(np.mean(_mi_from_joint(stack))), (kind, l)

    def test_sites_of_unequal_dimension(self):
        q = build_chain(4)
        dims = {**dict.fromkeys(q.in_edges, 1), **dict.fromkeys(q.internal_edges, 2),
                **dict(zip(q.out_edges, (2, 3, 2, 3)))}
        net = TensorNetwork(q, dims, random_tensors(q, dims, philox(12)))
        curve = decay_curve(net, 3)
        for l, value in curve.points:
            want = np.mean([pairwise_mutual_information_model(net, i, i + l) for i in range(4 - l)])
            assert abs(value - want) <= 1e-15

    def test_data_curve_carries_bias_metadata(self):
        gen = philox(4)
        samples = gen.integers(0, 2, size=(500, 6))
        curve = decay_curve(samples, 3)
        assert curve.meta["estimator"] == "plug-in"
        assert curve.meta["positive_bias_order"] == pytest.approx(4 / 500)

    def test_data_curve_validates_samples_once(self, monkeypatch):
        import isotn.diagnostics as diagnostics

        samples = philox(5).integers(0, 3, size=(400, 8)).tolist()
        expected = [np.mean([pairwise_mutual_information_data(samples, i, i + l)
                             for i in range(8 - l)]) for l in range(1, 6)]
        calls = []
        real = diagnostics._sample_array
        monkeypatch.setattr(diagnostics, "_sample_array", lambda s: calls.append(1) or real(s))
        curve = decay_curve(samples, 5)
        assert len(calls) == 1
        assert curve.values().tolist() == expected

    def test_lmax_validation(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        with pytest.raises(ValueError):
            decay_curve(net, 4)

    def test_lmax_is_read_as_a_whole_number(self, rng):
        net = random_network("tree", 8, 2, 2, rng)
        assert decay_curve(net, 3.0) == decay_curve(net, 3)
        with pytest.raises(ValueError, match=r"^l_max 2\.5 is not a finite whole number$"):
            decay_curve(net, 2.5)

    def test_curve_rejects_large_negative(self):
        with pytest.raises(ValueError):
            DecayCurve(((1, -1e-6),))

    def test_curve_rejects_fractional_distance(self):
        with pytest.raises(ValueError, match="distance 1.5 is not a finite whole number"):
            DecayCurve(((1.5, 0.1), (2.7, 0.05)))
        assert DecayCurve(((1, 0.1), (2.0, 0.05))).points == ((1, 0.1), (2, 0.05))

    def test_curve_rejects_decreasing_distances(self):
        with pytest.raises(ValueError, match=r"^distances must be strictly increasing positive ints$"):
            DecayCurve(((2, 0.1), (1, 0.2)))

    def test_curve_clips_tiny_negative(self):
        curve = DecayCurve(((1, -5e-13), (2, 1.0)))
        assert curve.points[0][1] == 0.0


class TestFitDecay:
    def test_power_round_trip_recovers_parameters(self):
        ls = np.arange(1, 51)
        curve = DecayCurve(tuple((int(l), 2.0 * l ** (-0.37) + 0.01) for l in ls))
        fit = fit_decay(curve, "power")
        c1, alpha, c2 = fit.params
        assert abs(alpha - 0.37) / 0.37 <= 0.01
        assert abs(c1 - 2.0) / 2.0 <= 0.01
        assert abs(c2 - 0.01) / 0.01 <= 0.05  # profiled constant is grid-limited
        assert not fit.degenerate

    def test_exponential_round_trip_within_one_percent(self):
        curve = DecayCurve(tuple((l, 0.9 * np.exp(-0.31 * l)) for l in range(1, 25)))
        fit = fit_decay(curve, "exponential")
        c, m = fit.params
        assert abs(c - 0.9) / 0.9 <= 0.01
        assert abs(m - 0.31) / 0.31 <= 0.01

    def test_exponential_round_trip_recovers_rate(self):
        ls = np.arange(1, 31)
        curve = DecayCurve(tuple((int(l), math.exp(-0.5 * l)) for l in ls))
        exp_fit = fit_decay(curve, "exponential")
        assert abs(exp_fit.params[1] - 0.5) <= 0.01
        pow_fit = fit_decay(curve, "power")
        assert exp_fit.r_squared > pow_fit.r_squared

    def test_constant_curve_flagged_degenerate(self):
        curve = DecayCurve(tuple((l, 0.25) for l in range(1, 10)))
        fit = fit_decay(curve, "power")
        assert fit.degenerate

    def test_too_few_points(self):
        curve = DecayCurve(((1, 0.5), (2, 1e-15), (3, 0.0), (4, 1e-14)))
        with pytest.raises(FitError):
            fit_decay(curve, "exponential")

    def test_unknown_kind(self):
        curve = DecayCurve(tuple((l, 1.0 / l) for l in range(1, 6)))
        with pytest.raises(ValueError):
            fit_decay(curve, "linear")


class TestCompareDecay:
    def test_an_empty_ensemble_is_rejected(self, rng):
        net = random_network("tree", 8, 2, 2, rng)
        with pytest.raises(ValueError, match=r"^ensemble size must be >= 1$"):
            compare_decay(net, net, 4, ensemble_size=0)

    def test_ensemble_size_is_read_as_a_whole_number(self, rng):
        net = random_network("tree", 8, 2, 2, rng)
        report = compare_decay(net, net, 3, ensemble_size=2.0)
        assert report.ensemble_size == 2 and type(report.ensemble_size) is int
        assert report.curve_a == compare_decay(net, net, 3, ensemble_size=2).curve_a
        with pytest.raises(ValueError, match=r"^ensemble size 2\.5 is not a finite whole number$"):
            compare_decay(net, net, 3, ensemble_size=2.5)
        with pytest.raises(ValueError, match=r"^l_max 2\.5 is not a finite whole number$"):
            compare_decay(net, net, 2.5, ensemble_size=2)

    def test_network_against_itself_identical(self, rng):
        net = random_network("tree", 8, 2, 2, rng)
        report = compare_decay(net, net, 4, ensemble_size=3, seed=5)
        assert report.curve_a.points == report.curve_b.points

    def test_product_states_degenerate(self):
        gen = philox(0)
        a = random_network("chain", 8, 2, 1, gen)
        b = random_network("chain", 8, 2, 1, gen)
        report = compare_decay(a, b, 4, ensemble_size=2, seed=1)
        assert all(v < 1e-12 for _, v in report.curve_a.points)
        assert report.verdict_a == "degenerate"
        assert report.fits_a["power"].degenerate

    def test_report_fully_populated_and_renderable(self, rng):
        mps = random_network("chain", 16, 2, 4, rng)
        tree = random_network("tree", 16, 2, 4, rng)
        report = compare_decay(mps, tree, 6, ensemble_size=3, seed=2)
        for fits in (report.fits_a, report.fits_b):
            assert set(fits) == {"power", "exponential"}
        text = render_decay_report(report, "mps", "tree")
        assert "mps" in text and "delta_r2" in text
        records = decay_report_records(report, "mps", "tree")
        keys = [k for k, _ in records]
        assert "mps.verdict" in keys and "tree.delta_r2" in keys

    def test_a_negative_seed_is_named(self, rng):
        net = random_network("tree", 8, 2, 2, rng)
        with pytest.raises(ValueError, match=r"^seed -1 is not a nonnegative integer$"):
            compare_decay(net, net, 4, ensemble_size=1, seed=-1)

    def test_mismatched_shapes_rejected(self, rng):
        a = random_network("tree", 8, 2, 2, rng)
        b = random_network("tree", 16, 2, 2, rng)
        with pytest.raises(ValueError):
            compare_decay(a, b, 4)


def test_decay_fit_is_plain_record():
    fit = DecayFit("power", (1.0, 0.4, 0.0), 0.1, 0.9)
    assert fit.kind == "power" and not fit.degenerate
