import ast
import operator
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from isotn import dense, network
from isotn.dense import evaluate, intermediate_state, layer_map, operator_descend, operator_flow, state
from isotn.diagnostics import decay_curve, pairwise_mutual_information_model
from isotn.errors import IsometryImpossibleError, ShapeError
from isotn.graph import Quiver, topological_layers
from isotn.manifold import tangent_project
from isotn.model_io import ModelBundle, load_model, save_model
from isotn.network import (
    TensorNetwork,
    amplitude,
    amplitudes,
    random_network,
    random_tensors,
    site_marginal,
    site_operator_expectation,
)
from isotn.sampling import conditional_distribution
from isotn.tensor_core import IndexSplit, is_isometry, isometry_violation, matrix_dims, random_isometry
from isotn.training import mean_gradient

from conftest import deterministic_chain_net, enumerate_sequences, philox, single_vertex_net, two_site_net


def evaluate_split(net):
    """IndexSplit of the evaluated map: Out axes first, In axes last."""
    n_out = len(net.quiver.out_edges)
    n_in = len(net.quiver.in_edges)
    return IndexSplit(tuple(range(n_out, n_out + n_in)), tuple(range(n_out)))


class TestEvaluate:
    def test_single_vertex_is_the_tensor(self, rng):
        net = random_network("tree", 2, 2, 2, rng)
        ev = evaluate(net)
        # same map: vertex layout is (in, out...), evaluation is (out..., in)
        np.testing.assert_allclose(ev, net.vertex_tensor[0].transpose(1, 2, 0), atol=0)

    def test_two_matrix_chain_is_matrix_product(self):
        a = random_isometry(2, 2, philox(5))  # In -> bond
        b = random_isometry(2, 2, philox(6))  # bond -> Out
        q = Quiver((0, 1), (1,), (0,), (2,), {1: 0, 2: 1}, {0: 0, 1: 1})
        net = TensorNetwork(q, {0: 2, 1: 2, 2: 2}, {0: a.T, 1: b.T})
        ev = evaluate(net)
        np.testing.assert_allclose(ev, b @ a, atol=1e-12)

    def test_binary_tree_matches_kronecker_oracle(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        root, left, right = (net.vertex_tensor[v] for v in (0, 1, 2))
        # contract by hand: psi[a,b,c,d] = sum_{xy} root[0,x,y] left[x,a,b] right[y,c,d]
        oracle = np.einsum("ixy,xab,ycd->abcd", root, left, right)
        np.testing.assert_allclose(evaluate(net)[..., 0], oracle, atol=1e-12)

    def test_closed_isometry_composition(self, rng):
        for kind, n in (("chain", 5), ("tree", 8), ("mera", 4)):
            net = random_network(kind, n, 2, 3, rng)
            assert is_isometry(evaluate(net), evaluate_split(net), 1e-8)


class TestState:
    def test_basis_vector_state(self):
        net = single_vertex_net([1.0, 0.0])
        np.testing.assert_allclose(state(net), [1.0, 0.0], atol=0)

    def test_random_tree_normalized(self, rng):
        net = random_network("tree", 8, 2, 2, rng)
        psi = state(net)
        assert abs(np.vdot(psi, psi) - 1.0) < 1e-10

    def test_uniform_state_uniform_born(self):
        net = single_vertex_net([1 / np.sqrt(2), 1 / np.sqrt(2)])
        probs = np.abs(state(net)) ** 2
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_rejects_wide_input(self):
        q = Quiver((0,), (), (0,), (1,), {1: 0}, {0: 0})
        net = TensorNetwork(q, {0: 2, 1: 2}, {0: random_isometry(2, 2, philox(0)).T})
        with pytest.raises(ValueError):
            state(net)


class TestAmplitude:
    def test_deterministic_network(self):
        target = (0, 1, 1)
        net = deterministic_chain_net(target, 2)
        assert abs(abs(amplitude(net, target)) - 1.0) < 1e-12
        assert abs(amplitude(net, (1, 1, 1))) == 0.0

    @pytest.mark.parametrize("kind,n", [("tree", 8), ("chain", 6), ("mera", 4)])
    def test_matches_full_state_indexing(self, kind, n, rng):
        net = random_network(kind, n, 2, 3, rng)
        psi = state(net)
        for s in enumerate_sequences(net.site_dims):
            assert abs(amplitude(net, s) - psi[s]) < 1e-12

    def test_born_normalization_small_nets(self, rng):
        for kind, n in (("chain", 5), ("tree", 4), ("mera", 4)):
            net = random_network(kind, n, 2, 2, rng)
            total = sum(abs(amplitude(net, s)) ** 2 for s in enumerate_sequences(net.site_dims))
            assert abs(total - 1.0) < 1e-8

    def test_invalid_symbol_rejected(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        with pytest.raises(ValueError):
            amplitude(net, (0, 2, 0, 0))
        with pytest.raises(ValueError):
            amplitude(net, (0, 0, 0))

    def test_ragged_rows_rejected(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        with pytest.raises(ValueError, match="sequence length 2 != number of sites 4"):
            amplitudes(net, [[0, 1, 0, 1], [0, 1]])


class TestLayerMap:
    def test_single_layer_equals_evaluate(self, rng):
        net = random_network("tree", 2, 3, 2, rng)
        np.testing.assert_allclose(layer_map(net, 0), evaluate(net), atol=1e-12)

    @pytest.mark.parametrize("kind,n,tol", [("chain", 3, 1e-12), ("tree", 8, 1e-10), ("mera", 4, 1e-10)])
    def test_composition_reproduces_evaluate(self, kind, n, tol, rng):
        net = random_network(kind, n, 2, 2, rng)
        layering = topological_layers(net.quiver)
        mat = None
        for l in range(len(layering)):
            t = layer_map(net, l)
            d_in = int(np.prod([1] + [net.edge_dim[e] for e in _bounds(net)[l]]))
            m = t.reshape(-1, d_in)
            mat = m if mat is None else m @ mat
        ev = evaluate(net)
        np.testing.assert_allclose(mat.ravel(), ev.ravel(), atol=tol)

    def test_bad_layer_index(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        with pytest.raises(ValueError):
            layer_map(net, 5)


def _bounds(net):
    from isotn.dense import layer_boundaries

    return layer_boundaries(net)


class TestOperatorFlow:
    def test_identity_flows_to_identity(self, rng):
        net = random_network("tree", 8, 2, 2, rng)
        layering = topological_layers(net.quiver)
        d = int(np.prod(net.site_dims))
        for l in range(len(layering) + 1):
            o_l = operator_flow(net, np.eye(d), l)
            np.testing.assert_allclose(o_l, np.eye(o_l.shape[0]), atol=1e-12)

    def test_projector_expectation_equals_born(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        layering = topological_layers(net.quiver)
        psi = state(net)
        s = (0, 1, 1, 0)
        flat = np.ravel_multi_index(s, net.site_dims)
        op = np.zeros((16, 16), dtype=np.complex128)
        op[flat, flat] = 1.0
        born = abs(amplitude(net, s)) ** 2
        for l in range(len(layering) + 1):
            psi_l = intermediate_state(net, l)
            o_l = operator_flow(net, op, l)
            assert abs(np.vdot(psi_l, o_l @ psi_l) - born) < 1e-10

    def test_projector_completeness(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        op = np.eye(16)  # sum of all basis projectors
        o_top = operator_flow(net, op, 0)
        assert o_top.shape == (1, 1)
        assert abs(o_top[0, 0] - 1.0) < 1e-10

    def test_operator_shape_checked(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        with pytest.raises(ShapeError):
            operator_flow(net, np.eye(7), 1)


class TestSiteOperators:
    def test_expectation_matches_dense(self, rng):
        net = random_network("tree", 8, 2, 3, rng)
        psi = state(net)
        ops = {1: np.array([[0.2, 0.1j], [-0.1j, 0.8]]), 6: np.diag([1.0, -1.0]).astype(complex)}
        b = psi.copy()
        for p, o in ops.items():
            b = np.moveaxis(np.tensordot(b, o, axes=([p], [1])), -1, p)
        expected = np.vdot(psi, b)
        got = site_operator_expectation(net, ops)
        assert abs(got - expected) < 1e-12

    def test_no_operators_give_the_norm(self, rng):
        net = random_network("tree", 8, 2, 3, rng)
        assert site_operator_expectation(net, {}) == 1

    def test_marginal_matches_projector_calls(self, rng):
        # every topology; MERA runs the dense branch of both entry points
        fixed = {0: np.diag([1.0, 0.0]).astype(complex), 3: np.diag([0.0, 1.0]).astype(complex)}
        for kind in ("tree", "chain", "mera"):
            net = random_network(kind, 8, 2, 3, rng)
            vec = site_marginal(net, fixed, 5)
            for a in range(2):
                proj = np.zeros((2, 2), dtype=complex)
                proj[a, a] = 1.0
                want = site_operator_expectation(net, {**fixed, 5: proj}).real
                assert abs(vec[a] - want) < 1e-12, kind

    @pytest.mark.parametrize("kind", ["tree", "mera"])
    @pytest.mark.parametrize("bad", [-1, 9])
    def test_marginal_rejects_fixed_position_out_of_range(self, rng, kind, bad):
        net = random_network(kind, 8, 2, 2, rng)
        with pytest.raises(ValueError, match=rf"position {bad} outside \[0,8\)"):
            site_marginal(net, {bad: np.eye(2)}, 3)

    def test_two_open_legs_match_dense_joint(self, rng):
        # the last net's children hold interleaved positions (1, 3) and (0, 2),
        # so its sweep meets the open legs out of position order
        q = Quiver((0, 1, 2), (1, 2), (0,), (3, 4, 5, 6),
                   {1: 0, 2: 0, 3: 2, 4: 1, 5: 2, 6: 1}, {0: 0, 1: 1, 2: 2})
        dims = {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2}
        nets = [random_network(kind, 8, 2, 3, rng) for kind in ("tree", "chain", "mera")]
        nets.append(TensorNetwork(q, dims, random_tensors(q, dims, rng)))
        for net in nets:
            psi = state(net)
            for fixed in ({}, {2: np.array([[0.2, 0.1j], [-0.1j, 0.8]]), 3: np.diag([0.0, 1.0])}):
                b = psi
                for p, o in fixed.items():
                    b = np.moveaxis(np.tensordot(b, o, axes=([p], [1])), -1, p)
                for pair in ((0, 1), (0, 3), (1, 2)) if net.n_sites == 4 else ((0, 1), (1, 6), (4, 7)):
                    if set(pair) & set(fixed):
                        continue
                    axes = tuple(ax for ax in range(psi.ndim) if ax not in pair)
                    want = np.sum(psi.conj() * b, axis=axes).real
                    np.testing.assert_allclose(site_marginal(net, fixed, pair), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("position, fixed, message", [
        ((3, 3), {}, r"open positions \(3, 3\) are not strictly increasing"),
        ((5, 2), {}, r"open positions \(5, 2\) are not strictly increasing"),
        ((2, 8), {}, r"position 8 outside \[0,8\)"),
        ((-1, 2), {}, r"position -1 outside \[0,8\)"),
        ((2, 5), {5: np.eye(2)}, r"position 5 is both fixed and open"),
    ], ids=["repeated", "decreasing", "above_range", "below_range", "fixed_and_open"])
    def test_open_positions_rejected(self, rng, position, fixed, message):
        net = random_network("tree", 8, 2, 2, rng)
        with pytest.raises(ValueError, match=message):
            site_marginal(net, fixed, position)

    def test_marginal_dense_fallback_on_mera(self, rng):
        net = random_network("mera", 4, 2, 2, rng)
        psi = state(net)
        vec = site_marginal(net, {0: np.diag([1.0, 0.0]).astype(complex)}, 2)
        brute = np.sum(np.abs(psi[0]) ** 2, axis=(0, 2))
        np.testing.assert_allclose(vec, brute, atol=1e-12)


@pytest.fixture
def no_layer_maps(monkeypatch):
    """Make the dense layer-map oracle fail loudly if anything reaches it."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense layer-map path reached")

    for name in ("layer_map", "evaluate"):
        monkeypatch.setattr(dense, name, refuse)


class TestBoundaryState:
    """Non-tree networks take every doubled quantity through the compiled doubled path."""

    def test_mera_marginal_paths_build_no_layer_map(self, rng, no_layer_maps):
        net = random_network("mera", 8, 2, 2, rng)
        with pytest.raises(AssertionError, match="layer-map"):
            state(net)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert abs(site_operator_expectation(net, {1: z, 6: z})) <= 1.0 + 1e-12
        assert site_marginal(net, {0: z}, (2, 5)).shape == (2, 2)
        assert conditional_distribution(net, (1, 0, 1)).sum() == pytest.approx(1.0)
        assert pairwise_mutual_information_model(net, 3, 4) >= 0.0

    def test_mera_sixteen_sites_marginals_consistent(self, no_layer_maps):
        # the dense state path would build a 2**32-entry layer map here
        net = random_network("mera", 16, 2, 2, philox(41))
        one = site_marginal(net, {}, 6)
        assert abs(one.sum() - 1.0) <= 1e-12
        joint = site_marginal(net, {}, (6, 11))
        assert np.max(np.abs(joint.sum(axis=1) - one)) <= 1e-12

    def test_mera_joints_and_expectations_match_dense_state(self):
        net = random_network("mera", 8, 2, 3, philox(44))
        psi = state(net)
        prob = np.abs(psi) ** 2
        for i in range(8):
            for j in range(i + 1, 8):
                rest = tuple(ax for ax in range(8) if ax not in (i, j))
                assert np.max(np.abs(site_marginal(net, {}, (i, j)) - prob.sum(axis=rest))) <= 1e-12
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ket = psi
        for p in (2, 5):
            ket = np.moveaxis(np.tensordot(x, ket, axes=([1], [p])), 0, p)
        assert abs(site_operator_expectation(net, {2: x, 5: x}) - np.vdot(psi, ket)) <= 1e-12

    def test_doubled_paths_compile_once_per_roles(self, monkeypatch):
        net = random_network("mera", 16, 2, 2, philox(42))
        calls = []
        real = network._compile
        monkeypatch.setattr(network, "_compile", lambda *args: calls.append(1) or real(*args))
        first = decay_curve(net, 4)
        assert len(calls) == 54  # one path per pair, keyed by which legs are open
        member = net.with_tensors(random_tensors(net.quiver, net.edge_dim, philox(43)))
        assert decay_curve(net, 4) == first and decay_curve(member, 4) != first
        assert len(calls) == 54

    def test_mera_pair_joints_far_beyond_the_state(self):
        # the state has 2**32 entries (64 GiB); a pair's causal cone is small
        net = random_network("mera", 32, 2, 4, philox(45))
        tracemalloc.start()
        try:
            joints = [site_marginal(net, {}, (i, j)) for i, j in ((0, 1), (7, 8), (13, 21), (30, 31))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        for joint in joints:
            assert joint.shape == (2, 2) and abs(joint.sum() - 1.0) <= 1e-12 and joint.min() >= -1e-15


def _dense_mi(prob, i, j):
    """MI of positions i < j of a dense Born table, by the defining sum."""
    joint = prob.sum(axis=tuple(ax for ax in range(prob.ndim) if ax not in (i, j)))
    outer = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    keep = joint > 0
    return float(np.sum(joint[keep] * np.log(joint[keep] / outer[keep])))


class TestMergedSchedule:
    """Every pair joint of a decay curve from one schedule, each item made once."""

    @pytest.mark.parametrize("kind, bond", [("chain", 4), ("tree", 4), ("mera", 2)])
    def test_pair_joints_equal_their_own_paths_bit_for_bit(self, kind, bond):
        net = random_network(kind, 16, 2, bond, philox(46))
        pairs = [(i, j) for i in range(16) for j in range(i + 1, 16)]
        joints = site_marginal(net, {}, pairs)
        assert len(joints) == len(pairs)
        for pair, joint in zip(pairs, joints):
            assert np.array_equal(joint, site_marginal(net, {}, pair))

    def test_a_list_takes_fixed_operators_and_single_positions(self, rng):
        net = random_network("mera", 8, 2, 2, rng)
        fixed = {2: np.array([[0.2, 0.1j], [-0.1j, 0.8]])}
        wanted = [0, (1, 5), 7, (0, 3, 6)]
        for position, got in zip(wanted, site_marginal(net, fixed, wanted)):
            assert np.array_equal(got, site_marginal(net, fixed, position))

    @pytest.mark.parametrize("position, message", [
        ([(1, 2), ()], "no open position"),
        ([(1, 2), (4, 4)], r"open positions \(4, 4\) are not strictly increasing"),
        ([3, 8], r"position 8 outside \[0,8\)"),
    ])
    def test_a_list_is_checked_entry_by_entry(self, rng, position, message):
        net = random_network("tree", 8, 2, 2, rng)
        with pytest.raises(ValueError, match=message):
            site_marginal(net, {}, position)

    @pytest.mark.parametrize("kind", ["chain", "tree", "mera"])
    def test_decay_curve_matches_the_dense_state(self, kind):
        for n, w, bond in ((4, 3, 3), (8, 2, 3), (8, 2, 4)):
            net = random_network(kind, n, w, bond, philox(47))
            prob = np.abs(state(net)) ** 2
            curve = decay_curve(net, n - 1)
            for l, value in curve.points:
                want = np.mean([_dense_mi(prob, i, i + l) for i in range(n - l)])
                assert abs(value - max(want, 0.0)) <= 1e-12, (kind, n, l)

    def test_benchmark_chain_curve_runs_under_a_thousand_steps(self, monkeypatch):
        # n=32, w=2, D=4, l_max=16: 376 pair paths of 14 888 steps in all
        net = random_network("chain", 32, 2, 4, philox(48))
        runs = []
        real = network._execute
        monkeypatch.setattr(network, "_execute",
                            lambda net, path, *args: runs.append(len(path[0])) or real(net, path, *args))
        decay_curve(net, 16)
        assert len(runs) == 1 and runs[0] <= 1000

    def test_mera_curve_keeps_few_items_alive(self):
        # pairs by first position free each open leg's items before the next
        # leg opens; by distance the live items of every leg pile up
        net = random_network("mera", 32, 2, 4, philox(45))
        first = decay_curve(net, 8)  # compiles the paths
        tracemalloc.start()
        try:
            again = decay_curve(net, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first and peak < 8 * 2**20


def _imported_modules(path: Path):
    """Dotted names of the modules an import statement in ``path`` may bind."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def test_runtime_modules_never_import_the_dense_oracle():
    # parsed, not imported: importing any module runs isotn/__init__.py, which imports dense
    runtime = [p for p in Path(dense.__file__).parent.glob("*.py")
               if p.name not in ("__init__.py", "dense.py")]
    assert len(runtime) >= 10
    for path in runtime:
        for name in _imported_modules(path):
            assert name.lstrip(".").removeprefix("isotn.").split(".")[0] != "dense", path.name


class TestExplicitBondLists:
    def test_chain_bond_list_respected_with_tail_clamp(self, rng):
        net = random_network("chain", 5, 2, [2, 4, 4, 4], rng)
        bonds = [net.edge_dim[e] for e in sorted(net.quiver.internal_edges)]
        assert bonds == [2, 4, 4, 2]  # last clamped so the end vertex stays isometric

    def test_tree_per_level_list(self, rng):
        net = random_network("tree", 8, 2, [5, 3], rng)
        assert sorted(set(net.edge_dim[e] for e in net.quiver.internal_edges)) == [3, 5]

    def test_mera_per_row_list(self, rng):
        net = random_network("mera", 8, 2, [6, 3], rng)
        dims = set(net.edge_dim[e] for e in net.quiver.internal_edges)
        assert dims == {6, 3, 2}  # rows 1, 2, and the leaf row at the local dim

    def test_wrong_length_rejected(self, rng):
        with pytest.raises(ValueError):
            random_network("chain", 5, 2, [2, 4], rng)


@pytest.mark.parametrize("kind, n, w, bond", [("chain", 16, 5, 4), ("tree", 32, 27, 8), ("mera", 16, 3, 4)])
def test_random_tensors_read_the_stream_vertex_by_vertex(kind, n, w, bond):
    # the oracle: one random_isometry per vertex, in vertex order, on the same stream
    net = random_network(kind, n, w, bond, philox(50))
    drawing, rng = philox(51), philox(51)
    drawn = random_tensors(net.quiver, net.edge_dim, drawing)
    for v in net.quiver.vertices:
        shape = net.vertex_shape(v)
        out_dim, in_dim = matrix_dims(shape, net.vertex_split(v))
        assert np.array_equal(drawn[v], random_isometry(in_dim, out_dim, rng).T.reshape(shape)), v
    assert drawing.random() == rng.random()  # both streams stop at the same place


class TestValidation:
    def test_shape_mismatch_rejected(self, rng):
        q = Quiver((0,), (), (0,), (1,), {1: 0}, {0: 0})
        with pytest.raises(ShapeError):
            TensorNetwork(q, {0: 1, 1: 3}, {0: np.ones((1, 2)) / np.sqrt(2)})

    def test_non_isometric_rejected(self):
        q = Quiver((0,), (), (0,), (1,), {1: 0}, {0: 0})
        with pytest.raises(ValueError):
            TensorNetwork(q, {0: 1, 1: 2}, {0: np.array([[1.0, 1.0]])})

    def test_impossible_isometry_rejected(self):
        q = Quiver((0,), (), (0,), (1,), {1: 0}, {0: 0})
        with pytest.raises(IsometryImpossibleError):
            TensorNetwork(q, {0: 3, 1: 2}, {0: np.ones((3, 2)) / 9.0})

    def test_batched_check_names_the_perturbed_vertex(self):
        net = random_network("tree", 32, 27, 8, philox(12))
        leaves = [v for v in net.quiver.vertices if net.vertex_tensor[v].shape == (8, 27, 27)]
        assert len(leaves) == 16
        v = leaves[11]
        bad = np.array(net.vertex_tensor[v])
        bad[3, 5, 7] += 1e-6
        expected = isometry_violation(bad, net.vertex_split(v))
        assert 1e-8 < expected < 1e-5
        with pytest.raises(ValueError, match=rf"^vertex {v} tensor is not isometric "
                                             rf"\(violation {expected:.3e} > tol 1e-08\)$"):
            net.with_tensors({**net.vertex_tensor, v: bad})

    def test_impossible_vertex_fires_before_the_isometry_check(self):
        # vertex 1 maps a dim-4 In edge to one Out leg of dim 2, so no
        # isometry exists; vertex 0 is not isometric either, and comes first
        q = Quiver((0, 1), (1,), (0,), (2, 3), {1: 0, 2: 0, 3: 1}, {0: 0, 1: 1})
        tensors = {0: np.ones((1, 4, 2)), 1: np.ones((4, 2))}
        with pytest.raises(IsometryImpossibleError, match=r"^vertex 1: incoming dimension 4 exceeds outgoing 2$"):
            TensorNetwork(q, {0: 1, 1: 4, 2: 2, 3: 2}, tensors)

    def test_missing_edge_dim_rejected(self):
        q = Quiver((0,), (), (0,), (1,), {1: 0}, {0: 0})
        with pytest.raises(ShapeError):
            TensorNetwork(q, {0: 1}, {0: np.ones((1, 2)) / np.sqrt(2)})

    def test_caller_array_is_copied_not_frozen(self):
        q = Quiver((0,), (), (0,), (1,), {1: 0}, {0: 0})
        a = np.array([[1.0, 0.0]], dtype=np.complex128)
        assert a.flags.c_contiguous
        net = TensorNetwork(q, {0: 1, 1: 2}, {0: a})
        assert a.flags.writeable
        a[0, 0] = 5.0
        np.testing.assert_array_equal(net.vertex_tensor[0], [[1.0, 0.0]])
        assert not net.vertex_tensor[0].flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_names_its_vertex(self, bad):
        # a mapping and whole runs go through the same check
        net = random_network("tree", 8, 3, 2, philox(4))
        j, (verts, _, _) = next((j, g) for j, g in enumerate(net.shape_groups()) if len(g[0]) > 1)
        runs = [np.array(run) for *_, run in net.runs()]
        runs[j][1].flat[2] = bad
        for make in (lambda: net.with_tensors({**net.vertex_tensor, verts[1]: runs[j][1]}),
                     lambda: TensorNetwork.from_runs(net.quiver, net.edge_dim, runs)):
            with pytest.raises(ShapeError, match=rf"^vertex {verts[1]}: tensor entries must be finite"):
                make()

    def test_stacked_tensors_are_taken_without_a_copy(self, rng):
        # runs handed to from_runs are the network's storage, as a training
        # step's polar-factor stacks are; a mapping is always copied
        net = random_network("tree", 8, 3, 2, rng)
        runs = [np.array(run) for *_, run in net.runs()]
        taken = TensorNetwork.from_runs(net.quiver, net.edge_dim, runs)
        for (verts, _, _, run), given in zip(taken.runs(), runs):
            assert run is given and not run.flags.writeable
            assert all(np.shares_memory(taken.vertex_tensor[v], given) for v in verts)
        copied = net.with_tensors(net.vertex_tensor)
        assert not any(np.shares_memory(a, b) for (*_, a), (*_, b) in zip(copied.runs(), net.runs()))
        np.testing.assert_array_equal(copied.vertex_tensor[1], net.vertex_tensor[1])

    def test_from_runs_checks_the_run_count_and_shapes(self):
        net = random_network("tree", 8, 3, 2, philox(4))
        runs = [run for *_, run in net.runs()]
        with pytest.raises(ShapeError, match=rf"^{len(runs) - 1} tensor runs given for {len(runs)} shape groups$"):
            TensorNetwork.from_runs(net.quiver, net.edge_dim, runs[:-1])
        j, (verts, _, _) = next((j, g) for j, g in enumerate(net.shape_groups()) if len(g[0]) > 1)
        short = runs[:j] + [runs[j][1:]] + runs[j + 1:]
        with pytest.raises(ShapeError, match=rf"^vertex {verts[0]}: run of shape \({len(verts) - 1}, "):
            TensorNetwork.from_runs(net.quiver, net.edge_dim, short)
        e = net.quiver.internal_edges[0]
        with pytest.raises(ShapeError, match=rf"^edge {e} has no positive dimension assigned$"):
            TensorNetwork.from_runs(net.quiver, {**net.edge_dim, e: 0}, runs)

    def test_random_network_peaks_near_the_tensor_bytes(self):
        # each vertex is drawn straight into its slot of the network's runs
        tracemalloc.start()
        try:
            net = random_network("chain", 36, 32, 32, philox(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tensor_bytes = sum(t.nbytes for t in net.vertex_tensor.values())
        assert tensor_bytes >= 16 * 2**20
        assert peak < 1.25 * tensor_bytes


class TestReadOnlyStorage:
    # a network keeps the tensors and dims it was checked with; the gradient
    # and the tangent are stacked the same way and read-only as well
    WRITES = {
        "setitem": lambda m, v: operator.setitem(m, v, m[v]),
        "delitem": lambda m, v: operator.delitem(m, v),
        "ior": lambda m, v: operator.ior(m, {v: m[v]}),
        "update": lambda m, v: m.update({v: m[v]}),
        "pop": lambda m, v: m.pop(v),
        "popitem": lambda m, v: m.popitem(),
        "setdefault": lambda m, v: m.setdefault(v, m[v]),
        "clear": lambda m, v: m.clear(),
    }

    @pytest.mark.parametrize("write", WRITES.values(), ids=WRITES)
    def test_writes_to_stacked_tensors_raise(self, write):
        net = random_network("tree", 4, 2, 2, philox(50))
        g, _ = mean_gradient(net, np.array([[0, 1, 0, 1]]), np.array([1]))
        for stacks in (net.vertex_tensor, g, tangent_project(net, g)):
            before = dict(stacks)
            with pytest.raises(TypeError, match="read-only"):
                write(stacks, 1)
            assert list(stacks) == list(before) and all(stacks[v] is before[v] for v in before)

    def test_writes_to_edge_dims_raise(self):
        net = random_network("tree", 4, 2, 2, philox(50))
        with pytest.raises(TypeError):
            net.edge_dim[1] = 3
        with pytest.raises(TypeError):
            del net.edge_dim[1]
        assert net.edge_dim[1] == 2 and np.isfinite(amplitudes(net, [(0, 1, 0, 1)])).all()

    def test_tensors_are_views_of_their_runs(self, tmp_path):
        net = random_network("tree", 8, 3, 3, philox(51))
        drawn = random_tensors(net.quiver, net.edge_dim, philox(52))
        member = net.with_tensors(drawn)  # a mapping is copied into fresh runs
        assert not any(np.shares_memory(run, given) for (*_, run), given in zip(member.runs(), drawn.runs))
        save_model(ModelBundle(member), tmp_path / "m.isotn")
        loaded = load_model(tmp_path / "m.isotn").net
        for made in (net, member, loaded):
            assert any(len(verts) > 1 for verts, *_ in made.runs())
            for verts, _, _, run in made.runs():
                assert all(np.shares_memory(made.vertex_tensor[v], run) for v in verts)
        assert all(np.array_equal(loaded.vertex_tensor[v], drawn[v]) for v in drawn)
        seqs = [(0,) * 8, (1, 2, 0, 1, 2, 0, 1, 2)]
        assert np.array_equal(amplitudes(loaded, seqs), amplitudes(member, seqs))

    def test_networks_compare_by_identity_and_print_briefly(self):
        net = random_network("tree", 32, 27, 8, philox(53))
        same = net.with_tensors(net.vertex_tensor)
        assert net == net and net != same  # no elementwise array comparison
        assert len({net, same}) == 2
        assert len(repr(net)) < 200


def test_two_site_helper_builds_bell_state():
    bell = two_site_net(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    psi = state(bell)
    np.testing.assert_allclose(np.abs(psi.ravel()) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)


def ten_leaf_tree(seed):
    """Uneven directed tree with 10 observables (not a perfect binary tree).

    root -> (A, B); A emits 4 leaves and a bond to C (3 leaves);
    B emits only a bond to D (3 leaves).
    """
    q = Quiver(
        (0, 1, 2, 3, 4),
        (1, 2, 13, 14),
        (0,),
        tuple(range(3, 13)),
        {1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 1, 13: 1, 14: 2, 7: 3, 8: 3, 9: 3, 10: 4, 11: 4, 12: 4},
        {0: 0, 1: 1, 2: 2, 13: 3, 14: 4},
    )
    dims = {0: 1, 1: 3, 2: 2, 13: 2, 14: 2}
    for e in q.out_edges:
        dims[e] = 2
    return TensorNetwork(q, dims, random_tensors(q, dims, philox(seed)))


def test_tree_fast_path_matches_full_state_on_ten_leaves():
    net = ten_leaf_tree(17)
    psi = state(net)
    worst = 0.0
    for s in enumerate_sequences(net.site_dims):
        a = amplitude(net, s)
        assert abs(a) <= 1.0 + 1e-12
        worst = max(worst, abs(a - complex(psi[s])))
    assert worst < 1e-12


def test_operator_descend_preserves_expectation(rng):
    net = random_network("tree", 8, 2, 2, rng)
    layering = topological_layers(net.quiver)
    psi = state(net).ravel()
    gen = philox(33)
    from isotn.dense import layer_boundaries

    bounds = layer_boundaries(net)
    for l in range(len(layering) + 1):
        d_l = int(np.prod([net.edge_dim[e] for e in bounds[l]]))
        op_l = gen.standard_normal((d_l, d_l)) + 1j * gen.standard_normal((d_l, d_l))
        psi_l = intermediate_state(net, l)
        descended = operator_descend(net, op_l, l)
        lhs = np.vdot(psi, descended @ psi)
        rhs = np.vdot(psi_l, op_l @ psi_l)
        assert abs(lhs - rhs) < 1e-10
