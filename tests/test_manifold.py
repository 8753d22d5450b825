import tracemalloc

import numpy as np
import pytest

from isotn.errors import IsotnError, ShapeError, SingularMatrixError, UnsupportedTopologyError
from isotn.graph import Quiver, build_chain
from isotn.manifold import (
    _antihermitian_basis,
    gauge_orbit_rank,
    gauge_transform,
    moduli_dimension,
    real_stiefel_dim,
    retract,
    tangency_violation,
    tangent_project,
)
from isotn.network import TensorNetwork, random_network
from isotn.tensor_core import as_matrix, from_matrix, project_to_isometry, random_isometry

from conftest import philox, single_vertex_net


def random_direction(net, rng):
    return {
        v: rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
        for v, t in net.vertex_tensor.items()
    }


class TestTangentProject:
    def test_radial_direction_projects_to_zero(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        xi = tangent_project(net, dict(net.vertex_tensor))
        for v in net.quiver.vertices:
            assert np.max(np.abs(xi[v])) < 1e-12

    def test_tangent_input_is_fixed_point(self, rng):
        # build an exactly tangent direction: U·A with A anti-Hermitian,
        # plus a component orthogonal to the columns of U
        net = random_network("tree", 4, 2, 2, rng)
        direction = {}
        for v in net.quiver.vertices:
            t = net.vertex_tensor[v]
            split = net.vertex_split(v)
            u = as_matrix(t, split)
            w, vdim = u.shape
            a = rng.standard_normal((vdim, vdim)) + 1j * rng.standard_normal((vdim, vdim))
            a = a - a.conj().T
            b = rng.standard_normal((w, vdim)) + 1j * rng.standard_normal((w, vdim))
            perp = b - u @ (u.conj().T @ b)
            direction[v] = from_matrix(u @ a + perp, t.shape, split)
        xi = tangent_project(net, direction)
        for v in net.quiver.vertices:
            np.testing.assert_allclose(xi[v], direction[v], atol=1e-12)

    def test_output_is_tangent_and_idempotent(self, rng):
        net = random_network("mera", 4, 2, 2, rng)
        xi = tangent_project(net, random_direction(net, rng))
        assert tangency_violation(net, xi) < 1e-10
        again = tangent_project(net, xi)
        for v in net.quiver.vertices:
            np.testing.assert_allclose(again[v], xi[v], atol=1e-12)

    def test_shape_mismatch(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        bad = {v: np.zeros((1, 1)) for v in net.quiver.vertices}
        with pytest.raises(ValueError):
            tangent_project(net, bad)


class TestRetract:
    def test_zero_step_is_identity(self, rng):
        net = random_network("tree", 8, 2, 2, rng)
        xi = tangent_project(net, random_direction(net, rng))
        out = retract(net, xi, 0.0)
        for v in net.quiver.vertices:
            np.testing.assert_allclose(out.vertex_tensor[v], net.vertex_tensor[v], atol=1e-12)

    def test_matches_great_circle_on_sphere(self):
        # ℂ→ℂ² isometries are unit vectors; retraction along (0, ε) from
        # (1, 0) must land within O(ε²) of the geodesic point (cos ε, sin ε)
        net = single_vertex_net([1.0, 0.0])
        for eps in (1e-1, 1e-2, 1e-3):
            xi = {0: np.array([[0.0, eps]], dtype=complex)}
            moved = retract(net, xi, 1.0).vertex_tensor[0].ravel()
            geodesic = np.array([np.cos(eps), np.sin(eps)])
            assert np.linalg.norm(moved - geodesic) < eps**2

    @pytest.mark.parametrize("step", [0.01, 0.1, 1.0])
    def test_stays_isometric(self, step, rng):
        net = random_network("mera", 4, 2, 2, rng)
        xi = tangent_project(net, random_direction(net, rng))
        out = retract(net, xi, step)
        assert out.max_isometry_violation() < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_direction_raises_shape_error(self, rng, bad):
        net = random_network("tree", 4, 2, 2, rng)
        xi = {v: np.zeros(t.shape) for v, t in net.vertex_tensor.items()}
        xi[2] = np.full(net.vertex_tensor[2].shape, bad)
        with pytest.raises(ShapeError, match="NaN or Inf") as err:
            retract(net, xi, 0.1)
        assert isinstance(err.value, IsotnError)

    def test_runs_step_as_restacked_vertices_do(self, rng):
        # taking the network's runs, and handing the polar factors over,
        # changes no bit against stacking per-vertex copies
        net = random_network("mera", 8, 3, 3, rng)
        xi = tangent_project(net, random_direction(net, rng))
        expected = {}
        for verts, shape, split in net.shape_groups():
            moved = np.array([xi[v] for v in verts]) * 0.1 + np.array([net.vertex_tensor[v] for v in verts])
            expected.update(zip(verts, project_to_isometry(moved, split)))
        out = retract(net, xi, 0.1)
        assert all(np.array_equal(out.vertex_tensor[v], expected[v]) for v in net.quiver.vertices)
        assert out.max_isometry_violation() == net.with_tensors(expected).max_isometry_violation()

    def test_first_order_agreement(self, rng):
        # ||retract(U, ξ, t) − (U + tξ)|| = O(t²)
        net = random_network("tree", 4, 2, 2, rng)
        xi = tangent_project(net, random_direction(net, rng))
        for t in (1e-2, 1e-3, 1e-4):
            out = retract(net, xi, t)
            err = max(
                np.max(np.abs(out.vertex_tensor[v] - (net.vertex_tensor[v] + t * xi[v])))
                for v in net.quiver.vertices
            )
            assert err < 10.0 * t**2


def per_vertex_tangent(net, raw):
    """ξ = G − U·herm(U†G), one grouped matrix at a time: the reference."""
    out = {}
    for v in net.quiver.vertices:
        split = net.vertex_split(v)
        u, g = as_matrix(net.vertex_tensor[v], split), as_matrix(np.asarray(raw[v], dtype=complex), split)
        utg = u.conj().T @ g
        out[v] = from_matrix(g - u @ ((utg + utg.conj().T) / 2.0), net.vertex_tensor[v].shape, split)
    return out


def per_vertex_svd_retract(net, xi, step):
    """The polar factor of U + step·ξ from one SVD per vertex: the reference."""
    out = {}
    for v in net.quiver.vertices:
        split, t = net.vertex_split(v), net.vertex_tensor[v]
        w, _, vh = np.linalg.svd(as_matrix(t + step * xi[v], split), full_matrices=False)
        out[v] = from_matrix(w @ vh, t.shape, split)
    return out


class TestShapeGroups:
    @pytest.mark.parametrize("kind, shapes", [
        ("chain", {(1, 8, 27), (8, 8, 27), (8, 27)}),
        ("tree", {(1, 8, 8), (8, 8, 8), (8, 27, 27)}),
        ("mera", {(1, 8, 8), (8, 8, 8), (8, 8, 8, 8), (8, 8, 27), (8, 8, 27, 27)}),
    ])
    def test_batched_geometry_matches_per_vertex_reference(self, kind, shapes):
        gen = philox(21)
        net = random_network(kind, 8, 27, 8, gen)
        groups = net.shape_groups()
        assert {shape for _, shape, _ in groups} == shapes
        assert sorted(v for verts, _, _ in groups for v in verts) == sorted(net.quiver.vertices)
        assert any(len(verts) > 1 for verts, _, _ in groups)
        raw = random_direction(net, gen)
        xi = tangent_project(net, raw)
        expected = per_vertex_tangent(net, raw)
        for v in net.quiver.vertices:
            np.testing.assert_allclose(xi[v], expected[v], rtol=0, atol=1e-13)
        moved = retract(net, xi, 0.05)
        expected = per_vertex_svd_retract(net, xi, 0.05)
        for v in net.quiver.vertices:
            np.testing.assert_allclose(moved.vertex_tensor[v], expected[v], rtol=0, atol=1e-13)
        assert tangency_violation(net, xi) < 1e-13
        assert moved.max_isometry_violation() < 1e-13

    def test_groups_are_cached_per_edge_dims(self, rng):
        net = random_network("tree", 8, 3, 2, rng)
        assert net.with_tensors(net.vertex_tensor).shape_groups() is net.shape_groups()

    @pytest.mark.parametrize("call", [
        lambda net, d: tangent_project(net, d),
        lambda net, d: retract(net, d, 0.1),
        lambda net, d: tangency_violation(net, d),
    ], ids=["tangent_project", "retract", "tangency_violation"])
    def test_missing_direction_names_the_vertex(self, call, rng):
        net = random_network("tree", 4, 2, 2, rng)
        directions = random_direction(net, rng)
        del directions[0]
        with pytest.raises(ValueError, match=r"^vertex 0: no direction given$"):
            call(net, directions)

    def test_rank_deficient_update_raises(self, rng):
        # moving vertex 1 by −U·e₀e₀† drops one input direction: rank d_in − 1
        net = random_network("tree", 8, 3, 2, rng)
        xi = {v: np.zeros(t.shape, dtype=complex) for v, t in net.vertex_tensor.items()}
        t, split = net.vertex_tensor[1], net.vertex_split(1)
        u = as_matrix(t, split)
        assert u.shape[1] > 1
        xi[1] = from_matrix(-u[:, :1] @ np.eye(u.shape[1])[:1], t.shape, split)
        with pytest.raises(SingularMatrixError) as err:
            retract(net, xi, 1.0)
        assert err.value.smallest_singular_value <= 1e-12


class TestModuliDimension:
    @pytest.mark.parametrize("w", [2, 3, 5])
    def test_single_vertex_is_projective_space(self, w):
        vec = np.zeros(w)
        vec[0] = 1.0
        net = single_vertex_net(vec)
        assert moduli_dimension(net) == w - 1

    def test_two_level_tree_with_wide_input(self):
        # root: C² → C²⊗C², leaves: C² → C⁴ each; dimension 12
        q = Quiver((0, 1, 2), (1, 2), (0,), (3, 4),
                   {1: 0, 2: 0, 3: 1, 4: 2}, {0: 0, 1: 1, 2: 2})
        dims = {0: 2, 1: 2, 2: 2, 3: 4, 4: 4}
        gen = philox(3)
        tensors = {
            0: random_isometry(2, 4, gen).T.reshape(2, 2, 2),
            1: random_isometry(2, 4, gen).T.reshape(2, 4),
            2: random_isometry(2, 4, gen).T.reshape(2, 4),
        }
        net = TensorNetwork(q, dims, tensors)
        assert moduli_dimension(net) == 12

    def test_equal_dimension_chain_is_rigid(self):
        # 1-in 1-out vertices of equal dimension contribute v·v − v² = 0
        q = Quiver((0, 1, 2), (1, 2), (0,), (3,),
                   {1: 0, 2: 1, 3: 2}, {0: 0, 1: 1, 2: 2})
        gen = philox(4)
        tensors = {v: random_isometry(2, 2, gen).T for v in (0, 1, 2)}
        net = TensorNetwork(q, {e: 2 for e in range(4)}, tensors)
        assert moduli_dimension(net) == 0

    def test_rejects_non_tree(self, rng):
        net = random_network("mera", 4, 2, 2, rng)
        with pytest.raises(UnsupportedTopologyError):
            moduli_dimension(net)


class TestGaugeOrbitRank:
    def test_single_vertex_phase_orbit(self):
        net = single_vertex_net([1.0, 0.0])
        assert gauge_orbit_rank(net) == 1
        assert real_stiefel_dim(net) == 3  # 2·2·1 − 1
        assert (real_stiefel_dim(net) - gauge_orbit_rank(net)) // 2 == moduli_dimension(net) == 1

    def test_two_vertex_chain_all_dims_two(self):
        q = build_chain(2)
        dims = {e: 2 for e in list(q.internal_edges) + list(q.in_edges) + list(q.out_edges)}
        gen = philox(8)
        tensors = {0: random_isometry(2, 4, gen).T.reshape(2, 2, 2),
                   1: random_isometry(2, 2, gen).T}
        net = TensorNetwork(q, dims, tensors)
        assert gauge_orbit_rank(net) == 8  # 4 (In edge) + 4 (bond)
        assert (real_stiefel_dim(net) - 8) // 2 == moduli_dimension(net)

    def test_gauge_transform_checks_its_unitaries(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        out = net.quiver.out_edges[0]
        with pytest.raises(ValueError, match=f"edge {out} is not an internal or In edge"):
            gauge_transform(net, {out: np.eye(2)})
        bond = net.quiver.internal_edges[0]
        with pytest.raises(ValueError, match=f"unitary for edge {bond} has wrong shape"):
            gauge_transform(net, {bond: np.eye(3)})

    def test_consistency_on_random_tree(self, rng):
        net = random_network("tree", 4, 2, 2, rng)
        rank = gauge_orbit_rank(net)
        assert (real_stiefel_dim(net) - rank) % 2 == 0
        assert (real_stiefel_dim(net) - rank) // 2 == moduli_dimension(net)


def dense_gauge_orbit_rank(net):
    """Rank of the dense real Jacobian of the gauge action, by SVD with
    σ > 1e-8·σ_max: the reference. Each column is one anti-Hermitian
    generator on one internal or In edge, each row one real coordinate
    of one vertex tensor."""
    q = net.quiver
    gauged = sorted(set(q.internal_edges) | set(q.in_edges))
    rows = sum(2 * net.vertex_tensor[v].size for v in q.vertices)
    cols = sum(net.edge_dim[e] ** 2 for e in gauged)
    jac = np.zeros((rows, cols), dtype=np.float64)
    col = 0
    for e in gauged:
        touched = []
        for v in q.vertices:
            ins = q.vertex_in_edges(v)
            outs = q.vertex_out_edges(v)
            if e in ins:
                touched.append((v, "in", ins.index(e)))
            if e in outs:
                touched.append((v, "out", len(ins) + outs.index(e)))
        for gen in _antihermitian_basis(net.edge_dim[e]):
            deltas = {}
            for v, side, ax in touched:
                t = net.vertex_tensor[v]
                if side == "out":
                    d = np.moveaxis(np.tensordot(t, gen, axes=([ax], [1])), -1, ax)
                else:
                    d = -np.moveaxis(np.tensordot(t, gen, axes=([ax], [0])), -1, ax)
                deltas[v] = deltas.get(v, 0) + d
            chunks = []
            for v in q.vertices:
                d = deltas.get(v)
                flat = np.zeros(net.vertex_tensor[v].size, dtype=np.complex128) if d is None else d.ravel()
                chunks.append(flat.real)
                chunks.append(flat.imag)
            jac[:, col] = np.concatenate(chunks)
            col += 1
    sv = np.linalg.svd(jac, compute_uv=False)
    return int(np.sum(sv > 1e-8 * sv[0]))


class TestGaugeRankOracle:
    @pytest.mark.parametrize("kind, n, w, bond, seed, defect", [
        ("chain", 8, 2, 2, 41, 0),
        ("chain", 16, 3, 4, 42, 0),
        ("tree", 8, 2, 3, 43, 0),
        ("tree", 16, 3, 4, 44, 0),
        ("mera", 8, 2, 2, 45, 3),
        ("mera", 8, 3, 3, 46, 3),
        ("mera", 16, 2, 3, 47, 7),
        ("mera", 16, 3, 4, 48, 7),
    ])
    def test_gram_rank_matches_dense_jacobian(self, kind, n, w, bond, seed, defect):
        net = random_network(kind, n, w, bond, philox(seed))
        q = net.quiver
        gauged = q.internal_edges + q.in_edges
        rank = gauge_orbit_rank(net)
        assert rank == dense_gauge_orbit_rank(net)
        # edge phases that cancel at every vertex act trivially: one U(1)
        # per independent cycle, none on a tree or chain
        assert sum(net.edge_dim[e] ** 2 for e in gauged) - rank == len(gauged) - len(q.vertices) == defect

    def test_memory_stays_vertex_local(self):
        # a dense Jacobian here would be 2·Σ|t_v| × 385 doubles, ~144 MiB
        net = random_network("tree", 8, 27, 8, philox(49))
        tracemalloc.start()
        try:
            rank = gauge_orbit_rank(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank == 385
        assert peak < 32 * 2**20
