import numpy as np
import pytest

from isotn.errors import IsometryImpossibleError, ShapeError, SingularMatrixError
from isotn.tensor_core import (
    IndexSplit,
    as_matrix,
    astensor,
    is_isometry,
    isometry_violation,
    project_to_isometry,
    random_isometry,
)

from conftest import philox


class TestIsIsometry:
    def test_identity(self):
        assert is_isometry(np.eye(3), IndexSplit((1,), (0,)), 1e-10)

    def test_unit_norm_state(self):
        # a normalized state is an isometry from the trivial space
        u = np.array([[1 / np.sqrt(2)], [1j / np.sqrt(2)]])
        assert is_isometry(u, IndexSplit((1,), (0,)), 1e-10)

    def test_gaussian_fails_then_projection_passes(self, rng):
        m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        split = IndexSplit((1,), (0,))
        assert not is_isometry(m, split, 1e-6)
        assert is_isometry(project_to_isometry(m, split), split, 1e-6)

    def test_impossible_shape_is_not_false(self):
        with pytest.raises(IsometryImpossibleError):
            is_isometry(np.zeros((2, 4)), IndexSplit((1,), (0,)), 1e-8)


class TestRandomIsometry:
    def test_one_by_one_is_unimodular(self):
        m = random_isometry(1, 1, philox(0))
        assert abs(abs(m[0, 0]) - 1.0) < 1e-12

    def test_isometric_to_1e12(self):
        m = random_isometry(2, 4, philox(7))
        assert is_isometry(m, IndexSplit((1,), (0,)), 1e-12)

    def test_seeds_differ(self):
        a = random_isometry(3, 5, philox(1))
        b = random_isometry(3, 5, philox(2))
        assert np.max(np.abs(a - b)) > 1e-3

    def test_unit_columns(self):
        m = random_isometry(3, 6, philox(3))
        np.testing.assert_allclose(np.linalg.norm(m, axis=0), 1.0, atol=1e-12)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            random_isometry(4, 2, philox(0))


class TestProjectToIsometry:
    def test_fixed_point(self):
        u = random_isometry(2, 5, philox(11))
        out = project_to_isometry(u, IndexSplit((1,), (0,)))
        np.testing.assert_allclose(out, u, atol=1e-12)

    def test_scaling_removed(self):
        out = project_to_isometry(2.0 * np.eye(3), IndexSplit((1,), (0,)))
        np.testing.assert_allclose(out, np.eye(3), atol=1e-12)

    def test_idempotent(self, rng):
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        split = IndexSplit((1,), (0,))
        once = project_to_isometry(m, split)
        twice = project_to_isometry(once, split)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_local_minimality_of_distance(self, rng):
        # 1-D probes through nearby isometries never get closer to the input
        split = IndexSplit((1,), (0,))
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        p = project_to_isometry(a, split)
        base = np.linalg.norm(p - a)
        for k in range(20):
            d = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            for t in (-0.2, -0.05, 0.05, 0.2):
                q = project_to_isometry(p + t * d, split)
                assert np.linalg.norm(q - a) >= base - 1e-10

    def test_rank_deficient_reports_singular_value(self):
        m = np.zeros((3, 2), dtype=np.complex128)
        m[:, 0] = (1.0, 0.0, 0.0)
        with pytest.raises(SingularMatrixError) as err:
            project_to_isometry(m, IndexSplit((1,), (0,)))
        assert err.value.smallest_singular_value <= 1e-12


def svd_polar(m):
    w, _, vh = np.linalg.svd(m, full_matrices=False)
    return w @ vh


def gram_polar(m):
    """M(M†M)^{-1/2} from the Gram matrix, as the batched route computes it."""
    lam, vec = np.linalg.eigh(m.conj().T @ m)
    return m @ (vec * lam**-0.5) @ vec.conj().T


class TestProjectStack:
    SPLIT = IndexSplit((0,), (1, 2))  # in axis first, as on vertex tensors

    def stack(self, gen, k, sigmas=None):
        """k random (2, 3, 4) tensors; member 0 gets singular values ``sigmas``."""
        t = gen.standard_normal((k, 2, 3, 4)) + 1j * gen.standard_normal((k, 2, 3, 4))
        if sigmas is not None:
            m = t[0].reshape(2, 12)
            w, _, vh = np.linalg.svd(m, full_matrices=False)
            t[0] = ((w * sigmas) @ vh).reshape(2, 3, 4)
        return t

    def test_members_match_per_member_svd(self):
        t = self.stack(philox(5), 6)
        out = project_to_isometry(t, self.SPLIT)
        assert out.shape == t.shape and not out.flags.writeable
        for member, p in zip(t, out):
            expected = svd_polar(as_matrix(member, self.SPLIT))
            np.testing.assert_allclose(as_matrix(p, self.SPLIT), expected, rtol=0, atol=1e-13)
        np.testing.assert_array_less(isometry_violation(out, self.SPLIT), 1e-14)

    def test_stack_axes_follow_any_split(self):
        t = self.stack(philox(6), 3).transpose(0, 2, 1, 3)  # member axes (3, 2, 4), in axis 1
        split = IndexSplit((1,), (0, 2))
        out = project_to_isometry(t, split)
        for member, p in zip(t, out):
            np.testing.assert_allclose(as_matrix(p, split), svd_polar(as_matrix(member, split)),
                                       rtol=0, atol=1e-13)

    def test_ill_conditioned_member_takes_the_svd(self):
        # κ(M) = 1e4: the Gram route would miss the isometry by ~1e-9; the
        # SVD the whole stack falls back to does not
        t = self.stack(philox(7), 4, sigmas=[1.0, 1e-4])
        ill = gram_polar(as_matrix(t[0], self.SPLIT))
        assert np.max(np.abs(ill.conj().T @ ill - np.eye(2))) > 1e-12
        out = project_to_isometry(t, self.SPLIT)
        np.testing.assert_array_less(isometry_violation(out, self.SPLIT), 1e-14)
        for k, (member, p) in enumerate(zip(t, out)):
            # the polar factor of M itself moves by ~eps·κ between two SVDs
            np.testing.assert_allclose(as_matrix(p, self.SPLIT), svd_polar(as_matrix(member, self.SPLIT)),
                                       rtol=0, atol=1e-11 if k == 0 else 1e-13)

    def test_singular_member_raises(self):
        t = self.stack(philox(8), 3, sigmas=[1.0, 0.0])
        with pytest.raises(SingularMatrixError) as err:
            project_to_isometry(t, self.SPLIT)
        assert err.value.smallest_singular_value <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_raises_shape_error(self, bad):
        t = self.stack(philox(9), 3)
        t[1, 0, 2, 1] = bad
        with pytest.raises(ShapeError, match="NaN or Inf"):
            project_to_isometry(t, self.SPLIT)

    def test_overflowing_gram_takes_the_svd_silently(self):
        t = self.stack(philox(10), 3)
        with np.errstate(all="raise"):
            out = project_to_isometry(t * 1e300, self.SPLIT)
        np.testing.assert_allclose(out, project_to_isometry(t, self.SPLIT), rtol=0, atol=1e-13)

    def test_violation_per_member(self):
        t = np.stack([np.eye(3), 2.0 * np.eye(3)])
        np.testing.assert_allclose(isometry_violation(t, IndexSplit((1,), (0,))), [0.0, 3.0])


def test_astensor_rejects_nonfinite():
    with pytest.raises(ShapeError):
        astensor([1.0, np.nan])
    with pytest.raises(ShapeError):
        astensor([np.inf, 0.0])


def test_astensor_is_readonly():
    t = astensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t[0] = 5.0


def test_as_matrix_groups_out_then_in(rng):
    t = rng.standard_normal((2, 3, 4)) + 0j
    m = as_matrix(t, IndexSplit((0,), (1, 2)))
    assert m.shape == (12, 2)
    np.testing.assert_allclose(m[:, 0], t[0].ravel())


def test_isometry_violation_zero_for_exact():
    assert isometry_violation(np.eye(4), IndexSplit((1,), (0,))) == 0.0
