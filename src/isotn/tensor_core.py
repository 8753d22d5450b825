"""Dense complex tensor arithmetic.

The value type for vertices, states and operators is a plain
``numpy.ndarray`` of dtype complex128 in row-major (C) order, produced by
:func:`astensor`, which validates finiteness and freezes the buffer,
copying an array its caller can still write to.
An :class:`IndexSplit` records which axes of a tensor are treated as the
domain (in) and which as the codomain (out) when the tensor is viewed as a
linear map.

Conventions used throughout the package:

* grouping a tensor ``u`` by a split yields the matrix ``M[out, in]``;
* tensors of one shape and split may be stacked on leading axes, and the
  stack is grouped as the transposed matrices ``Mᵀ[in, out]``, one per
  member, which for in-axes-first tensors is a reshape, not a copy;
* an isometry satisfies ``M† M = I`` on the in (domain) space;
* retraction back to the isometry manifold uses the polar factor of the
  grouped matrix, i.e. the metric-nearest isometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IsometryImpossibleError, ShapeError, SingularMatrixError

DEFAULT_ISOMETRY_TOL = 1e-8


def astensor(values) -> np.ndarray:
    """Validate ``values`` as a dense complex tensor and return it frozen.

    Accepts anything ``np.asarray`` accepts. The result is a C-contiguous
    complex128 array with the write flag cleared, so tensors can be shared
    freely. An array the caller can still write to is copied, so the
    caller's array stays writable and later writes to it never reach the
    tensor; a read-only array of the right dtype and layout is taken as it
    is. Raises ShapeError if any entry is NaN or infinite.
    """
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    if arr.flags.writeable and isinstance(values, np.ndarray) and np.may_share_memory(arr, values):
        arr = arr.copy()
    if not np.all(np.isfinite(arr)):
        raise ShapeError("tensor entries must be finite (found NaN or Inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class IndexSplit:
    """Partition of a tensor's axes into domain (in) and codomain (out)."""

    in_axes: tuple[int, ...]
    out_axes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "in_axes", tuple(self.in_axes))
        object.__setattr__(self, "out_axes", tuple(self.out_axes))

    def validate(self, ndim: int) -> None:
        """Check the split is an exact cover of ``range(ndim)``."""
        combined = sorted(self.in_axes + self.out_axes)
        if combined != list(range(ndim)):
            raise ShapeError(
                f"index split in={self.in_axes} out={self.out_axes} does not "
                f"partition the {ndim} axes"
            )


def matrix_dims(shape: Sequence[int], split: IndexSplit) -> tuple[int, int]:
    """(out_dim, in_dim) of the grouped matrix for a tensor of ``shape``."""
    return (math.prod(shape[a] for a in split.out_axes),
            math.prod(shape[a] for a in split.in_axes))


def as_matrix(tensor: np.ndarray, split: IndexSplit) -> np.ndarray:
    """Group ``tensor`` into the matrix M[out, in] defined by ``split``."""
    split.validate(tensor.ndim)
    out_dim, in_dim = matrix_dims(tensor.shape, split)
    return tensor.transpose(split.out_axes + split.in_axes).reshape(out_dim, in_dim)


def from_matrix(matrix: np.ndarray, shape: Sequence[int], split: IndexSplit) -> np.ndarray:
    """Inverse of :func:`as_matrix`: rebuild the tensor of ``shape``."""
    axes = split.out_axes + split.in_axes
    grouped_shape = [shape[a] for a in axes]
    inverse = np.argsort(axes)
    return astensor(matrix.reshape(grouped_shape).transpose(inverse))


def is_isometry(tensor: np.ndarray, split: IndexSplit, tol: float = DEFAULT_ISOMETRY_TOL) -> bool:
    """True iff the grouped matrix M satisfies ``‖M†M − I‖_max ≤ tol``.

    Raises IsometryImpossibleError when the in-dimension exceeds the
    out-dimension, since then no isometry of that shape exists at all.
    """
    split.validate(np.ndim(tensor))
    out_dim, in_dim = matrix_dims(np.shape(tensor), split)
    if in_dim > out_dim:
        raise IsometryImpossibleError(
            f"in-dimension {in_dim} exceeds out-dimension {out_dim}"
        )
    return isometry_violation(tensor, split) <= tol


def _stack_axes(ndim: int, split: IndexSplit) -> tuple[int, ...]:
    """The axis order (stack axes, in axes, out axes) of an ``ndim`` array
    whose axes before the last ``len(split)`` ones index a stack."""
    n = len(split.in_axes + split.out_axes)
    split.validate(n if ndim >= n else ndim)
    lead = ndim - n
    return tuple(range(lead)) + tuple(lead + a for a in split.in_axes + split.out_axes)


def as_stack(tensor: np.ndarray, split: IndexSplit) -> np.ndarray:
    """The transposed grouped matrices Mᵀ[in, out] of a stack of tensors,
    as one (k, in_dim, out_dim) array.

    Axes before the last ``len(split)`` ones index the stack, and each
    member is split by ``split``; a single tensor is a stack of one. With
    the in axes first, as on every vertex tensor, the result is a view.
    """
    axes = _stack_axes(tensor.ndim, split)
    lead = tensor.ndim - len(split.in_axes + split.out_axes)
    out_dim, in_dim = matrix_dims(tensor.shape[lead:], split)
    return tensor.transpose(axes).reshape(-1, in_dim, out_dim)


def from_stack(stack: np.ndarray, shape: Sequence[int], split: IndexSplit) -> np.ndarray:
    """Inverse of :func:`as_stack`: the frozen tensor, or stack, of ``shape``.

    Where the layout allows, the result is a read-only view of ``stack``,
    which the caller hands over and no longer writes to.
    """
    axes = _stack_axes(len(shape), split)
    out = stack.reshape([shape[a] for a in axes]).transpose(np.argsort(axes))
    out.setflags(write=False)  # handed over, so astensor takes it without a copy
    return astensor(out)


def isometry_violation(tensor: np.ndarray, split: IndexSplit) -> float | np.ndarray:
    """``‖M†M − I‖_max`` of the grouped matrix (0 for an exact isometry).

    A stack of tensors (leading axes, as in :func:`as_stack`) gives one
    violation per member, in an array of the leading shape.
    """
    tensor = np.asarray(tensor, dtype=np.complex128)
    a = as_stack(tensor, split)
    gram = a @ np.swapaxes(a, 1, 2).conj()  # conj(M†M), whose entries have the same moduli
    worst = np.max(np.abs(gram - np.eye(a.shape[1])), axis=(1, 2))
    lead = tensor.shape[:tensor.ndim - len(split.in_axes + split.out_axes)]
    return worst.reshape(lead) if lead else float(worst[0])


def random_isometry(in_dim: int, out_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry as an (out_dim, in_dim) matrix with M†M = I.

    Drawn by QR of a complex Ginibre matrix with the R-diagonal phase fix,
    which makes the distribution invariant under left unitary multiplication.
    """
    if in_dim < 1 or out_dim < 1:
        raise ValueError("dimensions must be positive")
    if in_dim > out_dim:
        raise ValueError(f"in_dim {in_dim} exceeds out_dim {out_dim}: no isometry exists")
    z = rng.standard_normal((out_dim, in_dim)) + 1j * rng.standard_normal((out_dim, in_dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    q.setflags(write=False)  # nothing else holds q, so astensor takes it without a copy
    return astensor(q)


def project_to_isometry(tensor: np.ndarray, split: IndexSplit) -> np.ndarray:
    """Nearest isometry in Frobenius norm: the polar factor M(M†M)^{-1/2}.

    A stack of tensors (leading axes, as in :func:`as_stack`) is projected
    member by member in one pass. With A = Mᵀ and S = AA† = conj(M†M), the
    factor is S^{-1/2}·A, from one batched ``eigh`` of the Gram matrices
    (Higham, SIAM J. Sci. Stat. Comput. 7, 1986). Its error grows as
    eps·λ_max/λ_min, so if any member has λ_min ≤ 1e-4·max(λ_max, 1) the
    stack takes the SVD instead, one matrix at a time. Every member the
    SVD's rank test rejects is among those, so a member without full
    column rank raises SingularMatrixError with its smallest singular value.
    """
    tensor = np.asarray(tensor, dtype=np.complex128)
    a = as_stack(tensor, split)
    lam, vec = np.linalg.eigh(a @ np.swapaxes(a, 1, 2).conj())
    if np.all(lam[:, 0] > 1e-4 * np.maximum(lam[:, -1], 1.0)):
        p = (vec * lam[:, None, :] ** -0.5) @ np.swapaxes(vec, 1, 2).conj() @ a
    else:
        p = np.empty_like(a)
        for i, m in enumerate(a):
            w, s, vh = np.linalg.svd(m, full_matrices=False)
            if s[-1] <= 1e-12 * max(s[0], 1.0):
                raise SingularMatrixError("matrix is rank-deficient; polar factor undefined", s[-1])
            p[i] = w @ vh
    return from_stack(p, tensor.shape, split)
