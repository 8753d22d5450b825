"""Dense complex tensor arithmetic.

The value type for vertices, states and operators is a plain, read-only
``numpy.ndarray`` of dtype complex128 in row-major (C) order. States and
operators come from :func:`astensor`, which validates finiteness and
freezes the buffer, copying an array its caller can still write to; a
network's vertex tensors are views of its stacked runs, which the network
checks itself (:mod:`isotn.network`).
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

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IsometryImpossibleError, ShapeError, SingularMatrixError, _brief_value

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


@functools.cache  # few distinct (ndim, split) pairs, and a step asks for them many times
def _stack_axes(ndim: int, split: IndexSplit) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The axis order (stack axes, in axes, out axes) of an ``ndim`` array
    whose axes before the last ``len(split)`` ones index a stack, its
    inverse, and the number of stack axes."""
    n = len(split.in_axes + split.out_axes)
    split.validate(n if ndim >= n else ndim)
    lead = ndim - n
    axes = tuple(range(lead)) + tuple(lead + a for a in split.in_axes + split.out_axes)
    return axes, tuple(sorted(range(ndim), key=axes.__getitem__)), lead


def as_stack(tensor: np.ndarray, split: IndexSplit) -> np.ndarray:
    """The transposed grouped matrices Mᵀ[in, out] of a stack of tensors,
    as one (k, in_dim, out_dim) array.

    Axes before the last ``len(split)`` ones index the stack, and each
    member is split by ``split``; a single tensor is a stack of one. With
    the in axes first, as on every vertex tensor, the result is a view.
    """
    axes, _, lead = _stack_axes(tensor.ndim, split)
    t, mid = tensor.transpose(axes), lead + len(split.in_axes)
    return t.reshape(-1, math.prod(t.shape[lead:mid]), math.prod(t.shape[mid:]))


def from_stack(stack: np.ndarray, shape: Sequence[int], split: IndexSplit) -> np.ndarray:
    """Inverse of :func:`as_stack`: the frozen tensor, or stack, of ``shape``.

    The result is C-ordered and, where the layout allows, a read-only view
    of ``stack``, which the caller hands over and no longer writes to. Its
    entries are not checked: a network checks its tensors once, when it
    takes them.
    """
    axes, inverse, _ = _stack_axes(len(shape), split)
    out = np.ascontiguousarray(stack.reshape([shape[a] for a in axes]).transpose(inverse))
    out.setflags(write=False)
    return out


def isometry_violation(tensor: np.ndarray, split: IndexSplit) -> float | np.ndarray:
    """``‖M†M − I‖_max`` of the grouped matrix (0 for an exact isometry).

    A stack of tensors (leading axes, as in :func:`as_stack`) gives one
    violation per member, in an array of the leading shape.
    """
    tensor = np.asarray(tensor, dtype=np.complex128)
    a = as_stack(tensor, split)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry gives a non-finite violation
        gram = a @ np.swapaxes(a, 1, 2).conj()  # conj(M†M), whose entries have the same moduli
    worst = np.abs(gram - np.eye(a.shape[1])).max(axis=(1, 2))
    lead = tensor.shape[:tensor.ndim - len(split.in_axes + split.out_axes)]
    return worst.reshape(lead) if lead else float(worst[0])


# per-purpose stream ids of one seed, so e.g. data shuffling never replays
# init draws
_STREAM_INIT = 0
_STREAM_DATA_ORDER = 1
_STREAM_SAMPLE = 2


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator of stream ``stream`` of ``seed``, a nonnegative
    integer; streams of one seed are independent."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed {_brief_value(seed)} is not a nonnegative integer")
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def random_isometries(k: int, in_dim: int, out_dim: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` independent Haar-random isometries as a (k, out_dim, in_dim)
    stack, each with M†M = I.

    Drawn by one stacked QR of complex Ginibre matrices with the R-diagonal
    phase fix, which makes the distribution invariant under left unitary
    multiplication. Member i reads the stream where the i-th of ``k``
    successive one-member draws would, and gets the same matrix.
    """
    if in_dim < 1 or out_dim < 1:
        raise ValueError("dimensions must be positive")
    if in_dim > out_dim:
        raise ValueError(f"in_dim {in_dim} exceeds out_dim {out_dim}: no isometry exists")
    x = rng.standard_normal((k, 2, out_dim, in_dim))
    z = np.empty((k, out_dim, in_dim), dtype=np.complex128)
    z.real, z.imag = x[:, 0], x[:, 1]
    del x  # each temporary is the size of the stack; hold at most two
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q *= (d / np.abs(d))[:, None, :]
    return q


def random_isometry(in_dim: int, out_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry as an (out_dim, in_dim) matrix with M†M = I: the
    one-member :func:`random_isometries`."""
    q = random_isometries(1, in_dim, out_dim, rng)[0]
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
    A stack with a NaN or infinite entry raises ShapeError; one whose Gram
    matrices overflow takes the SVD.
    """
    tensor = np.asarray(tensor, dtype=np.complex128)
    a = as_stack(tensor, split)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a @ np.swapaxes(a, 1, 2).conj()
    finite = bool(np.isfinite(gram).all())  # else a NaN or Inf entry, or an overflow
    if not finite and not np.isfinite(a).all():
        raise ShapeError("polar factor of a tensor with NaN or Inf entries")
    if finite:
        lam, vec = np.linalg.eigh(gram)
    if finite and (lam[:, 0] > 1e-4 * np.maximum(lam[:, -1], 1.0)).all():
        p = (vec * lam[:, None, :] ** -0.5) @ np.swapaxes(vec, 1, 2).conj() @ a
    else:
        p = np.empty_like(a)
        for i, m in enumerate(a):
            w, s, vh = np.linalg.svd(m, full_matrices=False)
            if s[-1] <= 1e-12 * max(s[0], 1.0):
                raise SingularMatrixError("matrix is rank-deficient; polar factor undefined", s[-1])
            p[i] = w @ vh
    return from_stack(p, tensor.shape, split)
