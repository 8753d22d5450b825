"""Born-rule statistical model over fixed-length sequences.

Probabilities are squared amplitude moduli of the network state; the
training objective is the free energy F(u|S) = −Σ_s m(s) log μ(s), whose
per-sequence mean differs from the KL divergence to the empirical
distribution only by the (parameter-independent) empirical entropy.

All logarithms are natural (nats).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import _brief
from .network import SequenceState, TensorNetwork, amplitude, amplitudes, whole_array, whole_number

Distribution = dict[SequenceState, float]

# sequences per batch of amplitudes in log_likelihood; bounds its memory
_EVAL_ROWS = 256


@dataclass(frozen=True)
class SymbolSet:
    """Ordered alphabet. ``scheme`` records how tokens map back to text."""

    symbols: tuple
    scheme: str = "chars"

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("symbol set must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("symbols must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self) -> dict:
        return {tok: i for i, tok in enumerate(self.symbols)}


@dataclass(frozen=True, init=False, eq=False)
class SampleMultiset:
    """Fixed-length sequences of whole symbols with positive whole multiplicities,
    given as a {sequence: multiplicity} mapping or an (N, n) table of rows.

    Held as read-only arrays: ``rows``, the distinct sequences as a (U, n)
    int64 table in lexicographic order, and ``counts``, their multiplicities.
    ``entries`` and ``items()`` are views in row order. A table's rows are
    counted by one packed byte key per row (:func:`_count_rows`), one sort
    of N keys of n·width bytes, with no int64 copy of the table.
    """

    n: int
    rows: np.ndarray
    counts: np.ndarray

    def __init__(self, n: int, entries: Mapping[SequenceState, int] | np.ndarray):
        n = whole_number(n, "sequence length")
        if n < 1:
            raise ValueError("sequence length must be positive")
        if isinstance(entries, Mapping):
            for s in entries:
                if len(s) != n:
                    raise ValueError(f"sequence {_brief(s)} has length {len(s)}, expected {n}")
            rows = whole_array(np.fromiter((x for s in entries for x in s), object), "symbol").reshape(-1, n)
            counts = whole_array(np.fromiter(entries.values(), object), "multiplicity")
            order = np.lexsort(rows.T[::-1])  # lexicographic, as the table form's rows
            rows, counts = rows[order], counts[order]
            low = np.flatnonzero(counts < 1)
            if low.size:
                raise ValueError(f"multiplicity of {_brief(tuple(rows[low[0]].tolist()))} must be >= 1, "
                                 f"got {counts[low[0]]}")
        else:
            table = whole_array(entries, "symbol")
            if table.ndim != 2 or table.shape[1] != n:
                raise ValueError(f"sequence table of shape {table.shape} is not (count, {n})")
            rows, counts = _count_rows(table)
        rows.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "counts", counts)

    @property
    def cardinality(self) -> int:
        return int(self.counts.sum())

    @property
    def entries(self) -> dict[SequenceState, int]:
        return dict(zip(map(tuple, self.rows.tolist()), self.counts.tolist()))

    def items(self):
        return self.entries.items()


def _count_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (N, n) int64 table in lexicographic order, as a
    (U, n) int64 array, and how often each occurs.

    Each row is counted by one byte key: its symbols less the table's
    minimum, in the narrowest big-endian unsigned width (1, 2, 4 or 8 bytes)
    that holds the span, so byte order is symbol order. The key is cast
    straight from ``table``, which may be a strided view, and a span of 2^63
    or more wraps mod 2^64 on the way in and back.
    """
    lo, hi = (int(table.min()), int(table.max())) if table.size else (0, 0)
    width = next(w for w in (1, 2, 4, 8) if hi - lo < 256 ** w)
    key = np.empty(table.shape, dtype=f">u{width}")
    np.subtract(table, np.int64(lo), out=key, casting="unsafe")
    distinct, counts = np.unique(key.view(f"V{key.itemsize * table.shape[1]}").ravel(),
                                 return_counts=True)
    rows = np.add(distinct.view(key.dtype).reshape(-1, table.shape[1]), np.int64(lo),
                  dtype=np.int64, casting="unsafe")
    return rows, counts


def born_probability(net: TensorNetwork, sequence: Sequence[int]) -> float:
    """Squared amplitude modulus of the basis sequence."""
    return abs(amplitude(net, sequence)) ** 2


def empirical_distribution(sample: SampleMultiset) -> Distribution:
    """Normalized frequencies m(s)/|S|."""
    total = sample.cardinality
    if total < 1:
        raise ValueError("empty sample")
    return {s: m / total for s, m in sample.items()}


def log_likelihood(net: TensorNetwork, sample: SampleMultiset) -> float:
    """Free energy F(u|S) = −Σ_s m(s) log μ(s). Lower is better.

    Each row scores −log μ(s) = −2·log|A(s)|, the rule of
    :func:`~isotn.training.mean_gradient`, so a row is scored exactly while
    its amplitude is a nonzero double, even where μ = |A|² would underflow.
    The sample's rows are scored in order, :data:`_EVAL_ROWS` at a time, so
    memory stays flat in the sample's size. A zero-amplitude sample row
    makes the objective infinite; this is reported as ``inf`` together with
    a warning naming the first such row rather than being epsilon-smoothed.
    """
    total = 0.0
    for start in range(0, len(sample.rows), _EVAL_ROWS):
        part = slice(start, start + _EVAL_ROWS)
        moduli = np.abs(amplitudes(net, sample.rows[part]))
        zero = np.flatnonzero(moduli == 0.0)
        if zero.size:
            warnings.warn(
                f"sequence {_brief(tuple(sample.rows[start + zero[0]].tolist()))} has zero model "
                "probability; objective is infinite",
                RuntimeWarning,
                stacklevel=2,
            )
            return math.inf
        total -= 2.0 * float(sample.counts[part] @ np.log(moduli))
    return total


def entropy(p: Distribution) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    return -sum(w * math.log(w) for w in p.values() if w > 0.0)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """D(p‖q) = Σ p log(p/q), with 0 log(0/q) = 0.

    Returns ``inf`` when q(s) = 0 somewhere p(s) > 0: the divergence is
    genuinely infinite and no clipping is applied.
    """
    total = 0.0
    for s, ps in p.items():
        if ps <= 0.0:
            continue
        qs = q.get(s, 0.0)
        if qs <= 0.0:
            return math.inf
        total += ps * math.log(ps / qs)
    return max(total, 0.0)
