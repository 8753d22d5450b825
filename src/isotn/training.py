"""Maximum-likelihood training by Riemannian stochastic gradient descent.

The per-sequence objective is F(u|s) = −2 Re log⟨s|Ψ⟩ = −log μ(s). Its
gradient with respect to the conjugate parameters (the ascent direction
for the real objective) is −conj(E_v / A) per vertex, where A is the
amplitude and E_v = ∂A/∂u_v the vertex environment. A batch is a (B, n)
array of distinct rows and B counts, as a sample holds them. Its mean
runs without a per-sequence loop on every topology: the compiled path of
:mod:`isotn.network` runs every row forward at once for the amplitudes,
then backwards from the multiplicity-over-amplitude weights, and folds
Σ_b m_b E_v(s_b)/A(s_b) into one tensor per vertex. A step projects the
mean gradient to the Stiefel tangent space, moves one learning rate
against it and retracts by the polar factor, so every iterate is exactly
isometric; the retracted network's construction rejects any violation
above the fixed isometry tolerance, and the step records the violation
measured there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ZeroAmplitudeError
from .manifold import retract, tangent_project
from .model import SampleMultiset
from .network import (
    TensorNetwork,
    _require_model,
    contract,
    environments,
    sequence_array,
)
from .tensor_core import _STREAM_DATA_ORDER, _rng

Gradient = dict[int, np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    steps: int
    batch_size: int = 1
    seed: int = 0
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.steps < 0:
            raise ValueError("step count must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be nonnegative")


@dataclass(frozen=True)
class LossRecord:
    step: int
    loss: float
    wall_time: float
    max_isometry_violation: float


@dataclass(frozen=True)
class LossTrace:
    records: tuple[LossRecord, ...] = ()

    def to_csv(self) -> str:
        """CSV with the reproducible columns only (wall time is excluded)."""
        lines = ["step,loss,max_isometry_violation"]
        for r in self.records:
            lines.append(f"{r.step},{r.loss!r},{r.max_isometry_violation!r}")
        return "\n".join(lines) + "\n"


def gradient(net: TensorNetwork, sequence: Sequence[int]) -> Gradient:
    """∂F/∂(conjugate parameters) per vertex for F(u|s) = −2 Re log⟨s|Ψ⟩.

    Raises ZeroAmplitudeError when the sequence has amplitude zero (the
    objective is singular there).
    """
    return mean_gradient(net, [sequence], [1])[0]


def mean_gradient(
    net: TensorNetwork, rows: Sequence[Sequence[int]], counts: Sequence[int]
) -> tuple[Gradient, float]:
    """Mean gradient and mean per-sequence objective of the rows of a (B, n)
    symbol table, row b weighted by ``counts[b]``, a positive whole number.

    The whole batch runs the network's compiled path forward for the
    amplitudes and backward for the summed environments. The gradient is a
    read-only :class:`~isotn.network.VertexStacks` over one stack per run of
    the network's shape groups, which the tangent projection takes whole.
    """
    _require_model(net)
    seqs, given = sequence_array(net, rows), np.asarray(counts)
    if given.shape != (len(seqs),):
        raise ValueError(f"{given.size} counts given for {len(seqs)} rows")
    mult = given.astype(np.float64)
    bad = np.flatnonzero(~(np.isfinite(mult) & (mult >= 1.0) & (np.floor(mult) == mult)))
    if bad.size:
        raise ValueError(f"count {given[bad[0]]} of row {bad[0]} is not a positive whole number")
    total = float(mult.sum())
    saved: dict = {}
    amps = contract(net, seqs, saved)
    _require_nonzero(seqs, amps)
    envs = environments(net, seqs, saved, mult / amps)
    loss = -2.0 * float(mult @ np.log(np.abs(amps))) / total
    runs = []
    for verts, shape, _ in net.shape_groups():
        g = np.empty((len(verts),) + shape, dtype=np.complex128)
        for i, v in enumerate(verts):
            np.conjugate(envs[v], out=g[i])
        g *= -1.0 / total
        g.setflags(write=False)
        runs.append(g)
    return net.by_vertex(runs), loss


def _require_nonzero(seqs: np.ndarray, amps: np.ndarray) -> None:
    """Raise ZeroAmplitudeError naming the first sequence with amplitude zero."""
    zero = np.flatnonzero(amps == 0)
    if zero.size:
        raise ZeroAmplitudeError(tuple(seqs[zero[0]].tolist()))


def sgd_step(
    net: TensorNetwork, rows: Sequence[Sequence[int]], counts: Sequence[int], learning_rate: float
) -> TensorNetwork:
    """One descent step on a :func:`mean_gradient` batch: retract along the
    projected negative mean gradient."""
    return _step(net, rows, counts, learning_rate)[0]


def _step(
    net: TensorNetwork, rows: Sequence[Sequence[int]], counts: Sequence[int], learning_rate: float
) -> tuple[TensorNetwork, float]:
    """The step of :func:`sgd_step` and the batch loss before it."""
    g, loss = mean_gradient(net, rows, counts)
    return retract(net, tangent_project(net, g), -learning_rate), loss


def train(
    net: TensorNetwork,
    sample: SampleMultiset,
    cfg: TrainConfig,
    on_checkpoint: Callable[[int, TensorNetwork], None] | None = None,
) -> tuple[TensorNetwork, LossTrace]:
    """Mini-batch descent over the shuffled sample; deterministic under seed.

    Each epoch shuffles the indices of the |S| windows (row r repeated
    counts[r] times, rows in order); a batch is the rows of ``sample.rows``
    its indices name, in row order, and how often each is named. Every
    recorded loss is the multiplicity-weighted mean per-sequence objective of
    that step's batch, evaluated before the update. The data order stream is
    derived from the seed independently of any initialization randomness. An
    error raised inside a step (a zero amplitude, a singular polar factor, a
    non-isometric retraction) keeps its type and attributes, and its message
    starts with ``step N: ``.
    """
    if sample.n != net.n_sites:
        raise ValueError(f"sample length {sample.n} != network sites {net.n_sites}")
    if len(sample.rows) or cfg.steps:  # an empty sample cannot fill a batch
        sequence_array(net, sample.rows)
    ends = np.cumsum(sample.counts)

    shuffle_rng = _rng(cfg.seed, _STREAM_DATA_ORDER)
    order = np.empty(0, dtype=np.int64)
    records: list[LossRecord] = []
    t0 = time.perf_counter()
    current = net
    for step in range(cfg.steps):
        while len(order) < cfg.batch_size:
            epoch = np.arange(sample.cardinality)
            shuffle_rng.shuffle(epoch)
            order = np.concatenate([order, epoch])
        take, order = order[: cfg.batch_size], order[cfg.batch_size:]
        picked, mult = np.unique(np.searchsorted(ends, take, "right"), return_counts=True)
        try:
            current, batch_loss = _step(current, sample.rows[picked], mult, cfg.learning_rate)
        except ValueError as exc:  # keeps the type and attributes, names the step
            exc.args = (f"step {step}: {exc}",)
            raise
        records.append(LossRecord(step, batch_loss, time.perf_counter() - t0,
                                  current.max_isometry_violation()))
        if cfg.checkpoint_every and on_checkpoint and (step + 1) % cfg.checkpoint_every == 0:
            on_checkpoint(step + 1, current)
    return current, LossTrace(tuple(records))
