"""Maximum-likelihood training by Riemannian stochastic gradient descent.

The per-sequence objective is F(u|s) = −2 Re log⟨s|Ψ⟩ = −log μ(s). Its
gradient with respect to the conjugate parameters (the ascent direction
for the real objective) is −conj(E_v / A) per vertex, where A is the
amplitude and E_v = ∂A/∂u_v the vertex environment. On trees the batch
mean is computed without a per-sequence loop: the batched kernel of
:mod:`isotn.network` sweeps all batch sequences up to the root at once,
then sends the multiplicity-over-amplitude weights back down and folds
Σ_b m_b E_v(s_b)/A(s_b) into one tensor per vertex. General DAGs (MERA)
run the boundary-state contraction's tape backwards once per sequence. A
step projects the mean gradient to the Stiefel tangent space, moves one
learning rate against it and retracts by the polar factor, so every
iterate is exactly isometric; the retracted network's construction
rejects any violation above its tolerance, and the step records the
violation measured there.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ZeroAmplitudeError
from .manifold import retract, tangent_project
from .model import SampleMultiset
from .network import (
    SequenceState,
    TensorNetwork,
    _environments_dag,
    _require_model,
    sequence_array,
    tree_environments,
    tree_up,
)

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
    return mean_gradient(net, [(sequence, 1)])[0]


def mean_gradient(
    net: TensorNetwork, batch: Sequence[tuple[Sequence[int], int]]
) -> tuple[Gradient, float]:
    """Multiplicity-weighted mean gradient and mean per-sequence objective.

    On trees the whole batch goes through one batched up/down sweep; other
    DAGs run the recorded-operation tape once per batch entry.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    _require_model(net)
    seqs = sequence_array(net, [s for s, _ in batch])
    mult = np.array([m for _, m in batch], dtype=np.float64)
    total = float(mult.sum())
    if net.quiver.plan.is_tree:
        up = tree_up(net, seqs)
        amps = up[net.quiver.in_edges[0]][:, 0]
        _require_nonzero(seqs, amps)
        envs = tree_environments(net, seqs, up, mult / amps)
    else:
        tapes = [_environments_dag(net, tuple(s)) for s in seqs.tolist()]
        amps = np.array([amp for _, amp in tapes])
        _require_nonzero(seqs, amps)
        envs = {v: sum((m / amp) * env[v] for (env, amp), m in zip(tapes, mult))
                for v in net.quiver.vertices}
    loss = -2.0 * float(mult @ np.log(np.abs(amps))) / total
    return {v: np.conj(e) * (-1.0 / total) for v, e in envs.items()}, loss


def _require_nonzero(seqs: np.ndarray, amps: np.ndarray) -> None:
    """Raise ZeroAmplitudeError naming the first sequence with amplitude zero."""
    zero = np.flatnonzero(amps == 0)
    if zero.size:
        raise ZeroAmplitudeError(tuple(seqs[zero[0]].tolist()))


def sgd_step(
    net: TensorNetwork, batch: Sequence[tuple[SequenceState, int]], learning_rate: float
) -> TensorNetwork:
    """One descent step: retract along the projected negative mean gradient."""
    return _step(net, batch, learning_rate)[0]


def _step(
    net: TensorNetwork, batch: Sequence[tuple[SequenceState, int]], learning_rate: float
) -> tuple[TensorNetwork, float]:
    """The step of :func:`sgd_step` and the batch loss before it."""
    g, loss = mean_gradient(net, batch)
    return retract(net, tangent_project(net, g), -learning_rate), loss


def train(
    net: TensorNetwork,
    sample: SampleMultiset,
    cfg: TrainConfig,
    on_checkpoint: Callable[[int, TensorNetwork], None] | None = None,
) -> tuple[TensorNetwork, LossTrace]:
    """Mini-batch descent over the shuffled sample; deterministic under seed.

    Every recorded loss is the multiplicity-weighted mean per-sequence
    objective of that step's batch, evaluated before the update. The data
    order stream is derived from the seed independently of any
    initialization randomness. An error raised inside a step (a zero
    amplitude, a singular polar factor, a non-isometric retraction) keeps
    its type and attributes, and its message starts with ``step N: ``.
    """
    if sample.n != net.n_sites:
        raise ValueError(f"sample length {sample.n} != network sites {net.n_sites}")
    items = sorted(sample.items())
    if items:
        sequence_array(net, [s for s, _ in items])
    expanded: list[SequenceState] = []
    for s, m in items:
        expanded.extend([s] * m)

    shuffle_rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
    )
    order: list[int] = []
    records: list[LossRecord] = []
    t0 = time.perf_counter()
    current = net
    for step in range(cfg.steps):
        while len(order) < cfg.batch_size:
            epoch = list(range(len(expanded)))
            shuffle_rng.shuffle(epoch)
            order.extend(epoch)
        take, order = order[: cfg.batch_size], order[cfg.batch_size:]
        batch = sorted(Counter(expanded[i] for i in take).items())
        try:
            current, batch_loss = _step(current, batch, cfg.learning_rate)
        except ValueError as exc:  # keeps the type and attributes, names the step
            exc.args = (f"step {step}: {exc}",)
            raise
        records.append(LossRecord(step, batch_loss, time.perf_counter() - t0,
                                  current.max_isometry_violation()))
        if cfg.checkpoint_every and on_checkpoint and (step + 1) % cfg.checkpoint_every == 0:
            on_checkpoint(step + 1, current)
    return current, LossTrace(tuple(records))
