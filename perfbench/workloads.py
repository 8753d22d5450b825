"""The four benchmark workloads: train_tree, eval_chain, sample_tree, mi_decay.

Each workload drives one user task through the public functions the CLI
commands call. Inputs are made from the workload seed; set-up performs the
program calls that prepare the first op; ``call`` performs one program call,
which completes one or more ops; ``check`` validates the outputs of one call
against an invariant computed by a different code path, outside the timed
phase.

All four are closed loop with one client: the next call starts when the
previous one has returned.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# called through module attributes, so the traced run's wrappers see the calls
from isotn import corpus, diagnostics, model, model_io, network, sampling, training
from isotn.errors import IsotnError

import textgen

ISOMETRY_TOL = 1e-8
REL_TOL = 1e-9


def philox(seed: int, stream: int) -> np.random.Generator:
    """The CLI's per-purpose generator: Philox keyed by (seed, stream)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def isometry_violation(net) -> float:
    """max over vertices of ‖M†M − I‖ from the raw tensors (benchmark's own code)."""
    worst = 0.0
    q = net.quiver
    for v in q.vertices:
        t = net.vertex_tensor[v]
        m = t.reshape(int(np.prod(t.shape[:len(q.vertex_in_edges(v))])), -1).T
        gram = m.conj().T @ m
        worst = max(worst, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    return worst


@dataclass
class CallResult:
    """What one program call completed: per-op latencies (s), items, output."""

    latencies: list[float]
    items: int
    output: object


class Workload:
    """Base: subclasses set ``name``, ``item`` and ``ops_per_call``."""

    name = ""
    item = ""
    ops_per_call = 1
    traced_calls = 1  # calls in one replayed block of the traced run

    def __init__(self, seed: int, workdir: Path, **sizes):
        self.seed = seed
        self.workdir = workdir
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise TypeError(f"{self.name} has no size {key!r}")
            setattr(self, key, value)
        self.generate()

    def generate(self) -> None:
        """Make the inputs from the seed (not part of set-up time)."""

    def setup(self) -> None:
        """Program calls that prepare the first op."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the state right after set-up (op 0 comes next)."""

    def call(self, k: int) -> CallResult:
        raise NotImplementedError

    def check(self, k: int, result: CallResult) -> list[str]:
        """Problems with call ``k``'s output; empty when it is correct."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Work done once after the ops since the last reset, with its own checks."""
        return []

    def _vocab(self, text: str):
        """The character vocabulary of the training text (w symbols, no OOV slot)."""
        vocab = corpus.build_vocab(text, "chars")
        if vocab.size != self.w:
            raise ValueError(f"synthetic text has {vocab.size} symbols, expected {self.w}")
        return vocab

    def _round_trip(self, bundle: model_io.ModelBundle, tag: str):
        """save_model -> load_model, as the CLI's eval/sample/mi commands start."""
        path = self.workdir / f"{self.name}-{tag}.isotn"
        model_io.save_model(bundle, path)
        return model_io.load_model(path)


class TrainTree(Workload):
    """Riemannian SGD through training.train on a binary tree."""

    name = "train_tree"
    item = "step"
    n, w, bond, batch, eta = 32, 27, 8, 64, 0.05
    text_chars = 4096
    steps_per_call = 8

    @property
    def ops_per_call(self):
        return self.steps_per_call

    def generate(self):
        self.text, _ = textgen.corpus(self.seed, self.text_chars, 0)

    def setup(self):
        vocab = self._vocab(self.text)
        tokens = corpus.tokenize(self.text, vocab)
        self.sample = corpus.windows(tokens, self.n, 1)
        self.initial = network.random_network("tree", self.n, vocab.size, self.bond,
                                              philox(self.seed, 0))
        self.reset()

    def reset(self):
        self.net = self.initial

    def call(self, k):
        # each call draws its batches from its own data-order stream
        cfg = training.TrainConfig(learning_rate=self.eta, steps=self.steps_per_call,
                                   batch_size=self.batch, seed=self.seed * 1_000_003 + k)
        self.net, trace = training.train(self.net, self.sample, cfg)
        walls = [r.wall_time for r in trace.records]
        lat = [b - a for a, b in zip([0.0] + walls[:-1], walls)]
        return CallResult(lat, len(walls), (trace, self.net))

    def check(self, k, result):
        trace, net = result.output
        problems = []
        if len(trace.records) != self.steps_per_call:
            problems.append(f"call {k}: {len(trace.records)} steps recorded")
        for r in trace.records:
            if not math.isfinite(r.loss) or r.loss <= 0.0:
                problems.append(f"call {k} step {r.step}: loss {r.loss!r}")
        violation = isometry_violation(net)
        if not violation <= ISOMETRY_TOL:
            problems.append(f"call {k}: isometry violation {violation:.3e}")
        return problems


class EvalChain(Workload):
    """Held-out scoring through model.log_likelihood on a chain."""

    name = "eval_chain"
    item = "window"
    n, w, bond = 32, 27, 8
    windows_per_op = 64
    op_inputs = 128  # distinct op inputs; ops cycle through them
    text_chars = 4096
    checked_inputs = 4  # op inputs whose result is recomputed by the chain rule
    traced_calls = 32

    def generate(self):
        heldout_chars = self.op_inputs * self.windows_per_op + self.n
        self.text, self.heldout = textgen.corpus(self.seed, self.text_chars, heldout_chars)

    def setup(self):
        vocab = self._vocab(self.text)
        net = network.random_network("chain", self.n, vocab.size, self.bond, philox(self.seed, 0))
        bundle = self._round_trip(model_io.ModelBundle(net, vocab, "chain", self.seed), "model")
        tokens = corpus.tokenize(self.heldout, bundle.symbols)
        span = self.windows_per_op + self.n - 1
        self.inputs = [corpus.windows(tokens[s:s + span], self.n, 1)
                       for s in range(0, self.op_inputs * self.windows_per_op,
                                      self.windows_per_op)]
        self.net = bundle.net
        self.first_scores: dict[int, float] = {}

    def call(self, k):
        t0 = time.perf_counter()
        value = model.log_likelihood(self.net, self.inputs[k % len(self.inputs)])
        return CallResult([time.perf_counter() - t0], self.windows_per_op, value)

    def check(self, k, result):
        value = result.output
        if not (math.isfinite(value) and value > 0.0):
            return [f"op {k}: free energy {value!r}"]
        idx = k % len(self.inputs)
        if idx in self.first_scores:  # a repeated input must score the same
            first = self.first_scores[idx]
            return [] if value == first else [f"op {k}: free energy {value!r} != {first!r}"]
        self.first_scores[idx] = value
        if idx >= self.checked_inputs:
            return []
        # chain rule: the first window's Born probability is recomputed as the
        # product of exact conditionals (doubled-network marginals), the
        # others from single amplitudes, and the total must match the op's
        (seq, mult), *rest = self.inputs[idx].items()
        log_p = sum(math.log(sampling.conditional_distribution(self.net, seq[:pos])[seq[pos]])
                    for pos in range(self.n))
        expected = -mult * log_p - sum(m * math.log(model.born_probability(self.net, s))
                                       for s, m in rest)
        if not math.isclose(value, expected, rel_tol=REL_TOL):
            return [f"op {k}: free energy {value!r} != chain-rule total {expected!r}"]
        return []


class SampleTree(Workload):
    """Exact sampling through sampling.sample on a binary tree."""

    name = "sample_tree"
    item = "draw"
    n, w, bond = 32, 27, 8
    draws_per_op = 4
    text_chars = 4096
    traced_calls = 2

    def generate(self):
        self.text, _ = textgen.corpus(self.seed, self.text_chars, 0)

    def setup(self):
        vocab = self._vocab(self.text)
        net = network.random_network("tree", self.n, vocab.size, self.bond, philox(self.seed, 0))
        bundle = model_io.ModelBundle(net, vocab, "tree", self.seed)
        self.net = self._round_trip(bundle, "model").net
        self.reset()

    def reset(self):
        self.rng = philox(self.seed, 2)

    def call(self, k):
        t0 = time.perf_counter()
        draws = sampling.sample(self.net, self.draws_per_op, self.rng)
        return CallResult([time.perf_counter() - t0], len(draws), draws)

    def check(self, k, result):
        problems = []
        for d in result.output:
            p = model.born_probability(self.net, d)
            if not p > 0.0:
                problems.append(f"op {k}: draw {d} has Born probability {p!r}")
        if k == 0:
            again = sampling.sample(self.net, self.draws_per_op, philox(self.seed, 2))
            if again != result.output:
                problems.append("op 0: draws differ under the same seed")
        return problems


class MiDecay(Workload):
    """Mutual-information decay curves through diagnostics.decay_curve.

    The two models are those of the chain-vs-tree criticality comparison: a
    chain (n=32, w=2, D=4) and a tree (n=32, w=2, D=8). Op k draws member k of
    each model's Haar ensemble the way compare_decay does and computes both
    curves, chain first; fit_decay then runs once on the averaged curves. One
    op covers both models so that every op does the same work.
    """

    name = "mi_decay"
    item = "pair"
    n, w, l_max = 32, 2, 16
    bonds = (("chain", 4), ("tree", 8))
    traced_calls = 2

    def setup(self):
        self.bases = []
        for stream, (kind, bond) in enumerate(self.bonds):
            net = network.random_network(kind, self.n, self.w, bond, philox(self.seed, stream))
            bundle = model_io.ModelBundle(net, None, kind, self.seed)
            self.bases.append(self._round_trip(bundle, kind).net)
        self.reset()

    def reset(self):
        self.curves = [[] for _ in self.bonds]

    def call(self, k):
        t0 = time.perf_counter()
        out = []
        for base in self.bases:
            rng = philox(self.seed, k)
            member = base.with_tensors(network.random_tensors(base.quiver, base.edge_dim, rng))
            out.append((member, diagnostics.decay_curve(member, self.l_max)))
        elapsed = time.perf_counter() - t0
        for acc, (_, curve) in zip(self.curves, out):
            acc.append(curve.values())
        pairs = sum(self.n - l for l in range(1, self.l_max + 1))
        return CallResult([elapsed], pairs * len(out), out)

    def check(self, k, result):
        problems = []
        ceiling = math.log(self.w) + 1e-12
        l = 1 + k % self.l_max
        i = k % (self.n - l)
        j = i + l
        for (kind, _), (member, curve) in zip(self.bonds, result.output):
            for dist, value in curve.points:
                if not 0.0 <= value <= ceiling:
                    problems.append(f"op {k} {kind}: I({dist}) = {value!r} outside [0, log w]")
            a = diagnostics.pairwise_mutual_information_model(member, i, j)
            b = diagnostics.pairwise_mutual_information_model(member, j, i)
            if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-13):
                problems.append(f"op {k} {kind}: I({i},{j}) = {a!r} != I({j},{i}) = {b!r}")
        return problems

    def finish(self):
        """fit_decay on the ensemble-averaged curve of each model."""
        problems = []
        for (kind, _), curves in zip(self.bonds, self.curves):
            if not curves:
                continue
            mean = np.mean(curves, axis=0)
            avg = diagnostics.DecayCurve(tuple((l + 1, float(v)) for l, v in enumerate(mean)))
            for form in ("power", "exponential"):
                try:
                    fit = diagnostics.fit_decay(avg, form)
                except IsotnError as exc:
                    problems.append(f"{kind} {form} fit: {exc}")
                    continue
                if not all(math.isfinite(p) for p in fit.params):
                    problems.append(f"{kind} {form} fit: parameters {fit.params}")
        return problems


WORKLOADS = {cls.name: cls for cls in (TrainTree, EvalChain, SampleTree, MiDecay)}
