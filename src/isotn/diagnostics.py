"""Mutual-information decay curves and model-class comparison.

I(l) is the relative entropy between the two-site joint at distance l and
the product of its marginals, averaged over all position pairs at that
distance. Curves decaying exponentially signal a finite correlation
length; curves decaying as a power law signal criticality. The comparison
report fits both forms to ensemble-averaged curves of two networks and
scores them by r² in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import FitError
from .network import TensorNetwork, random_tensors, site_marginal, whole_array, whole_number
from .tensor_core import _rng

_NEG_TOL = -1e-12
_I_FLOOR = 1e-12


@dataclass(frozen=True)
class DecayCurve:
    """Points (distance, mutual information in nats)."""

    points: tuple[tuple[int, float], ...]
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        pts = []
        last = 0
        for l, value in self.points:
            l = whole_number(l, "distance")
            if l <= last:
                raise ValueError("distances must be strictly increasing positive ints")
            if not math.isfinite(value) or value < _NEG_TOL:
                raise ValueError(f"invalid mutual information {value!r} at distance {l}")
            pts.append((l, max(0.0, float(value))))
            last = l
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "meta", dict(self.meta))

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.points], dtype=float)


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay parameters.

    ``params`` is (c1, alpha, c2) for the power form c1·l^(−alpha) + c2 and
    (c, m) for the exponential form c·exp(−m·l). ``residual`` and
    ``r_squared`` are computed on log I versus the log of the fitted curve.
    A fit is degenerate when the curve carries no usable decay signal (too
    flat, or a non-positive fitted rate).
    """

    kind: str
    params: tuple[float, ...]
    residual: float
    r_squared: float
    degenerate: bool = False


def _mi_from_joint(joint: np.ndarray) -> np.ndarray:
    """Mutual information in nats of each joint weight table of a (…, a, b)
    stack, one value per table, each normalized to unit mass here. A weight
    below −1e-12 or a table with no mass anywhere in the stack raises."""
    joint = np.asarray(joint, dtype=float)
    if np.any(joint < _NEG_TOL):
        raise ValueError(f"negative joint weight {joint.min():.3e}; numerical bug")
    joint = np.clip(joint, 0.0, None)
    total = joint.sum(axis=(-2, -1), keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("joint distribution has zero mass")
    joint = joint / total
    outer = joint.sum(axis=-1, keepdims=True) * joint.sum(axis=-2, keepdims=True)
    mask = joint > 0.0
    log = lambda x: np.log(x, out=np.zeros(joint.shape), where=mask)
    value = np.sum(joint * (log(joint) - log(outer)), axis=(-2, -1))
    return np.where((value < 0.0) & (value >= _NEG_TOL), 0.0, value)


def pairwise_mutual_information_model(net: TensorNetwork, i: int, j: int) -> float:
    """Exact mutual information between positions i and j of the model.

    The two-site joint is one doubled-network contraction with both legs
    open, over their causal cone only, on every topology. MI is symmetric,
    so (i, j) and (j, i) make the same call.
    """
    _check_pair(net.n_sites, i, j)
    return float(_mi_from_joint(site_marginal(net, {}, (min(i, j), max(i, j)))))


def _check_pair(n: int, i: int, j: int) -> None:
    """Raise ValueError unless i and j are distinct positions in [0, n)."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"positions ({i},{j}) must be distinct and within [0,{n})")


def _sample_array(samples: Sequence[Sequence[int]]) -> np.ndarray:
    """Sampled sequences as a (count, n) array of nonnegative whole symbols."""
    arr = np.asarray(samples)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("need at least 2 samples of equal length")
    arr = whole_array(arr, "symbol", " in samples")
    if arr.min() < 0:
        raise ValueError(f"negative symbol {int(arr.min())} in samples")
    return arr


def pairwise_mutual_information_data(
    samples: Sequence[Sequence[int]], i: int, j: int
) -> float:
    """Plug-in mutual information estimate between two sample positions.

    Empirical joint frequencies substituted into the defining formula; the
    estimate carries a positive bias of order w²/N for alphabet size w and
    N samples (no debiasing is applied).
    """
    arr = _sample_array(samples)
    _check_pair(arr.shape[1], i, j)
    return float(_mi_from_joint(_data_joints(arr, int(arr.max()) + 1, [i], [j]))[0])


def _data_joints(arr: np.ndarray, w: int, first: Sequence[int], second: Sequence[int]) -> np.ndarray:
    """The (k, w, w) stack of joint counts of columns first[k] and second[k]
    of a validated sample array over w symbols."""
    code = (np.arange(len(first)) * w + arr[:, first]) * w + arr[:, second]
    return np.bincount(code.ravel(), minlength=len(first) * w * w).reshape(-1, w, w).astype(float)


def decay_curve(source, l_max: int) -> DecayCurve:
    """I(l) for l = 1..l_max, averaging over all pairs at each distance.

    ``source`` is either a TensorNetwork (exact model curve) or a sequence
    of sampled sequences (plug-in estimate; the curve metadata records the
    estimator and its bias order). A model's pair joints come from one
    :func:`~isotn.network.site_marginal` call, one merged schedule, pairs
    by first position, then distance, so the items of one open leg are
    dropped before the next leg opens.
    """
    model = isinstance(source, TensorNetwork)
    arr = None if model else _sample_array(source)
    n = source.n_sites if model else arr.shape[1]
    if not 1 <= l_max < n:
        raise ValueError(f"l_max must be in [1,{n}), got {l_max}")
    distances = range(1, l_max + 1)
    if model:
        meta: dict[str, object] = {"source": "model"}
        pairs = sorted((i, i + l) for l in distances for i in range(n - l))
        joint = dict(zip(pairs, site_marginal(source, {}, pairs)))
        w = max(source.site_dims)  # a zero weight adds no information, so smaller joints are padded
        pad = lambda j: j if j.shape == (w, w) else np.pad(j, [(0, w - d) for d in j.shape])
        stacks = (np.array([pad(joint[i, i + l]) for i in range(n - l)]) for l in distances)
    else:
        w = int(arr.max()) + 1
        meta = {
            "source": "samples",
            "estimator": "plug-in",
            "positive_bias_order": w * w / arr.shape[0],
        }
        stacks = (_data_joints(arr, w, range(n - l), range(l, n)) for l in distances)
    points = tuple((l, float(np.mean(_mi_from_joint(s)))) for l, s in zip(distances, stacks))
    return DecayCurve(points, meta)


def fit_decay(curve: DecayCurve, kind: str) -> DecayFit:
    """Least-squares fit of one decay form in log-I space.

    The power form's additive constant is profiled over a 100-point grid
    on [0, min I) followed by one local refinement pass, keeping the fit
    deterministic and derivative-free. Points at or below the floor
    (1e-12) are unusable; fewer than 3 usable points raise FitError.
    """
    usable = [(l, v) for l, v in curve.points if v > _I_FLOOR]
    if len(usable) < 3:
        raise FitError(f"only {len(usable)} usable points (need 3)")
    ls = np.array([l for l, _ in usable], dtype=float)
    vals = np.array([v for _, v in usable], dtype=float)
    log_i = np.log(vals)

    if kind == "exponential":
        slope, intercept = np.polyfit(ls, log_i, 1)
        rate = -float(slope)
        params = (float(np.exp(intercept)), rate)
        pred = params[0] * np.exp(-rate * ls)
    elif kind == "power":
        log_l = np.log(ls)
        i_min = float(vals.min())
        best = None
        grid = np.linspace(0.0, i_min, 101)[:100]
        for _ in range(2):
            for c2 in grid:
                y = np.log(vals - c2)
                slope, intercept = np.polyfit(log_l, y, 1)
                res = float(np.sum((y - (slope * log_l + intercept)) ** 2))
                if best is None or res < best[0]:
                    best = (res, float(c2), float(slope), float(intercept))
            step = float(grid[1] - grid[0]) if len(grid) > 1 else 0.0
            lo = max(0.0, best[1] - step)
            hi = min(i_min * (1.0 - 1e-9), best[1] + step)
            grid = np.linspace(lo, hi, 100)
        _, c2, slope, intercept = best
        rate = -float(slope)
        params = (float(np.exp(intercept)), rate, c2)
        pred = params[0] * ls ** (-rate) + c2
    else:
        raise ValueError(f"unknown fit kind {kind!r}")

    residual = float(np.sum((log_i - np.log(pred)) ** 2))
    ss_tot = float(np.sum((log_i - log_i.mean()) ** 2))
    flat = ss_tot < 1e-20
    r_squared = 0.0 if flat else 1.0 - residual / ss_tot
    return DecayFit(kind, params, residual, r_squared, degenerate=flat or rate <= 0.0)


@dataclass(frozen=True)
class DecayReport:
    """Curves, both fits per model, and the better-form verdicts."""

    curve_a: DecayCurve
    curve_b: DecayCurve
    fits_a: Mapping[str, DecayFit]
    fits_b: Mapping[str, DecayFit]
    verdict_a: str
    verdict_b: str
    delta_r2_a: float
    delta_r2_b: float
    ensemble_size: int

    def __post_init__(self):
        object.__setattr__(self, "fits_a", dict(self.fits_a))
        object.__setattr__(self, "fits_b", dict(self.fits_b))


def _safe_fit(curve: DecayCurve, kind: str) -> DecayFit:
    try:
        return fit_decay(curve, kind)
    except FitError:
        return DecayFit(kind, (), math.inf, 0.0, degenerate=True)


def _verdict(fits: Mapping[str, DecayFit]) -> tuple[str, float]:
    exp_fit, pow_fit = fits["exponential"], fits["power"]
    if exp_fit.degenerate and pow_fit.degenerate:
        return "degenerate", 0.0
    delta = exp_fit.r_squared - pow_fit.r_squared
    return ("exponential" if delta > 0 else "power"), delta


def compare_decay(
    net_a: TensorNetwork,
    net_b: TensorNetwork,
    l_max: int,
    ensemble_size: int = 20,
    seed: int = 0,
) -> DecayReport:
    """Ensemble-averaged decay comparison of two network topologies.

    For each network, ``ensemble_size`` fresh Haar draws on its graph and
    edge dimensions are averaged pointwise into one curve (a single
    random draw is noisy); both decay forms are then fitted to each
    averaged curve. Member k of both ensembles uses the same seed-derived
    stream, so comparing a network against itself yields identical curves.
    """
    if net_a.site_dims != net_b.site_dims:
        raise ValueError("networks must share sequence length and symbol dimensions")
    if ensemble_size < 1:
        raise ValueError("ensemble size must be >= 1")
    curves = []
    for net in (net_a, net_b):
        acc = None
        for k in range(ensemble_size):
            runs = random_tensors(net.quiver, net.edge_dim, _rng(seed, k)).runs
            member = TensorNetwork.from_runs(net.quiver, net.edge_dim, runs)
            vals = decay_curve(member, l_max).values()
            acc = vals if acc is None else acc + vals
        acc = acc / ensemble_size
        curves.append(
            DecayCurve(
                tuple((l + 1, float(v)) for l, v in enumerate(acc)),
                {"source": "model-ensemble", "ensemble_size": ensemble_size},
            )
        )
    curve_a, curve_b = curves
    fits_a = {k: _safe_fit(curve_a, k) for k in ("power", "exponential")}
    fits_b = {k: _safe_fit(curve_b, k) for k in ("power", "exponential")}
    verdict_a, delta_a = _verdict(fits_a)
    verdict_b, delta_b = _verdict(fits_b)
    return DecayReport(
        curve_a, curve_b, fits_a, fits_b, verdict_a, verdict_b, delta_a, delta_b, ensemble_size
    )


def format_fit_line(label: str, fit: DecayFit) -> str:
    if fit.degenerate and not fit.params:
        return f"  {label:12s} degenerate (unfittable)"
    names = {"power": ("c1", "alpha", "c2"), "exponential": ("c", "m")}[fit.kind]
    pieces = ", ".join(f"{n}={p:.6g}" for n, p in zip(names, fit.params))
    tag = "  [degenerate]" if fit.degenerate else ""
    return f"  {label:12s} {pieces}; r2={fit.r_squared:.6f}{tag}"


def render_decay_report(report: DecayReport, name_a: str = "A", name_b: str = "B") -> str:
    """Plain-text table of the comparison report."""
    lines = [f"# decay comparison (ensemble size {report.ensemble_size})", ""]
    lines.append(f"{'l':>4s}  {'I_' + name_a:>14s}  {'I_' + name_b:>14s}")
    for (l, va), (_, vb) in zip(report.curve_a.points, report.curve_b.points):
        lines.append(f"{l:4d}  {va:14.6e}  {vb:14.6e}")
    for name, fits, verdict, delta in (
        (name_a, report.fits_a, report.verdict_a, report.delta_r2_a),
        (name_b, report.fits_b, report.verdict_b, report.delta_r2_b),
    ):
        lines.append("")
        lines.append(f"model {name}: better fit = {verdict} (delta_r2 = {delta:+.6f})")
        lines.append(format_fit_line("power", fits["power"]))
        lines.append(format_fit_line("exponential", fits["exponential"]))
    return "\n".join(lines) + "\n"


def curve_records(
    curve: DecayCurve, fits: Mapping[str, DecayFit], prefix: str = ""
) -> list[tuple[str, str]]:
    """Flat key-value pairs of one curve and its fits, keys led by ``prefix``.

    The points come first as ``I[l]``, then ``params``, ``r_squared`` and
    ``degenerate`` for each fit kind in sorted order; values are exact reprs.
    """
    recs = [(f"{prefix}I[{l}]", repr(v)) for l, v in curve.points]
    for kind, fit in sorted(fits.items()):
        recs.append((f"{prefix}{kind}.params", ",".join(repr(p) for p in fit.params)))
        recs.append((f"{prefix}{kind}.r_squared", repr(fit.r_squared)))
        recs.append((f"{prefix}{kind}.degenerate", str(fit.degenerate)))
    return recs


def decay_report_records(report: DecayReport, name_a: str = "A", name_b: str = "B"):
    """Flat key-value pairs of the report for the structured output file."""
    recs: list[tuple[str, str]] = [("ensemble_size", str(report.ensemble_size))]
    for name, curve, fits, verdict, delta in (
        (name_a, report.curve_a, report.fits_a, report.verdict_a, report.delta_r2_a),
        (name_b, report.curve_b, report.fits_b, report.verdict_b, report.delta_r2_b),
    ):
        recs += curve_records(curve, fits, f"{name}.")
        recs.append((f"{name}.verdict", verdict))
        recs.append((f"{name}.delta_r2", repr(delta)))
    return recs
