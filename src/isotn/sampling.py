"""Exact autoregressive sampling from the Born distribution.

Each symbol is drawn from its conditional given the already-fixed prefix:
the ratio of projector expectations ⟨Ψ o_{s1..sk} Ψ⟩ / ⟨Ψ o_{s1..s_{k-1}} Ψ⟩,
with identities on the unfixed positions. Conditionals are exact, so the
chain of draws reproduces the joint Born probability exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConditioningError
from .network import SequenceState, TensorNetwork, _projector, site_marginal

# conditionals smaller than this total mass are treated as exactly zero
_MASS_FLOOR = 1e-300


def conditional_distribution(net: TensorNetwork, prefix: Sequence[int]) -> np.ndarray:
    """Distribution of the next symbol given the fixed prefix.

    ``prefix`` fixes positions 0..k-2; the returned vector is the exact
    conditional for position k-1 = len(prefix), nonnegative and summing
    to 1. Raises ConditioningError when the prefix itself has zero
    probability. One doubled-network pass on trees; the full state is
    marginalized on other DAGs.
    """
    dims = net.site_dims
    prefix = tuple(int(x) for x in prefix)
    if len(prefix) >= len(dims):
        raise ValueError(f"prefix length {len(prefix)} must be < {len(dims)}")
    for p, x in enumerate(prefix):
        if not 0 <= x < dims[p]:
            raise ValueError(f"prefix symbol {x} at position {p} outside [0,{dims[p]})")
    fixed = {p: _projector(dims[p], x) for p, x in enumerate(prefix)}
    weights = site_marginal(net, fixed, len(prefix))
    if np.any(weights < -1e-12):
        raise ValueError(f"negative conditional weight {weights.min():.3e}; numerical bug")
    weights = np.clip(weights, 0.0, None)
    total = float(weights.sum())
    if total <= _MASS_FLOOR:
        raise ConditioningError(prefix)
    return weights / total


# bulk sampling memoizes conditionals per visited prefix, up to this many
_CACHE_LIMIT = 1 << 16


def sample(
    net: TensorNetwork, count: int, rng: np.random.Generator
) -> list[SequenceState]:
    """Draw ``count`` i.i.d. sequences by the recursive conditional scheme.

    Inverse-CDF draws use strict ``u < cumulative`` comparison over the
    symbol index order, so identical generator streams give identical
    samples on any platform. Conditionals for already-visited prefixes are
    reused; the draws and their generator consumption are unaffected.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = net.n_sites
    cache: dict[tuple[int, ...], np.ndarray] = {}
    draws: list[SequenceState] = []
    for _ in range(count):
        prefix: list[int] = []
        for _pos in range(n):
            key = tuple(prefix)
            cum = cache.get(key)
            if cum is None:
                cum = np.cumsum(conditional_distribution(net, prefix))
                if len(cache) < _CACHE_LIMIT:
                    cache[key] = cum
            u = rng.random()
            k = int(np.searchsorted(cum, u, side="right"))
            if k >= cum.size:  # u >= cum[-1]: the normalized cumsum can end at 1 - 2**-53
                k = int(np.max(np.nonzero(np.diff(np.concatenate(([0.0], cum))) > 0.0)))
            prefix.append(k)
        draws.append(tuple(prefix))
    return draws
