import numpy as np
import pytest
from hypothesis import settings

from isotn.graph import Quiver
from isotn.network import TensorNetwork

# property tests draw the same examples on every run and never time out, so
# the suite's outcome repeats byte for byte
settings.register_profile("isotn", derandomize=True, deadline=None, database=None)
settings.load_profile("isotn")


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@pytest.fixture
def rng() -> np.random.Generator:
    return philox(1234)


def single_vertex_net(vec) -> TensorNetwork:
    """One vertex mapping the trivial In space to a w-dim Out space."""
    vec = np.asarray(vec, dtype=np.complex128)
    q = Quiver((0,), (), (0,), (1,), {1: 0}, {0: 0})
    return TensorNetwork(q, {0: 1, 1: vec.size}, {0: vec.reshape(1, -1)})


def two_site_net(psi) -> TensorNetwork:
    """One vertex mapping the trivial In space to W ⊗ W."""
    psi = np.asarray(psi, dtype=np.complex128)
    w = int(round(psi.size ** 0.5))
    q = Quiver((0,), (), (0,), (1, 2), {1: 0, 2: 0}, {0: 0})
    return TensorNetwork(q, {0: 1, 1: w, 2: w}, {0: psi.reshape(1, w, w)})


def deterministic_chain_net(sequence, w: int) -> TensorNetwork:
    """Chain with dim-1 bonds whose state is exactly |sequence⟩."""
    from isotn.graph import build_chain

    n = len(sequence)
    q = build_chain(n)
    dims = {0: 1}
    for e in q.internal_edges:
        dims[e] = 1
    for e in q.out_edges:
        dims[e] = w
    tensors = {}
    for k, v in enumerate(q.vertices):
        basis = np.zeros(w, dtype=np.complex128)
        basis[sequence[k]] = 1.0
        shape = (1, 1, w) if k < n - 1 else (1, w)
        tensors[v] = basis.reshape(shape)
    return TensorNetwork(q, dims, tensors)


def enumerate_sequences(dims):
    seqs = [()]
    for d in dims:
        seqs = [s + (x,) for s in seqs for x in range(d)]
    return seqs
