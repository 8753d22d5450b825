"""Isometric tensor-network models for discrete sequences.

Networks are directed acyclic multigraphs whose edges carry vector spaces
and whose vertices carry isometric tensors; the induced normalized state
defines sequence probabilities by the Born rule. The package covers
network construction and contraction, maximum-likelihood training on the
isometry manifold, exact autoregressive sampling, moduli-space dimension
accounting, and mutual-information decay diagnostics.
"""

from .diagnostics import (
    DecayCurve,
    DecayFit,
    DecayReport,
    compare_decay,
    decay_curve,
    fit_decay,
    pairwise_mutual_information_data,
    pairwise_mutual_information_model,
)
from .dense import evaluate, intermediate_state, layer_map, operator_descend, operator_flow, state
from .graph import Layering, Quiver, build_binary_tree, build_chain, build_mera, topological_layers
from .manifold import (
    gauge_orbit_rank,
    gauge_transform,
    moduli_dimension,
    real_stiefel_dim,
    retract,
    tangent_project,
)
from .model import (
    SampleMultiset,
    SymbolSet,
    born_probability,
    empirical_distribution,
    kl_divergence,
    log_likelihood,
)
from .model_io import ModelBundle, load_model, save_model
from .network import (
    TensorNetwork,
    amplitude,
    amplitudes,
    random_network,
    site_operator_expectation,
)
from .sampling import conditional_distribution, sample
from .tensor_core import (
    IndexSplit,
    astensor,
    is_isometry,
    project_to_isometry,
    random_isometry,
)
from .training import LossTrace, TrainConfig, gradient, sgd_step, train

__version__ = "0.1.0"
