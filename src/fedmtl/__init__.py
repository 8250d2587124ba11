"""Federated multi-task learning: a straggler- and dropout-tolerant
primal-dual solver for per-task linear models coupled through a learned or
fixed task-relationship matrix, plus baselines, a systems-cost simulator, and
convergence-rate calculators."""

from . import data, solver
from .losses import LossKind
from .regularizers import MeanRegularized, ProbabilisticPrior
from .simulation import HeterogeneityPolicy, NodeProfile, SystemsPolicy
from .solver import ConstantPolicy, SolverConfig

__version__ = "0.1.0"
