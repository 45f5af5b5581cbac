"""Simulation and verification toolkit for two-party correlation models.

Covers the three regimes of bipartite correlations — local, quantum and
superquantum — through concrete, testable constructions: probability-box
checkers and the CHSH classifier, the Popescu-Rohrlich box with its one-bit
hidden-variable realization, a PR-box Monte Carlo that reproduces singlet
correlations, a crypto-nonlocal hidden-variable model whose conditional
correlations sweep all three regimes, and the operator algebra of maximally
entangled N-level pairs underpinning the vanishing of conditional local
averages.
"""

from . import correlations, crypto_bell, entangled_ops, pr_box, singlet_sim
from .correlations import *
from .crypto_bell import *
from .entangled_ops import *
from .pr_box import *
from .singlet_sim import *

__all__ = [
    *correlations.__all__,
    *crypto_bell.__all__,
    *entangled_ops.__all__,
    *pr_box.__all__,
    *singlet_sim.__all__,
]

__version__ = "0.1.0"
