"""Probabilistic admission control and scheduling for appliance loads.

The package decides how many stochastic two-state appliances may draw power
at once so that the probability of the aggregate reaching a consumption
ceiling stays within a quality-of-service limit.  It provides exact tail
computation by pmf convolution, five analytic upper bounds plus a normal
approximation, one admission check with count search and acceptance
regions over it, demand scheduling for blocked appliances, and a seeded
Monte Carlo simulator with a CLI.

Import from the submodules: ``loadcap.tailprob``, ``loadcap.admission``,
``loadcap.models``, ``loadcap.simulation``, ``loadcap.scheduling``,
``loadcap.fileio`` and ``loadcap.cli``.
"""

# The benchmark's set-up probe (perfbench/probe.py) imports these three from
# the package root; they are the only names re-exported here.
from .models import ApplianceClass, Bernoulli
from .tailprob import ClassComposition

__version__ = "0.1.0"

__all__ = ["ApplianceClass", "Bernoulli", "ClassComposition"]
