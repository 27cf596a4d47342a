"""Personalized federated learning via Q-aggregation of kernel mean embeddings.

Each agent summarizes its local distribution as a kernel mean embedding
(random Fourier features or an exact second-order summary), a penalized
quadratic program on the simplex turns the embedding distances into
collaboration weights, and a weighted empirical risk minimizer produces the
personalized model.  :mod:`fedkme.fedsim` ties the steps into a simulated
protocol with a communication ledger; :mod:`fedkme.cli` reproduces the
synthetic concept-shift and covariate-shift experiments.
"""

__version__ = "0.1.0"
