"""Perron-weighted distance matrices and the scalar excess statistics.

Weighting the distance partition by the Perron vector "regularizes" a
nonregular graph: J* = alpha alpha^T replaces the all-ones matrix, A*_i =
A_i o J* replaces the distance matrices, and the average weighted degree
(1/alpha_u) sum_{v ~ u} alpha_v is the constant lambda_0 at every vertex.
Only J* is built (``weighted_matrices``); A*_i and S*_j are its masks.

The statistics gathered here feed every inequality check:

* ball and sphere norms  ||rho_{N_j(u)}||^2 and ||rho_{Gamma_i(u)}||^2
  (sums of alpha_v^2 over the ball / sphere around u);
* harmonic means         H*_{<=j} = n / sum_u (alpha_u^2 / ||rho_{N_j(u)}||^2);
* weighted excesses      delta*_i = (1/n) sum_u alpha_u^2 ||rho_{Gamma_i(u)}||^2
  (delta*_D is also ||A*_D||^2 under the (1/n) tr inner product).

They read no polynomial: ``theorems`` compares them with the spectral
excess p_{>=D}(lambda_0), ``GraphAnalysis.spectral_excess``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import CACHE_BLOCK_BYTES, readonly as _readonly
from .graphs import DistanceData


def weighted_matrices(alpha: np.ndarray) -> np.ndarray:
    """J* = alpha alpha^T, read-only.  Callers mask it with the distances:
    A*_i is ``np.where(dist == i, J*, 0)`` and S*_j = A*_0 + ... + A*_j is
    ``np.where(dist <= j, J*, 0)``, bit for bit, as each entry of that sum
    has one nonzero term."""
    return _readonly(np.outer(alpha, alpha))


@dataclass(frozen=True)
class ExcessStats:
    """Scalar statistics entering the spectral-excess inequalities.

    ``ball_norms[u, j]`` and ``sphere_norms[u, i]`` are indexed by vertex and
    radius 0..D; ``harmonic_means[j]`` is H*_{<=j}; ``delta_star[i]`` is
    delta*_i.  Past radius ecc(u) (or D) they are not read: every ball is V
    there, and ``theorems`` decides by its saturation rule.  The average
    weighted degree is not kept: it is lambda_0 at every vertex (module
    note), a check on alpha that the tests make themselves.
    """

    ball_norms: np.ndarray
    sphere_norms: np.ndarray
    harmonic_means: np.ndarray
    delta_star: np.ndarray

    @property
    def n_minus_harmonic(self) -> float:
        """n - H*_{<=D-1}, the middle term of the inequality chain."""
        h = self.harmonic_means
        return len(self.ball_norms) - float(h[-2]) if len(h) > 1 else 0.0


def excess_stats(dd: DistanceData, alpha: np.ndarray) -> ExcessStats:
    """All excess statistics for one graph, weighted by the Perron vector ``alpha``."""
    n = dd.n
    alpha2 = alpha ** 2
    sphere = np.empty((n, dd.diameter + 1))  # C order, so the sums below keep their order
    step = max(1, CACHE_BLOCK_BYTES // (9 * n * n))  # radii per stack: masks and float copies
    for start in range(0, dd.diameter + 1, step):
        radii = np.arange(start, min(start + step, dd.diameter + 1))[:, None, None]
        sphere[:, start:start + step] = ((dd.dist == radii) @ alpha2).T
    balls = sphere.cumsum(axis=1)
    harmonic = n / np.sum(alpha2[:, None] / balls, axis=0)
    delta = (alpha2[:, None] * sphere).sum(axis=0) / n
    return ExcessStats(
        ball_norms=_readonly(balls),
        sphere_norms=_readonly(sphere),
        harmonic_means=_readonly(harmonic),
        delta_star=_readonly(delta),
    )
