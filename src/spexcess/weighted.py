"""Perron-weighted distance matrices and the scalar excess statistics.

Weighting the distance partition by the Perron vector "regularizes" a
nonregular graph: J* = alpha alpha^T replaces the all-ones matrix, A*_i =
A_i o J* replaces the distance matrices, and the average weighted degree
(1/alpha_u) sum_{v ~ u} alpha_v is the constant lambda_0 at every vertex.

The statistics gathered here feed every inequality check:

* ball and sphere norms  ||rho_{N_j(u)}||^2 and ||rho_{Gamma_i(u)}||^2
  (sums of alpha_v^2 over the ball / sphere around u);
* harmonic means         H*_{<=j} = n / sum_u (alpha_u^2 / ||rho_{N_j(u)}||^2);
* weighted excesses      delta*_i = (1/n) sum_u alpha_u^2 ||rho_{Gamma_i(u)}||^2
  (delta*_D is also ||A*_D||^2 under the (1/n) tr inner product);
* the spectral excess    p_{>=D}(lambda_0) = n - q_{D-1}(lambda_0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import readonly as _readonly
from .graphs import DistanceData
from .poly import PolySequence
from .spectral import PerronWeights


@dataclass(frozen=True)
class WeightedMatrices:
    """J*, the weighted distance matrices A*_0..A*_D, and their partial sums."""

    jstar: np.ndarray
    astar: tuple[np.ndarray, ...]
    sstar: tuple[np.ndarray, ...]

    def sstar_at(self, j: int) -> np.ndarray:
        """S*_j, saturating at J* for j >= D."""
        return self.sstar[min(j, len(self.sstar) - 1)]


def weighted_matrices(dd: DistanceData, pw: PerronWeights) -> WeightedMatrices:
    jstar = np.outer(pw.alpha, pw.alpha)
    astar = tuple(_readonly(a_i * jstar) for a_i in dd.distance_matrices)
    sstar = []
    acc = np.zeros_like(jstar)
    for a in astar:
        acc = acc + a
        sstar.append(_readonly(acc))
    return WeightedMatrices(jstar=_readonly(jstar), astar=astar, sstar=tuple(sstar))


@dataclass(frozen=True)
class ExcessStats:
    """Scalar statistics entering the spectral-excess inequalities.

    ``ball_norms[u, j]`` and ``sphere_norms[u, i]`` are indexed by vertex and
    radius 0..D; ``harmonic_means[j]`` is H*_{<=j}; ``delta_star[i]`` is
    delta*_i; ``avg_weighted_degree[u]`` should equal lambda_0 everywhere.
    """

    ball_norms: np.ndarray
    sphere_norms: np.ndarray
    harmonic_means: np.ndarray
    delta_star: np.ndarray
    spectral_excess: float
    avg_weighted_degree: np.ndarray

    @property
    def n(self) -> int:
        return self.ball_norms.shape[0]

    @property
    def diameter(self) -> int:
        return self.ball_norms.shape[1] - 1

    def harmonic_at(self, j: int) -> float:
        """H*_{<=j}, saturating at n for j >= D (balls cover the graph)."""
        return float(self.harmonic_means[min(j, self.diameter)])

    def ball_norm_at(self, u: int, j: int) -> float:
        return float(self.ball_norms[u, min(j, self.diameter)])

    @property
    def n_minus_harmonic(self) -> float:
        """n - H*_{<=D-1}, the middle term of the inequality chain."""
        d = self.diameter
        return self.n - self.harmonic_at(d - 1) if d >= 1 else 0.0


def excess_stats(dd: DistanceData, pw: PerronWeights,
                 seq: PolySequence) -> ExcessStats:
    """All excess statistics for one graph (global sequence required)."""
    if seq.vertex is not None:
        raise ValueError("excess_stats needs the global polynomial sequence")
    n = dd.n
    big_d = dd.diameter
    alpha2 = pw.alpha ** 2
    sphere = np.stack(
        [dd.distance_matrices[i] @ alpha2 for i in range(big_d + 1)], axis=1
    )
    balls = np.cumsum(sphere, axis=1)
    harmonic = n / np.sum(alpha2[:, None] / balls, axis=0)
    delta = (alpha2[:, None] * sphere).sum(axis=0) / n
    q_prev = seq.q_lambda0[big_d - 1] if big_d >= 1 else 0.0
    adjacency = dd.distance_matrices[1] if big_d >= 1 else np.zeros((n, n))
    avg_wdeg = (adjacency @ pw.alpha) / pw.alpha
    return ExcessStats(
        ball_norms=_readonly(balls),
        sphere_norms=_readonly(sphere),
        harmonic_means=_readonly(harmonic),
        delta_star=_readonly(delta),
        spectral_excess=float(n - q_prev),
        avg_weighted_degree=_readonly(avg_wdeg),
    )
