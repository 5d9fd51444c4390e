"""Noncommutative position algebra and the scale estimates that follow from it.

Positions of a massive body in different directions are taken to obey
[x^mu, x^nu] = i C^{mu nu}, with the coefficient matrix C set by the body's
mean position and 4-velocity contracted against the Levi-Civita symbol and
scaled by the Planck length.  Everything here works with the real coefficient
matrices only; no operator representation is built.

Conventions: metric signature (+,-,-,-), index 0 is time, and the Levi-Civita
symbol is fixed by eps(1,2,3,0) = +1 so that the rest-frame reduction to the
three-dimensional eps(1,2,3) = +1 algebra carries no sign flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, check_positive_finite

SPEED_OF_LIGHT = 2.99792458e8      # m/s (exact)
PLANCK_LENGTH = 1.616e-35          # m
PLANCK_MASS = 2.176e-8             # kg
TEV = 1.602176634e-7               # J per TeV (exact elementary charge)

SECONDS_PER_YEAR = 3.1557e7        # Julian year, for readable speed reports


@dataclass(frozen=True)
class PhysicalConstants:
    """Mutually consistent constants: t_P and hbar are derived, not quoted.

    With hbar = m_P c^2 t_P the Planck-mass crossover of
    heisenberg_variance_bound is exact rather than approximate.
    """

    c: float        # speed of light, m/s
    l_P: float      # Planck length, m
    t_P: float      # Planck time, s
    m_P: float      # Planck mass, kg
    hbar: float     # reduced Planck constant, J s

    @classmethod
    def create(cls, c: float = SPEED_OF_LIGHT, l_P: float = PLANCK_LENGTH,
               m_P: float = PLANCK_MASS) -> "PhysicalConstants":
        t_P = l_P / c
        return cls(c=c, l_P=l_P, t_P=t_P, m_P=m_P, hbar=m_P * c**2 * t_P)


CONSTANTS = PhysicalConstants.create()

MINKOWSKI_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def levi_civita4(mu: int, nu: int, kappa: int, lam: int) -> int:
    """Totally antisymmetric symbol on indices 0..3 with eps(1,2,3,0) = +1."""
    idx = (mu, nu, kappa, lam)
    for i in idx:
        if not isinstance(i, (int, np.integer)) or not 0 <= i <= 3:
            raise ValueError(f"indices must be integers in 0..3, got {idx}")
    if len(set(idx)) < 4:
        return 0
    inversions = sum(
        1 for a in range(4) for b in range(a + 1, 4) if idx[a] > idx[b]
    )
    # inversion parity gives the eps(0,1,2,3) = +1 convention; flip the sign
    # so that eps(1,2,3,0) = +1 instead.
    return 1 if inversions % 2 else -1


def _levi_civita4_array() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        eps[p] = levi_civita4(*p)
    return eps


_EPS4 = _levi_civita4_array()

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in permutations(range(3)):
    _EPS3[_i, _j, _k] = levi_civita4(_i + 1, _j + 1, _k + 1, 0)


def minkowski_norm_sq(v) -> float:
    """v . v under signature (+,-,-,-)."""
    v = np.asarray(v, dtype=float)
    return float(v @ MINKOWSKI_METRIC @ v)


def validate_four_velocity(u, tol: float = 1e-9) -> np.ndarray:
    """Return u as an array, or raise if it is not unit-normalized."""
    u = np.asarray(u, dtype=float)
    if u.shape != (4,):
        raise ValueError(f"4-velocity must have shape (4,), got {u.shape}")
    norm = minkowski_norm_sq(u)
    if not abs(norm - 1.0) <= tol:  # NaN fails
        raise ValueError(f"not a valid 4-velocity: U.U = {norm!r}, expected 1")
    return u


def validate_lorentz_transform(lam, tol: float = 1e-10) -> np.ndarray:
    """Return lam as an array, or raise if it does not preserve the metric.

    Improper transforms (det = -1) are rejected as well: the commutator is
    built from the Levi-Civita pseudotensor and only transforms tensorially
    under the proper group.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (4, 4):
        raise ValueError(f"Lorentz transform must be 4x4, got {lam.shape}")
    residual = lam.T @ MINKOWSKI_METRIC @ lam - MINKOWSKI_METRIC
    if np.max(np.abs(residual)) > tol:
        raise ValueError("matrix does not preserve the Minkowski metric")
    if np.linalg.det(lam) < 0:
        raise ValueError("improper transform (det < 0) not supported")
    return lam


def commutator_tensor(xbar, ubar, consts: PhysicalConstants = CONSTANTS) -> np.ndarray:
    """Coefficient matrix C of [x^mu, x^nu] = i C^{mu nu}, in m^2.

    C is the Levi-Civita contraction of the mean position with the 4-velocity,
    scaled by the Planck length, with both free indices raised by the metric
    so that C transforms as L C L^T under a proper Lorentz transform L.
    """
    xbar = np.asarray(xbar, dtype=float)
    if xbar.shape != (4,):
        raise ValueError(f"position must have shape (4,), got {xbar.shape}")
    if not np.all(np.isfinite(xbar)):
        raise ConfigurationError(f"xbar must be finite, got {xbar}")
    ubar = validate_four_velocity(ubar)
    lower = np.einsum("mnkl,k,l->mn", _EPS4, xbar, ubar) * consts.l_P
    return MINKOWSKI_METRIC @ lower @ MINKOWSKI_METRIC


def rest_frame_commutator(xbar3, consts: PhysicalConstants = CONSTANTS) -> np.ndarray:
    """3x3 coefficient matrix C_ij = sum_k x^k eps_ijk l_P for a body at rest."""
    xbar3 = np.asarray(xbar3, dtype=float)
    if xbar3.shape != (3,):
        raise ValueError(f"3-position must have shape (3,), got {xbar3.shape}")
    return np.einsum("ijk,k->ij", _EPS3, xbar3) * consts.l_P


def covariance_residual(xbar, ubar, boost, consts: PhysicalConstants = CONSTANTS) -> float:
    """Max-norm defect of C(Lx, Lu) - L C(x, u) L^T for a given transform L.

    Zero (to rounding) for every proper Lorentz transform; used as a numeric
    check that the algebra carries no preferred frame.
    """
    lam = validate_lorentz_transform(boost)
    xbar = np.asarray(xbar, dtype=float)
    ubar = validate_four_velocity(ubar)
    c0 = commutator_tensor(xbar, ubar, consts)
    c1 = commutator_tensor(lam @ xbar, lam @ ubar, consts)
    return float(np.max(np.abs(c1 - lam @ c0 @ lam.T)))


def boost_matrix(beta) -> np.ndarray:
    """Pure boost with velocity beta (3-vector, units of c)."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape == (1,):
        beta = np.array([beta[0], 0.0, 0.0])
    if beta.shape != (3,):
        raise ValueError("beta must be a scalar or 3-vector")
    b2 = float(beta @ beta)
    if not b2 < 1.0:  # NaN fails
        raise ConfigurationError(
            f"beta must have |beta| < 1, got |beta|^2 = {b2}")
    lam = np.eye(4)
    if b2 == 0.0:
        return lam
    gamma = 1.0 / np.sqrt(1.0 - b2)
    lam[0, 0] = gamma
    lam[0, 1:] = -gamma * beta
    lam[1:, 0] = -gamma * beta
    lam[1:, 1:] = np.eye(3) + (gamma - 1.0) * np.outer(beta, beta) / b2
    return lam


def rotation_matrix(axis: int, angle: float) -> np.ndarray:
    """Spatial rotation about axis 1, 2 or 3 embedded in a 4x4 transform."""
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    i, j = [k for k in (1, 2, 3) if k != axis]
    lam = np.eye(4)
    c, s = np.cos(angle), np.sin(angle)
    lam[i, i] = c
    lam[i, j] = -s
    lam[j, i] = s
    lam[j, j] = c
    return lam


def random_boost(rng: np.random.Generator, beta_max: float = 0.99,
                 with_rotation: bool = True) -> np.ndarray:
    """Random proper Lorentz transform with |beta| < beta_max."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    lam = boost_matrix(direction * rng.uniform(0.0, beta_max))
    if with_rotation:
        lam = lam @ rotation_matrix(int(rng.integers(1, 4)), rng.uniform(0, 2 * np.pi))
    return lam


def uncertainty_bound(xbar3, i: int, j: int,
                      consts: PhysicalConstants = CONSTANTS) -> float:
    """Lower bound on dx_i dx_j (m^2) for spatial directions i != j in 1..3."""
    xbar3 = np.asarray(xbar3, dtype=float)
    if xbar3.shape != (3,):
        raise ValueError(f"3-position must have shape (3,), got {xbar3.shape}")
    for idx in (i, j):
        if idx not in (1, 2, 3):
            raise ValueError(f"spatial indices must be in 1..3, got {idx}")
    if i == j:
        raise ValueError("bound is undefined for identical directions")
    contraction = sum(xbar3[k - 1] * levi_civita4(i, j, k, 0) for k in (1, 2, 3))
    return abs(contraction) * consts.l_P / 2.0


def angular_uncertainty_bound(separation: float,
                              consts: PhysicalConstants = CONSTANTS) -> float:
    """Lower bound on the product of the two transverse angular spreads."""
    if separation <= 0:
        raise ValueError(f"separation must be positive, got {separation}")
    return consts.l_P / (2.0 * separation)


def heisenberg_variance_bound(mass: float, tau: float,
                              consts: PhysicalConstants = CONSTANTS) -> float:
    """Standard quantum bound 2 hbar tau / m on the variance of a position
    difference measured at two times separated by tau (m^2)."""
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return 2.0 * consts.hbar * tau / mass


class DofCounts(NamedTuple):
    n_radial: float
    n_transverse: float
    n_total: float


def dof_counts(length: float, consts: PhysicalConstants = CONSTANTS) -> DofCounts:
    """Independent position states over a region of size `length`.

    One factor of length/l_P radially, one more across both transverse
    directions combined; the product scales as the boundary area in Planck
    units rather than the volume.
    """
    check_positive_finite("length", length)
    n = length / consts.l_P
    return DofCounts(n_radial=n, n_transverse=n, n_total=n * n)


@dataclass(frozen=True)
class ScaleEstimates:
    n: float                # length in Planck units
    v_equivalent: float     # m/s, c / sqrt(n)
    coherence_time: float   # s, light round-trip 2 L / c
    excursion_rms: float    # m, sqrt(c * coherence_time * l_P)
    n_tev: float            # Planck energy in TeV


def scale_estimates(length: float,
                    consts: PhysicalConstants = CONSTANTS) -> ScaleEstimates:
    """Order-of-magnitude laboratory numbers implied by the algebra at `length`."""
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    n = length / consts.l_P
    coherence_time = 2.0 * length / consts.c
    return ScaleEstimates(
        n=n,
        v_equivalent=consts.c / np.sqrt(n),
        coherence_time=coherence_time,
        excursion_rms=float(np.sqrt(consts.c * coherence_time * consts.l_P)),
        n_tev=consts.m_P * consts.c**2 / TEV,
    )
