"""Exact values the benchmark checks carnotperim's estimates against.

Numpy only, so the oracles share no code with the estimators they check.
"""

from __future__ import annotations

import math

import numpy as np

# Gauss-Legendre order; the substituted integrand below is smooth, so 64
# nodes are exact to rounding.
_GL_ORDER = 64


def koranyi_psi(t: float) -> float:
    """Central-direction slice area of the Koranyi unit ball on H^1.

    psi(t) = 1/2 * integral of sqrt(1 - (t^2 + s^2)^2) ds over t^2 + s^2 <= 1.
    The substitution s = a sin(theta), a = sqrt(1 - t^2), removes the square
    root singularity at the ends:
    psi(t) = 1/2 * integral over [-pi/2, pi/2] of
             a^2 cos^2(theta) sqrt(1 + t^2 + a^2 sin^2(theta)) dtheta.
    """
    t = abs(float(t))
    if t >= 1.0:
        return 0.0
    a2 = 1.0 - t * t
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    theta = 0.5 * math.pi * x
    f = a2 * np.cos(theta) ** 2 * np.sqrt(1.0 + t * t + a2 * np.sin(theta) ** 2)
    return 0.25 * math.pi * float(np.dot(w, f))


def _lens_area(d: float, r1: float, r2: float) -> float:
    """Area of the intersection of two discs of radii r1, r2 at distance d."""
    k = math.sqrt((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
    return (
        r1 * r1 * math.acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))
        + r2 * r2 * math.acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))
        - 0.5 * k
    )


def two_ball_beta(r1=1.0, z1=-0.55, r2=0.5, z2=0.45) -> float:
    """beta of the default two-ball body: its central slice area.

    Each ball's slice at offset t is a disc of radius sqrt(r^2 - t^2) about a
    fixed centre, so every disc shrinks with |t| and the union's area peaks
    at t = 0, where it is pi r1^2 + pi r2^2 minus the lens of the two discs.
    """
    return math.pi * (r1 * r1 + r2 * r2) - _lens_area(abs(z2 - z1), r1, r2)


def starball_beta(rho=0.5) -> float:
    """beta of the Euclidean ball of radius rho: its central disc."""
    return math.pi * rho * rho


KORANYI_PSI0 = koranyi_psi(0.0)
TWO_BALL_BETA = two_ball_beta()
STARBALL_BETA = starball_beta()
