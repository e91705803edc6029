"""Chinchilla-form parametric loss and the quality-factor derivation checks.

The loss surface is L(N, D) = E + A/N^alpha + B/D^beta for N parameters
and D training tokens. Under a compute budget C = const * N * D the
optimal allocation follows N_opt ~ C^a, D_opt ~ C^b with a = beta/(alpha+beta)
and b = alpha/(alpha+beta), a premise taken from Hoffmann et al. 2022
(arXiv:2203.15556) and not re-derived here. Substituting
alpha = (1-a)*eta, beta = a*eta (eta = alpha + beta) exposes the model
scaling exponent a directly in the loss, and everything this module
verifies follows from that form:

* dL/dN = A*(a-1)*eta*N^((a-1)*eta - 1) < 0,
* d2L/(da dN) = A*eta*N^((a-1)*eta - 1) * (1 + (a-1)*eta*ln N), negative
  exactly where the bracket is negative (large N),
* hence the secant slope between two model sizes steepens as a grows, and
  the perplexity-ratio quality factor d = 2^(L_small - L_large) is
  strictly increasing in a on that region.

All losses are bits per token so that perplexity is 2^L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ConditionRegionViolatedError,
    InvalidExponentError,
    InvalidSecantError,
    NumericRangeError,
)

# verification_report's grids: the monotonicity check's A_POINTS values of a on [A_LO, A_HI],
# and CHECK_GRID_SIZE values each of a and N for the derivative and secant checks
A_LO, A_HI = 0.1, 0.9
A_POINTS = 100
CHECK_GRID_SIZE = 10


@dataclass(frozen=True)
class ScalingLawParams:
    """Loss-surface parameters (E, A, B, alpha, beta)."""

    E: float
    A: float
    B: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.E < 0:
            raise ValueError("E must be >= 0")
        # A or B of exactly 0 is allowed: the term vanishes (degenerate surface)
        if self.A < 0 or self.B < 0:
            raise ValueError("A and B must be >= 0")
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidExponentError("alpha and beta must be > 0")


def _power_term(coeff: float, base: float, exponent: float) -> float:
    # coeff / base^exponent in log space to dodge overflow at extreme exponents
    try:
        return math.exp(math.log(coeff) - exponent * math.log(base))
    except OverflowError as exc:
        raise NumericRangeError(f"{coeff}/{base}^{exponent} overflows") from exc


def expected_loss(params: ScalingLawParams, N: float, D: float) -> float:
    """E + A/N^alpha + B/D^beta."""
    if N <= 0 or D <= 0:
        raise ValueError("N and D must be > 0")
    out = params.E
    if params.A > 0:
        out += _power_term(params.A, N, params.alpha)
    if params.B > 0:
        out += _power_term(params.B, D, params.beta)
    return out


def reparam_loss(E: float, A: float, B: float, a: float, eta: float, N: float, D: float) -> float:
    """The loss surface written in terms of (a, eta): alpha = (1-a)*eta, beta = a*eta."""
    if not (0.0 < a < 1.0):
        raise InvalidExponentError("a must lie in (0, 1)")
    if eta <= 0:
        raise InvalidExponentError("eta must be > 0")
    return expected_loss(ScalingLawParams(E=E, A=A, B=B, alpha=(1 - a) * eta, beta=a * eta), N, D)


def dloss_dN(A: float, a: float, eta: float, N: float) -> float:
    """Analytic dL/dN = A*(a-1)*eta*N^((a-1)*eta - 1); negative for valid params."""
    if A == 0:
        return 0.0
    return A * (a - 1.0) * eta * math.exp(((a - 1.0) * eta - 1.0) * math.log(N))


def mixed_partial_bracket(a: float, eta: float, N: float) -> float:
    """The sign-determining factor 1 + (a-1)*eta*ln(N) of the mixed partial."""
    return 1.0 + (a - 1.0) * eta * math.log(N)


def d2loss_da_dN(A: float, a: float, eta: float, N: float) -> float:
    """Analytic d2L/(da dN) = A*eta*N^((a-1)*eta - 1) * (1 + (a-1)*eta*ln N)."""
    if A == 0:
        return 0.0
    prefactor = A * eta * math.exp(((a - 1.0) * eta - 1.0) * math.log(N))
    return prefactor * mixed_partial_bracket(a, eta, N)


@dataclass(frozen=True)
class SecantAnalysis:
    """Secant of the loss-vs-size curve between two model sizes at fixed D."""

    N_p: float
    N_q: float
    D: float
    L_p: float
    L_q: float
    slope: float
    d_model: float


def _check_sizes(N_p: float, N_q: float) -> None:
    if not (0 < N_p < N_q):
        raise InvalidSecantError(f"need 0 < N_p < N_q, got ({N_p}, {N_q})")


def secant_slope(
    E: float, A: float, B: float, a: float, eta: float, N_p: float, N_q: float, D: float
) -> SecantAnalysis:
    """Secant slope (L_q - L_p) / (N_q - N_p) and the implied quality factor.

    The slope is always negative and d_model = 2^(L_p - L_q) always
    exceeds 1, since loss strictly decreases with model size.
    """
    _check_sizes(N_p, N_q)
    L_p = reparam_loss(E, A, B, a, eta, N_p, D)
    L_q = reparam_loss(E, A, B, a, eta, N_q, D)
    slope = (L_q - L_p) / (N_q - N_p)
    return SecantAnalysis(N_p=N_p, N_q=N_q, D=D, L_p=L_p, L_q=L_q, slope=slope, d_model=2.0 ** (L_p - L_q))


@dataclass
class MonotonicityReport:
    """Grid evaluation of d_model(a) plus a strict-monotonicity verdict."""

    a_grid: list[float]
    d_values: list[float]
    passed: bool

    def to_json(self) -> dict:
        return {
            "a_grid": self.a_grid,
            "d_model": self.d_values,
            "strictly_increasing": self.passed,
        }


def verify_monotonic_d_in_a(
    E: float,
    A: float,
    B: float,
    eta: float,
    N_p: float,
    N_q: float,
    D: float,
    a_grid: Sequence[float],
) -> MonotonicityReport:
    """Check that the pair quality factor rises strictly with a over a grid.

    Precondition: the mixed-partial bracket must be negative for every grid
    a across the whole size interval [N_p, N_q]; the bracket is monotone in
    ln N, so both endpoints are checked and the offending (a, N) reported.
    """
    _check_sizes(N_p, N_q)
    grid = [float(a) for a in a_grid]
    if any(not (0.0 < a < 1.0) for a in grid):
        raise InvalidExponentError("a_grid values must lie in (0, 1)")
    if sorted(grid) != grid:
        raise ValueError("a_grid must be sorted ascending")
    for a in grid:
        for N in (N_p, N_q):
            if mixed_partial_bracket(a, eta, N) >= 0:
                raise ConditionRegionViolatedError(
                    f"bracket 1 + (a-1)*eta*ln(N) >= 0 at a={a}, N={N}; increase N_p"
                )
    d_values = [secant_slope(E, A, B, a, eta, N_p, N_q, D).d_model for a in grid]
    passed = all(d_values[i] < d_values[i + 1] for i in range(len(d_values) - 1))
    return MonotonicityReport(a_grid=grid, d_values=d_values, passed=passed)


def verification_report(
    E: float = 1.69,
    A: float = 406.4,
    B: float = 410.7,
    eta: float = 0.62,
    N_p: float = 1e8,
    N_q: float = 1e9,
    D: float = 1e10,
) -> dict:
    """Run every derivation check on one parameter set and report pass/fail.

    Checks: negative dL/dN on an (a, N) grid; mixed-partial sign matching
    the bracket sign exactly; finite-difference agreement for both
    derivatives; secant-to-tangent convergence; strict monotonicity of
    d_model in a.
    """
    import numpy as np  # for the grids alone: loaded by verify-scaling, not by every command

    _check_sizes(N_p, N_q)  # before log10 takes them
    checks: dict[str, bool] = {}
    details: dict[str, object] = {}

    a_grid = list(np.linspace(A_LO, A_HI, A_POINTS))
    n_grid = list(np.logspace(math.log10(N_p), math.log10(N_q), CHECK_GRID_SIZE))
    a_small_grid = list(np.linspace(A_LO, A_HI, CHECK_GRID_SIZE))

    checks["dloss_dN_negative"] = all(
        dloss_dN(A, a, eta, N) < 0 for a in a_small_grid for N in n_grid
    )

    sign_ok = True
    for a in a_small_grid:
        for N in n_grid:
            bracket = mixed_partial_bracket(a, eta, N)
            value = d2loss_da_dN(A, a, eta, N)
            if bracket < 0 and not value < 0:
                sign_ok = False
            if bracket > 0 and not value > 0:
                sign_ok = False
    checks["mixed_partial_sign_matches_bracket"] = sign_ok

    # relative errors, or absolute ones where the analytic value is exactly 0 (A = 0)
    fd_ok = True
    worst_fd = 0.0
    for a in a_small_grid:
        for N in n_grid:
            h = N * 1e-6
            fd = (
                reparam_loss(E, A, B, a, eta, N + h, D) - reparam_loss(E, A, B, a, eta, N - h, D)
            ) / (2 * h)
            analytic = dloss_dN(A, a, eta, N)
            rel = abs(fd - analytic) / (abs(analytic) or 1.0)
            worst_fd = max(worst_fd, rel)
            ha = 1e-6
            fd2 = (dloss_dN(A, a + ha, eta, N) - dloss_dN(A, a - ha, eta, N)) / (2 * ha)
            analytic2 = d2loss_da_dN(A, a, eta, N)
            rel2 = abs(fd2 - analytic2) / (abs(analytic2) or 1.0)
            worst_fd = max(worst_fd, rel2)
            if rel > 1e-5 or rel2 > 1e-5:
                fd_ok = False
    checks["finite_difference_agreement"] = fd_ok
    details["worst_fd_relative_error"] = worst_fd

    sec_ok = True
    worst_sec = 0.0
    for a in a_small_grid:
        gap = N_p * 1e-6
        analysis = secant_slope(E, A, B, a, eta, N_p, N_p + gap, D)
        tangent = dloss_dN(A, a, eta, N_p)
        rel = abs(analysis.slope - tangent) / (abs(tangent) or 1.0)
        worst_sec = max(worst_sec, rel)
        if rel > 1e-4:
            sec_ok = False
    checks["secant_tangent_convergence"] = sec_ok
    details["worst_secant_relative_error"] = worst_sec

    mono = verify_monotonic_d_in_a(E, A, B, eta, N_p, N_q, D, a_grid)
    checks["d_model_monotone_in_a"] = mono.passed
    details["monotonicity"] = mono.to_json()

    return {
        "params": {"E": E, "A": A, "B": B, "eta": eta, "N_p": N_p, "N_q": N_q, "D": D},
        "checks": checks,
        "details": details,
        "passed": all(checks.values()),
    }
