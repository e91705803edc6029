"""Chinchilla-form parametric loss and the quality-factor derivation checks.

The loss surface is L(N, D) = E + A/N^alpha + B/D^beta for N parameters
and D training tokens. Under a compute budget C = const * N * D the
optimal allocation follows N_opt ~ C^a, D_opt ~ C^b with a = beta/(alpha+beta)
and b = alpha/(alpha+beta), a premise taken from Hoffmann et al. 2022
(arXiv:2203.15556) and not re-derived here. Substituting
alpha = (1-a)*eta, beta = a*eta (eta = alpha + beta) exposes the model
scaling exponent a directly in the loss; ``reparam_loss`` is the surface
in that form, and everything this module verifies follows from it:

* dL/dN = A*(a-1)*eta*N^((a-1)*eta - 1) < 0,
* d2L/(da dN) = A*eta*N^((a-1)*eta - 1) * (1 + (a-1)*eta*ln N), negative
  exactly where the bracket is negative (large N),
* hence the secant slope between two model sizes steepens as a grows, and
  the perplexity-ratio quality factor d = 2^(L_small - L_large) is
  strictly increasing in a on that region.

``verification_report`` runs these checks on grids of a and N and returns
the dict that ``verify-scaling`` writes as verify_report.json.
All losses are bits per token so that perplexity is 2^L.
"""

from __future__ import annotations

import math

from .errors import ConditionRegionViolatedError, InvalidExponentError, InvalidSecantError, NumericRangeError

# verification_report's grids: the monotonicity check's A_POINTS values of a on [A_LO, A_HI],
# and CHECK_GRID_SIZE values each of a and N for the derivative and secant checks
A_LO, A_HI = 0.1, 0.9
A_POINTS = 100
CHECK_GRID_SIZE = 10


def _power_term(coeff: float, base: float, exponent: float) -> float:
    # coeff / base^exponent in log space to dodge overflow at extreme exponents
    try:
        return math.exp(math.log(coeff) - exponent * math.log(base))
    except OverflowError as exc:
        raise NumericRangeError(f"{coeff}/{base}^{exponent} overflows") from exc


def _finite(value: float, name: str, **at: float) -> float:
    """``value``, or NumericRangeError if it overflowed to inf or became NaN."""
    if not math.isfinite(value):
        where = ", ".join(f"{key}={x}" for key, x in at.items())
        raise NumericRangeError(f"{name} = {value} is not finite at {where}")
    return value


def reparam_loss(E: float, A: float, B: float, a: float, eta: float, N: float, D: float) -> float:
    """E + A/N^alpha + B/D^beta with alpha = (1-a)*eta and beta = a*eta.

    Both exponents are positive exactly when 0 < a < 1 and eta > 0.
    """
    if E < 0:
        raise ValueError("E must be >= 0")
    # A or B of exactly 0 is allowed: the term vanishes (degenerate surface)
    if A < 0 or B < 0:
        raise ValueError("A and B must be >= 0")
    alpha, beta = (1 - a) * eta, a * eta
    if alpha <= 0 or beta <= 0:
        raise InvalidExponentError(f"alpha = (1-a)*eta = {alpha} and beta = a*eta = {beta} must be > 0")
    if N <= 0 or D <= 0:
        raise ValueError("N and D must be > 0")
    out = E
    if A > 0:
        out += _power_term(A, N, alpha)
    if B > 0:
        out += _power_term(B, D, beta)
    return _finite(out, "L", a=a, eta=eta, N=N, D=D)


def _size_factor(a: float, eta: float, N: float) -> float:
    """N^((a-1)*eta - 1), the factor dL/dN and d2L/(da dN) share."""
    try:
        return math.exp(((a - 1.0) * eta - 1.0) * math.log(N))
    except OverflowError as exc:
        raise NumericRangeError(f"N^((a-1)*eta - 1) overflows at a={a}, eta={eta}, N={N}") from exc


def dloss_dN(A: float, a: float, eta: float, N: float) -> float:
    """Analytic dL/dN = A*(a-1)*eta*N^((a-1)*eta - 1); negative for valid params."""
    if A == 0:
        return 0.0
    return _finite(A * (a - 1.0) * eta * _size_factor(a, eta, N), "dL/dN", a=a, eta=eta, N=N)


def mixed_partial_bracket(a: float, eta: float, N: float) -> float:
    """The sign-determining factor 1 + (a-1)*eta*ln(N) of the mixed partial."""
    return 1.0 + (a - 1.0) * eta * math.log(N)


def d2loss_da_dN(A: float, a: float, eta: float, N: float) -> float:
    """Analytic d2L/(da dN) = A*eta*N^((a-1)*eta - 1) * (1 + (a-1)*eta*ln N)."""
    if A == 0:
        return 0.0
    return _finite(A * eta * _size_factor(a, eta, N) * mixed_partial_bracket(a, eta, N), "d2L/(da dN)",
                   a=a, eta=eta, N=N)


def _check_sizes(N_p: float, N_q: float) -> None:
    if not (0 < N_p < N_q):
        raise InvalidSecantError(f"need 0 < N_p < N_q, got ({N_p}, {N_q})")


def secant_slope(E: float, A: float, B: float, a: float, eta: float, N_p: float, N_q: float,
                 D: float) -> tuple[float, float]:
    """Secant slope (L_q - L_p) / (N_q - N_p) at fixed D, and the quality factor 2^(L_p - L_q).

    The slope is always negative and the quality factor always exceeds 1,
    since loss strictly decreases with model size.
    """
    _check_sizes(N_p, N_q)
    L_p = reparam_loss(E, A, B, a, eta, N_p, D)
    L_q = reparam_loss(E, A, B, a, eta, N_q, D)
    try:
        d_model = 2.0 ** (L_p - L_q)
    except OverflowError as exc:
        raise NumericRangeError(f"2^({L_p} - {L_q}) overflows at a={a}, N_p={N_p}, N_q={N_q}") from exc
    return (L_q - L_p) / (N_q - N_p), d_model


def _relative_error(x: float, y: float) -> float:
    """|x - y| / |y|, or the absolute error where y is exactly 0 (A = 0)."""
    return abs(x - y) / (abs(y) or 1.0)


def verification_report(E: float = 1.69, A: float = 406.4, B: float = 410.7, eta: float = 0.62,
                        N_p: float = 1e8, N_q: float = 1e9, D: float = 1e10) -> dict:
    """Run every derivation check on one parameter set and report pass/fail.

    Checks: negative dL/dN on an (a, N) grid; mixed-partial sign matching
    the bracket sign exactly; finite-difference agreement for both
    derivatives; secant-to-tangent convergence; strict monotonicity of
    d_model in a.
    """
    import numpy as np  # for the grids alone: loaded by verify-scaling, not by every command

    _check_sizes(N_p, N_q)  # before log10 takes them
    if eta <= 0:  # every a of the grids lies in (0, 1), so alpha and beta are > 0 exactly when eta is
        raise InvalidExponentError(f"eta = {eta} must be > 0")
    a_grid = [float(a) for a in np.linspace(A_LO, A_HI, A_POINTS)]
    a_small_grid = list(np.linspace(A_LO, A_HI, CHECK_GRID_SIZE))
    n_grid = np.logspace(math.log10(N_p), math.log10(N_q), CHECK_GRID_SIZE)
    grid = [(a, N) for a in a_small_grid for N in n_grid]
    # the checks run in this order, each but the first over every grid point: the error raised is
    # that of the first overflow on this walk
    checks = {"dloss_dN_negative": all(dloss_dN(A, a, eta, N) < 0 for a, N in grid)}

    # d2L/(da dN) has the sign of the bracket wherever the bracket is not 0
    signs = [(mixed_partial_bracket(a, eta, N), d2loss_da_dN(A, a, eta, N)) for a, N in grid]
    checks["mixed_partial_sign_matches_bracket"] = all(
        not (bracket < 0 and not value < 0) and not (bracket > 0 and not value > 0) for bracket, value in signs
    )

    fd_errors = []
    for a, N in grid:
        h, ha = N * 1e-6, 1e-6
        fd = (reparam_loss(E, A, B, a, eta, N + h, D) - reparam_loss(E, A, B, a, eta, N - h, D)) / (2 * h)
        fd_errors.append(_relative_error(fd, dloss_dN(A, a, eta, N)))
        fd2 = (dloss_dN(A, a + ha, eta, N) - dloss_dN(A, a - ha, eta, N)) / (2 * ha)
        fd_errors.append(_relative_error(fd2, d2loss_da_dN(A, a, eta, N)))
    sec_errors = [
        _relative_error(secant_slope(E, A, B, a, eta, N_p, N_p + N_p * 1e-6, D)[0], dloss_dN(A, a, eta, N_p))
        for a in a_small_grid
    ]
    # errors are >= 0: the floor only keeps an all-zero maximum (A = 0) the float 0.0
    worst_fd, worst_sec = max(0.0, *fd_errors), max(0.0, *sec_errors)
    checks["finite_difference_agreement"] = bool(worst_fd <= 1e-5)
    checks["secant_tangent_convergence"] = bool(worst_sec <= 1e-4)

    # the quality factor rises with a only where the mixed-partial bracket is negative across
    # [N_p, N_q]; the bracket is monotone in ln N, so both ends are checked for every a
    for a in a_grid:
        for N in (N_p, N_q):
            if mixed_partial_bracket(a, eta, N) >= 0:
                raise ConditionRegionViolatedError(
                    f"bracket 1 + (a-1)*eta*ln(N) >= 0 at a={a}, N={N}; increase N_p"
                )
    d_values = [secant_slope(E, A, B, a, eta, N_p, N_q, D)[1] for a in a_grid]
    checks["d_model_monotone_in_a"] = all(x < y for x, y in zip(d_values, d_values[1:]))

    return {
        "params": {"E": E, "A": A, "B": B, "eta": eta, "N_p": N_p, "N_q": N_q, "D": D},
        "checks": checks,
        "details": {
            "worst_fd_relative_error": worst_fd,
            "worst_secant_relative_error": worst_sec,
            "monotonicity": {"a_grid": a_grid, "d_model": d_values,
                             "strictly_increasing": checks["d_model_monotone_in_a"]},
        },
        "passed": all(checks.values()),
    }
