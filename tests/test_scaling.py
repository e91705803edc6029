import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalingfilter.errors import (
    ConditionRegionViolatedError,
    InvalidExponentError,
    InvalidSecantError,
    NumericRangeError,
)
from scalingfilter.scaling import (
    d2loss_da_dN,
    dloss_dN,
    mixed_partial_bracket,
    reparam_loss,
    secant_slope,
    verification_report,
)

# E, A, B and the exponents alpha = 0.34, beta = 0.28 of the loss fit
E, A, B, ALPHA, BETA = 1.69, 406.4, 410.7, 0.34, 0.28


def loss(E, A, B, alpha, beta, N, D):
    """The (alpha, beta) form E + A/N^alpha + B/D^beta, written out."""
    return E + A / N**alpha + B / D**beta


def alpha_beta_loss(E, A, B, alpha, beta, N, D):
    """``reparam_loss`` at the (a, eta) of (alpha, beta): a = beta/(alpha+beta), eta = alpha+beta."""
    return reparam_loss(E, A, B, beta / (alpha + beta), alpha + beta, N, D)


class TestExpectedLoss:
    """The (alpha, beta) form of the loss, through ``reparam_loss``."""

    def test_degenerate_terms_leave_only_floor(self):
        for N, D in [(1.0, 1.0), (1e6, 1e9), (1e12, 1e3)]:
            assert alpha_beta_loss(2.5, 0.0, 0.0, 0.3, 0.3, N, D) == 2.5

    def test_single_power_law(self):
        assert alpha_beta_loss(0.0, 1.0, 0.0, 1.0, 1.0, 4.0, 1e9) == pytest.approx(0.25, rel=1e-15)

    def test_frozen_high_precision_value(self):
        # evaluated independently with 50-digit arithmetic
        assert alpha_beta_loss(E, A, B, ALPHA, BETA, 1e9, 1e10) == pytest.approx(2.6948752371019305, rel=1e-14)
        assert loss(E, A, B, ALPHA, BETA, 1e9, 1e10) == pytest.approx(2.6948752371019305, rel=1e-14)

    def test_rejects_nonpositive_sizes(self):
        for N, D in [(0.0, 1e9), (1e9, 0.0), (-1.0, 1e9)]:
            with pytest.raises(ValueError, match="N and D must be > 0"):
                alpha_beta_loss(E, A, B, ALPHA, BETA, N, D)

    def test_invalid_exponents_rejected(self):
        with pytest.raises(InvalidExponentError):
            alpha_beta_loss(1.0, 1.0, 1.0, -0.1, 0.3, 1e6, 1e9)

    @pytest.mark.parametrize("E_, A_, B_, message", [(-1.0, 1.0, 1.0, "E must be >= 0"),
                                                     (1.0, -1.0, 1.0, "A and B must be >= 0"),
                                                     (1.0, 1.0, -1.0, "A and B must be >= 0")])
    def test_negative_coefficients_rejected(self, E_, A_, B_, message):
        with pytest.raises(ValueError, match=message):
            reparam_loss(E_, A_, B_, 0.5, 0.6, 1e6, 1e9)


class TestExponents:
    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidExponentError) as exc:
            alpha_beta_loss(1.0, 1.0, 1.0, 0.0, 0.5, 1e6, 1e9)
        assert exc.value.code == "invalid-exponent"

    def test_exponent_that_rounds_to_zero_rejected(self):
        # a and eta are in range, but alpha = beta = 0.5 * 5e-324 round to 0
        with pytest.raises(InvalidExponentError, match=r"eta = 0.0 and beta = a\*eta = 0.0 must be > 0"):
            reparam_loss(1.0, 1.0, 1.0, 0.5, 5e-324, 1e6, 1e9)

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(InvalidExponentError, match=r"alpha = \(1-a\)\*eta = -0.5 and beta"):
            reparam_loss(1.0, 1.0, 1.0, 0.5, -1.0, 1e6, 1e9)

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(min_value=0.05, max_value=2.0),
        beta=st.floats(min_value=0.05, max_value=2.0),
        n_exp=st.floats(min_value=3, max_value=12),
        d_exp=st.floats(min_value=3, max_value=12),
    )
    def test_reparam_identity(self, alpha, beta, n_exp, d_exp):
        eta = alpha + beta
        a = beta / eta  # the compute-optimal model exponent of Hoffmann et al. 2022
        N, D = 10.0**n_exp, 10.0**d_exp
        assert reparam_loss(1.2, 100.0, 150.0, a, eta, N, D) == pytest.approx(
            loss(1.2, 100.0, 150.0, alpha, beta, N, D), rel=1e-12
        )


class TestReparamLoss:
    def test_substitution_case(self):
        assert reparam_loss(1.0, 2.0, 3.0, 0.5, 2.0, 100.0, 200.0) == pytest.approx(
            loss(1.0, 2.0, 3.0, 1.0, 1.0, 100.0, 200.0), rel=1e-15
        )

    def test_a_near_one_flattens_model_term(self):
        # as a -> 1 the N exponent (1-a)*eta -> 0, so N stops mattering
        spread = abs(
            reparam_loss(0.0, 10.0, 1.0, 0.999999, 0.6, 1e6, 1e9)
            - reparam_loss(0.0, 10.0, 1.0, 0.999999, 0.6, 1e12, 1e9)
        )
        assert spread < 1e-4

    def test_a_outside_unit_interval_rejected(self):
        with pytest.raises(InvalidExponentError):
            reparam_loss(1.0, 1.0, 1.0, 1.5, 0.6, 1e6, 1e9)


class TestDerivatives:
    A_GRID = [0.15, 0.35, 0.55, 0.75]
    N_GRID = [1e7, 1e8, 1e9, 1e10]

    def test_dloss_dN_always_negative(self):
        for a in self.A_GRID:
            for N in self.N_GRID:
                assert dloss_dN(406.4, a, 0.62, N) < 0

    def test_dloss_dN_zero_when_A_zero(self):
        assert dloss_dN(0.0, 0.5, 0.6, 1e8) == 0.0

    def test_dloss_dN_matches_finite_difference(self):
        for a in self.A_GRID:
            for N in self.N_GRID:
                h = N * 1e-6
                fd = (
                    reparam_loss(1.69, 406.4, 410.7, a, 0.62, N + h, 1e10)
                    - reparam_loss(1.69, 406.4, 410.7, a, 0.62, N - h, 1e10)
                ) / (2 * h)
                assert fd == pytest.approx(dloss_dN(406.4, a, 0.62, N), rel=1e-5)

    def test_mixed_partial_negative_under_bracket_condition(self):
        a, eta, N = 0.5, 0.62, 1e8
        assert mixed_partial_bracket(a, eta, N) < -1
        assert d2loss_da_dN(406.4, a, eta, N) < 0

    def test_mixed_partial_positive_when_bracket_positive(self):
        # small N makes the bracket positive; documents the condition boundary
        a, eta, N = 0.5, 0.62, 2.0
        assert mixed_partial_bracket(a, eta, N) > 0
        assert d2loss_da_dN(406.4, a, eta, N) > 0

    def test_mixed_partial_matches_finite_difference(self):
        for a in self.A_GRID:
            for N in self.N_GRID:
                ha = 1e-6
                fd = (dloss_dN(406.4, a + ha, 0.62, N) - dloss_dN(406.4, a - ha, 0.62, N)) / (2 * ha)
                assert fd == pytest.approx(d2loss_da_dN(406.4, a, 0.62, N), rel=1e-5)


class TestSecant:
    def test_negative_slope_and_d_above_one(self):
        slope, d_model = secant_slope(1.69, 406.4, 410.7, 0.45, 0.62, 1e8, 1e9, 1e10)
        assert slope < 0
        assert d_model > 1

    def test_slope_invariant_fields(self):
        slope, d_model = secant_slope(1.69, 406.4, 410.7, 0.45, 0.62, 1e8, 1e9, 1e10)
        L_p = reparam_loss(1.69, 406.4, 410.7, 0.45, 0.62, 1e8, 1e10)
        L_q = reparam_loss(1.69, 406.4, 410.7, 0.45, 0.62, 1e9, 1e10)
        assert slope == (L_q - L_p) / (1e9 - 1e8)
        assert d_model == 2.0 ** (L_p - L_q)

    def test_converges_to_tangent(self):
        N_p = 1e8
        gap = N_p * 1e-6
        slope, _ = secant_slope(1.69, 406.4, 410.7, 0.45, 0.62, N_p, N_p + gap, 1e10)
        assert slope == pytest.approx(dloss_dN(406.4, 0.45, 0.62, N_p), rel=1e-4)

    def test_d_equals_two_to_minus_slope_times_gap(self):
        slope, d_model = secant_slope(1.69, 406.4, 410.7, 0.45, 0.62, 1e8, 1e9, 1e10)
        assert d_model == pytest.approx(2.0 ** (-slope * (1e9 - 1e8)), rel=1e-12)

    def test_quality_factor_overflow_raises_numeric_range(self):
        # L_p - L_q is about 1036 bits here: 2^1036 is beyond a float
        with pytest.raises(NumericRangeError) as exc:
            secant_slope(1.69, 1e5, 410.7, 0.69, 0.62, 1e8, 1e9, 1e10)
        assert exc.value.code == "numeric-range" and "overflows" in str(exc.value)

    def test_invalid_order_rejected(self):
        with pytest.raises(InvalidSecantError) as exc:
            secant_slope(1.69, 406.4, 410.7, 0.45, 0.62, 1e9, 1e8, 1e10)
        assert exc.value.code == "invalid-secant"


class TestMonotonicity:
    def test_hundred_point_grid_passes(self):
        report = verification_report(eta=0.6)
        mono = report["details"]["monotonicity"]
        assert mono["a_grid"] == list(np.linspace(0.1, 0.9, 100))
        assert mono["strictly_increasing"] and report["checks"]["d_model_monotone_in_a"]
        d = mono["d_model"]
        assert all(d[i] < d[i + 1] for i in range(99))
        # each value is the secant's quality factor at its a
        assert d == [secant_slope(1.69, 406.4, 410.7, a, 0.6, 1e8, 1e9, 1e10)[1] for a in mono["a_grid"]]

    def test_condition_region_violation(self):
        with pytest.raises(ConditionRegionViolatedError) as exc:
            verification_report(eta=0.6, N_p=2.0)
        assert exc.value.code == "condition-region-violated"


class TestVerificationReport:
    def test_default_report_passes(self):
        report = verification_report()
        assert report["passed"]
        assert all(report["checks"].values())

    def test_report_structure(self):
        report = verification_report()
        assert set(report["checks"]) == {
            "dloss_dN_negative",
            "mixed_partial_sign_matches_bracket",
            "finite_difference_agreement",
            "secant_tangent_convergence",
            "d_model_monotone_in_a",
        }
        assert report["details"]["worst_fd_relative_error"] < 1e-5

    def test_tiny_N_p_violates_condition(self):
        with pytest.raises(ConditionRegionViolatedError):
            verification_report(N_p=2.0, N_q=1e9)
