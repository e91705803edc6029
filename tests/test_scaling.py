import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalingfilter.errors import (
    ConditionRegionViolatedError,
    InvalidExponentError,
    InvalidSecantError,
)
from scalingfilter.scaling import (
    ScalingLawParams,
    d2loss_da_dN,
    dloss_dN,
    expected_loss,
    mixed_partial_bracket,
    reparam_loss,
    secant_slope,
    verification_report,
    verify_monotonic_d_in_a,
)

PARAMS = ScalingLawParams(E=1.69, A=406.4, B=410.7, alpha=0.34, beta=0.28)


class TestExpectedLoss:
    def test_degenerate_terms_leave_only_floor(self):
        p = ScalingLawParams(E=2.5, A=0.0, B=0.0, alpha=0.3, beta=0.3)
        for N, D in [(1.0, 1.0), (1e6, 1e9), (1e12, 1e3)]:
            assert expected_loss(p, N, D) == 2.5

    def test_single_power_law(self):
        p = ScalingLawParams(E=0.0, A=1.0, B=0.0, alpha=1.0, beta=1.0)
        assert expected_loss(p, 4.0, 1e9) == pytest.approx(0.25, rel=1e-15)

    def test_frozen_high_precision_value(self):
        # evaluated independently with 50-digit arithmetic
        assert expected_loss(PARAMS, 1e9, 1e10) == pytest.approx(
            2.6948752371019305, rel=1e-14
        )

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            expected_loss(PARAMS, 0.0, 1e9)

    def test_invalid_exponents_rejected(self):
        with pytest.raises(InvalidExponentError):
            ScalingLawParams(E=1.0, A=1.0, B=1.0, alpha=-0.1, beta=0.3)


class TestExponents:
    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidExponentError) as exc:
            ScalingLawParams(E=1.0, A=1.0, B=1.0, alpha=0.0, beta=0.5)
        assert exc.value.code == "invalid-exponent"

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
        p = ScalingLawParams(E=1.2, A=100.0, B=150.0, alpha=alpha, beta=beta)
        assert reparam_loss(1.2, 100.0, 150.0, a, eta, N, D) == pytest.approx(
            expected_loss(p, N, D), rel=1e-12
        )


class TestReparamLoss:
    def test_substitution_case(self):
        p = ScalingLawParams(E=1.0, A=2.0, B=3.0, alpha=1.0, beta=1.0)
        assert reparam_loss(1.0, 2.0, 3.0, 0.5, 2.0, 100.0, 200.0) == pytest.approx(
            expected_loss(p, 100.0, 200.0), rel=1e-15
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
        analysis = secant_slope(1.69, 406.4, 410.7, 0.45, 0.62, 1e8, 1e9, 1e10)
        assert analysis.slope < 0
        assert analysis.d_model > 1

    def test_slope_invariant_fields(self):
        analysis = secant_slope(1.69, 406.4, 410.7, 0.45, 0.62, 1e8, 1e9, 1e10)
        assert analysis.slope == (analysis.L_q - analysis.L_p) / (analysis.N_q - analysis.N_p)
        assert analysis.d_model == 2.0 ** (analysis.L_p - analysis.L_q)

    def test_converges_to_tangent(self):
        N_p = 1e8
        gap = N_p * 1e-6
        analysis = secant_slope(1.69, 406.4, 410.7, 0.45, 0.62, N_p, N_p + gap, 1e10)
        assert analysis.slope == pytest.approx(dloss_dN(406.4, 0.45, 0.62, N_p), rel=1e-4)

    def test_d_equals_two_to_minus_slope_times_gap(self):
        analysis = secant_slope(1.69, 406.4, 410.7, 0.45, 0.62, 1e8, 1e9, 1e10)
        assert analysis.d_model == pytest.approx(
            2.0 ** (-analysis.slope * (analysis.N_q - analysis.N_p)), rel=1e-12
        )

    def test_invalid_order_rejected(self):
        with pytest.raises(InvalidSecantError) as exc:
            secant_slope(1.69, 406.4, 410.7, 0.45, 0.62, 1e9, 1e8, 1e10)
        assert exc.value.code == "invalid-secant"


class TestMonotonicity:
    def test_hundred_point_grid_passes(self):
        grid = list(np.linspace(0.1, 0.9, 100))
        report = verify_monotonic_d_in_a(1.69, 406.4, 410.7, 0.6, 1e8, 1e9, 1e10, grid)
        assert report.passed
        assert all(report.d_values[i] < report.d_values[i + 1] for i in range(99))

    def test_single_point_vacuously_passes(self):
        report = verify_monotonic_d_in_a(1.69, 406.4, 410.7, 0.6, 1e8, 1e9, 1e10, [0.5])
        assert report.passed

    def test_condition_region_violation(self):
        with pytest.raises(ConditionRegionViolatedError) as exc:
            verify_monotonic_d_in_a(1.69, 406.4, 410.7, 0.6, 2.0, 1e9, 1e10, [0.5])
        assert exc.value.code == "condition-region-violated"

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_monotonic_d_in_a(1.69, 406.4, 410.7, 0.6, 1e8, 1e9, 1e10, [0.5, 0.3])


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
