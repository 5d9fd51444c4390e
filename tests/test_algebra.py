import numpy as np
import pytest
from numpy.testing import assert_allclose

from holonoise import algebra
from holonoise.algebra import (
    CONSTANTS,
    PhysicalConstants,
    angular_uncertainty_bound,
    boost_matrix,
    commutator_tensor,
    covariance_residual,
    dof_counts,
    heisenberg_variance_bound,
    levi_civita4,
    random_boost,
    rest_frame_commutator,
    rotation_matrix,
    scale_estimates,
    uncertainty_bound,
    validate_four_velocity,
    validate_lorentz_transform,
)

REST = np.array([1.0, 0.0, 0.0, 0.0])
X_LAB = np.array([0.0, 0.0, 0.0, 40.0])


class TestConstants:
    def test_length_time_consistency(self):
        assert_allclose(CONSTANTS.c * CONSTANTS.t_P, CONSTANTS.l_P, rtol=1e-12)

    def test_units_consistency(self):
        assert_allclose(CONSTANTS.m_P * CONSTANTS.c**2 * CONSTANTS.t_P,
                        CONSTANTS.hbar, rtol=1e-3)

    def test_quoted_values(self):
        assert CONSTANTS.c == 2.99792458e8
        assert CONSTANTS.l_P == 1.616e-35
        assert CONSTANTS.m_P == 2.176e-8

    def test_hbar_near_codata(self):
        assert_allclose(CONSTANTS.hbar, 1.054571817e-34, rtol=1e-3)


class TestLeviCivita:
    def test_reference_ordering(self):
        assert levi_civita4(1, 2, 3, 0) == 1

    def test_single_transposition(self):
        assert levi_civita4(2, 1, 3, 0) == -1

    def test_repeated_index(self):
        assert levi_civita4(1, 1, 3, 0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            levi_civita4(4, 0, 1, 2)
        with pytest.raises(ValueError):
            levi_civita4(-1, 0, 1, 2)

    def test_total_antisymmetry(self):
        from itertools import permutations

        nonzero = 0
        for p in permutations(range(4)):
            v = levi_civita4(*p)
            assert v in (-1, 1)
            nonzero += 1
            # swapping any adjacent pair flips the sign
            for i in range(3):
                q = list(p)
                q[i], q[i + 1] = q[i + 1], q[i]
                assert levi_civita4(*q) == -v
        assert nonzero == 24


class TestCommutatorTensor:
    def test_lab_configuration(self):
        c = commutator_tensor(X_LAB, REST)
        # separation 40 m along axis 3, body at rest: only the 1-2 plane
        # fails to commute, by 40 * l_P = 6.464e-34 m^2
        assert_allclose(c[1, 2], 6.464e-34, rtol=1e-12)
        assert_allclose(c[2, 1], -6.464e-34, rtol=1e-12)
        for m in range(4):
            for n in range(4):
                if m in (0, 3) or n in (0, 3):
                    assert c[m, n] == 0.0

    def test_zero_position(self):
        u = boost_matrix([0.3, -0.2, 0.1]) @ REST
        assert np.all(commutator_tensor(np.zeros(4), u) == 0.0)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = rng.normal(0, 100, 4)
            u = random_boost(rng) @ REST
            c = commutator_tensor(x, u)
            assert np.all(c == -c.T)
            assert np.all(np.diag(c) == 0.0)

    def test_rejects_bad_four_velocity(self):
        with pytest.raises(ValueError):
            commutator_tensor(X_LAB, [1.0, 0.5, 0.0, 0.0])

    def test_linear_in_planck_length(self):
        doubled = PhysicalConstants.create(l_P=2 * CONSTANTS.l_P)
        c1 = commutator_tensor(X_LAB, REST)
        c2 = commutator_tensor(X_LAB, REST, doubled)
        assert_allclose(c2, 2.0 * c1)

    def test_classical_limit(self):
        classical = PhysicalConstants.create(l_P=0.0)
        assert np.all(commutator_tensor(X_LAB, REST, classical) == 0.0)
        assert np.all(rest_frame_commutator([3.0, -1.0, 7.0], classical) == 0.0)
        assert uncertainty_bound([0, 0, 40.0], 1, 2, classical) == 0.0
        assert angular_uncertainty_bound(40.0, classical) == 0.0


class TestRestFrameReduction:
    def test_axis_separation(self):
        c3 = rest_frame_commutator([0.0, 0.0, 7.5])
        assert_allclose(c3[0, 1], 7.5 * CONSTANTS.l_P, rtol=1e-15)
        assert c3[0, 2] == 0.0
        assert c3[1, 2] == 0.0

    def test_zero_matrix(self):
        assert np.all(rest_frame_commutator(np.zeros(3)) == 0.0)

    def test_matches_spatial_block(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            x3 = rng.normal(0, 50, 3)
            c4 = commutator_tensor(np.concatenate([[0.0], x3]), REST)
            c3 = rest_frame_commutator(x3)
            assert_allclose(c4[1:, 1:], c3, rtol=1e-15, atol=0.0)


class TestCovariance:
    def test_identity(self):
        assert covariance_residual(X_LAB, REST, np.eye(4)) == 0.0

    def test_half_c_boost(self):
        lam = boost_matrix([0.5, 0.0, 0.0])
        res = covariance_residual(X_LAB, REST, lam)
        assert res <= 1e-10 * 40.0 * CONSTANTS.l_P

    def test_random_boost_sweep(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            lam = random_boost(rng, beta_max=0.99)
            x = rng.normal(0, 100, 4)
            u = random_boost(rng, beta_max=0.9) @ REST
            scale = np.max(np.abs(commutator_tensor(x, u)))
            if scale == 0.0:
                continue
            assert covariance_residual(x, u, lam) <= 1e-10 * scale

    def test_rejects_invalid_transform(self):
        with pytest.raises(ValueError):
            covariance_residual(X_LAB, REST, 2.0 * np.eye(4))

    def test_rejects_improper_transform(self):
        parity = np.diag([1.0, -1.0, -1.0, -1.0])
        with pytest.raises(ValueError):
            validate_lorentz_transform(parity)

    def test_transform_validation(self):
        rng = np.random.default_rng(5)
        lam = random_boost(rng) @ rotation_matrix(3, 0.7)
        eta = algebra.MINKOWSKI_METRIC
        assert np.max(np.abs(lam.T @ eta @ lam - eta)) < 1e-10


class TestBoostsAndShapes:
    def test_scalar_and_zero_boosts(self):
        # a scalar beta boosts along x; beta = 0 is the identity
        assert np.array_equal(boost_matrix(0.5), boost_matrix([0.5, 0.0, 0.0]))
        assert np.array_equal(boost_matrix(0.0), np.eye(4))
        assert np.array_equal(boost_matrix(np.zeros(3)), np.eye(4))

    @pytest.mark.parametrize("call, args, message", [
        (validate_four_velocity, ([1.0, 0.0, 0.0],), "shape"),
        (validate_lorentz_transform, (np.eye(3),), "4x4"),
        (commutator_tensor, ([0.0, 0.0, 40.0], REST), "shape"),
        (rest_frame_commutator, ([0.0, 40.0],), "shape"),
        (uncertainty_bound, (X_LAB, 1, 2), "shape"),
        (boost_matrix, ([0.5, 0.0],), "3-vector"),
        (boost_matrix, (1.0,), r"\|beta\|"),
        (boost_matrix, ([0.0, -1.5, 0.0],), r"\|beta\|"),
        (rotation_matrix, (0, 0.5), "axis"),
    ])
    def test_malformed_input_refused(self, call, args, message):
        with pytest.raises(ValueError, match=message):
            call(*args)


class TestUncertaintyBounds:
    def test_lab_transverse_pair(self):
        b = uncertainty_bound([0.0, 0.0, 40.0], 1, 2)
        assert_allclose(b, 3.232e-34, rtol=1e-12)
        # transverse rms ~ 1.8e-17 m: the ten-attometer scale
        assert_allclose(np.sqrt(b), 1.7978e-17, rtol=1e-4)

    def test_pair_including_separation_axis(self):
        assert uncertainty_bound([0.0, 0.0, 5.0], 1, 3) == 0.0

    def test_origin(self):
        assert uncertainty_bound(np.zeros(3), 2, 3) == 0.0

    def test_identical_directions_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_bound([0, 0, 1.0], 2, 2)

    def test_index_range(self):
        with pytest.raises(ValueError):
            uncertainty_bound([0, 0, 1.0], 0, 1)

    def test_angular_lab(self):
        assert_allclose(angular_uncertainty_bound(40.0), 2.02e-37, rtol=1e-12)

    def test_angular_planck_separation(self):
        assert angular_uncertainty_bound(CONSTANTS.l_P / 2.0) == 1.0

    def test_angular_inverse_scaling(self):
        assert_allclose(angular_uncertainty_bound(80.0),
                        angular_uncertainty_bound(40.0) / 2.0, rtol=1e-15)

    def test_angular_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            angular_uncertainty_bound(0.0)


class TestHeisenbergBound:
    def test_planck_mass_one_second(self):
        v = heisenberg_variance_bound(CONSTANTS.m_P, 1.0)
        assert_allclose(v, 9.689292e-27, rtol=1e-6)
        assert_allclose(v, 2.0 * CONSTANTS.c**2 * CONSTANTS.t_P, rtol=1e-15)

    def test_inverse_mass_scaling(self):
        assert_allclose(heisenberg_variance_bound(2 * CONSTANTS.m_P, 1.0),
                        heisenberg_variance_bound(CONSTANTS.m_P, 1.0) / 2.0,
                        rtol=1e-15)

    def test_lab_round_trip(self):
        tau = 80.0 / CONSTANTS.c
        assert_allclose(heisenberg_variance_bound(CONSTANTS.m_P, tau),
                        2.586e-33, rtol=1e-3)

    def test_planck_mass_crossover(self):
        # quantum bound dominates the geometric scale c tau l_P exactly up
        # to twice the Planck mass (the constants make this an identity)
        for tau in (1e-7, 1.0, 3600.0):
            geometric = CONSTANTS.c * tau * CONSTANTS.l_P
            assert heisenberg_variance_bound(2 * CONSTANTS.m_P, tau) == pytest.approx(geometric)
            assert heisenberg_variance_bound(1.9 * CONSTANTS.m_P, tau) > geometric
            assert heisenberg_variance_bound(2.1 * CONSTANTS.m_P, tau) < geometric

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            heisenberg_variance_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            heisenberg_variance_bound(1.0, -1.0)


class TestDofCounts:
    def test_planck_length_region(self):
        counts = dof_counts(CONSTANTS.l_P)
        assert counts == (1.0, 1.0, 1.0)

    def test_lab_scale(self):
        counts = dof_counts(40.0)
        assert_allclose(counts.n_radial, 2.475e36, rtol=1e-3)

    def test_holographic_product(self):
        for length in (1e-3, 16.16, 40.0, 4000.0):
            counts = dof_counts(length)
            assert counts.n_total == counts.n_radial * counts.n_transverse

    def test_n_total_1e72(self):
        # length/l_P = 1e36 at about 16.2 m
        counts = dof_counts(1e36 * CONSTANTS.l_P)
        assert_allclose(counts.n_total, 1e72, rtol=1e-12)
        assert_allclose(1e36 * CONSTANTS.l_P, 16.16, rtol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dof_counts(-1.0)


class TestScaleEstimates:
    def test_five_meter_lab(self):
        est = scale_estimates(5.0)
        assert_allclose(est.v_equivalent, 5.3896e-10, rtol=1e-4)
        cm_per_year = est.v_equivalent * algebra.SECONDS_PER_YEAR * 100
        assert 1.0 / 3.0 < cm_per_year < 3.0  # about a centimeter per year

    def test_excursion_four_meters(self):
        est = scale_estimates(4.0)
        # sqrt(2 L l_P): about ten attometers
        assert_allclose(est.excursion_rms, 1.1370e-17, rtol=1e-4)
        assert 0.5e-17 < est.excursion_rms < 5e-17

    def test_coherence_time(self):
        assert_allclose(scale_estimates(40.0).coherence_time,
                        80.0 / CONSTANTS.c, rtol=1e-15)

    def test_planck_energy_in_tev(self):
        assert_allclose(scale_estimates(1.0).n_tev, 1.2206e16, rtol=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_estimates(0.0)
