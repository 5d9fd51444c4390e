import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from holonoise import (
    HolographicSpectrum,
    analytic_autocorrelation,
    analytic_psd,
    envelope_high_f,
    one_sided_psd,
    time_averaged_ms_displacement,
)
from holonoise import errors
from holonoise.algebra import CONSTANTS
from holonoise.errors import ConfigurationError

# frozen from direct evaluation of the closed forms for L = 40 m
F_C_40 = 596418.1449046178
FIRST_ZERO_40 = 3747405.725
PLATEAU_40 = 2.1962448213872256e-40
PEAK_40 = 8.230220417168091e-34
COHERENCE_40 = 2.6685127615852164e-07


class TestSpectrumObject:
    def test_characteristic_frequencies(self, spec40):
        assert_allclose(spec40.f_c, F_C_40, rtol=1e-12)
        assert_allclose(spec40.f_c, CONSTANTS.c / (4 * np.pi * 40.0), rtol=1e-12)
        assert_allclose(spec40.zeros(3),
                        [FIRST_ZERO_40, 2 * FIRST_ZERO_40, 3 * FIRST_ZERO_40],
                        rtol=1e-12)
        assert_allclose(spec40.coherence_time, COHERENCE_40, rtol=1e-12)

    def test_zeros_too_many_for_memory_are_refused(self, spec40,
                                                   monkeypatch):
        # checked against physical memory before the array is made
        monkeypatch.setattr(errors, "_physical_memory", lambda: 2**20)
        assert spec40.zeros(2**17).size == 2**17
        with pytest.raises(ConfigurationError, match="n 131073"):
            spec40.zeros(2**17 + 1)
        with pytest.raises(ConfigurationError, match="n 10000000000000"):
            spec40.zeros(10**13)

    def test_rejects_bad_arm_length(self):
        with pytest.raises(ValueError):
            HolographicSpectrum(0.0)
        # L^2 would overflow, or the plateau 8 t_P L^2 / pi fall below the
        # smallest normal float
        for L in (1.35e154, 5e-324, 8e-301, 1e-150, 4e-133):
            with pytest.raises(ValueError, match="arm_length"):
                HolographicSpectrum(L)
        assert HolographicSpectrum(5e-133).plateau >= sys.float_info.min


class TestAnalyticPsd:
    def test_plateau_value(self, spec40):
        assert_allclose(analytic_psd(spec40, 0.0), PLATEAU_40, rtol=1e-12)
        assert_allclose(analytic_psd(spec40, 1.0), PLATEAU_40, rtol=1e-6)

    def test_plateau_region(self, spec40):
        f = np.linspace(1.0, spec40.f_c / 20.0, 2000)
        psd = analytic_psd(spec40, f)
        assert np.all(np.abs(psd / spec40.plateau - 1.0) < 0.01)

    def test_first_zero(self, spec40):
        assert analytic_psd(spec40, FIRST_ZERO_40) <= 1e-6 * spec40.plateau

    def test_zeros(self, spec40):
        for z in spec40.zeros(3):
            assert analytic_psd(spec40, float(z)) <= 1e-6 * spec40.plateau

    def test_nonnegative(self, spec40):
        f = np.linspace(0.0, 100 * spec40.f_c, 40001)
        assert np.all(np.asarray(analytic_psd(spec40, f)) >= 0.0)

    def test_rejects_negative_frequency(self, spec40):
        with pytest.raises(ValueError):
            analytic_psd(spec40, -1.0)

    def test_rejects_nan_frequency(self, spec40):
        for f in (np.nan, [0.0, np.nan, 1e6]):
            with pytest.raises(ValueError, match="nonnegative"):
                analytic_psd(spec40, f)

    def test_zero_beyond_float_range_without_warning(self, spec40):
        # the density, plateau * sinc^2(f 2L/c), underflows above about
        # 1e148 Hz at 40 m: it and its envelope are 0 there; below, they
        # are the closed forms
        f = np.array([1e7, 1e139, 1e160, 1e300, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psd = analytic_psd(spec40, f)
            env = envelope_high_f(spec40, f)
        assert psd[:2].tolist() == (
            spec40.plateau * np.sinc(f[:2] * spec40.coherence_time) ** 2
        ).tolist()
        assert 0.0 not in psd[:2].tolist()
        assert psd[2:].tolist() == env[2:].tolist() == [0.0] * 3

    def test_zero_where_f_2L_over_c_overflows(self):
        # at L = 1e150 m, f 2L/c leaves the float range above 2.7e166 Hz
        spec = HolographicSpectrum(1e150)
        f = np.array([1e167, 1e300, np.finfo(float).max, np.inf])
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(f * spec.coherence_time))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psd = analytic_psd(spec, f)
        assert psd.tolist() == [0.0] * 4

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is a plain double here")
    @pytest.mark.parametrize("L", [0.5, 40.0, 3000.0])
    def test_closed_form_to_the_last_bits(self, L):
        # plateau (sin pi x / pi x)^2 in extended precision, from the same
        # doubles f, 2L/c and plateau, over x = f 2L/c in [1e-7, 0.5]
        spec = HolographicSpectrum(L)
        tau = spec.coherence_time
        f = np.geomspace(1e-7, 0.5, 20001) / tau
        pi = np.arccos(np.longdouble(-1.0))
        y = pi * (f.astype(np.longdouble) * np.longdouble(tau))
        exact = np.longdouble(spec.plateau) * (np.sin(y) / y) ** 2
        error = (analytic_psd(spec, f) - exact) / exact
        assert np.max(np.abs(error)) < 1e-14

    def test_one_sided_doubling(self, spec40):
        f = np.array([0.0, 1e5, 1e6])
        two = np.asarray(analytic_psd(spec40, f))
        one = np.asarray(one_sided_psd(spec40, f))
        assert one[0] == two[0]
        assert_allclose(one[1:], 2 * two[1:], rtol=1e-15)

    def test_high_f_band_average_independent_of_length(self):
        # band-averaged level far above the knee depends on the Planck time
        # only, not on the apparatus size; the band spans whole oscillation
        # periods of both spectra so the averages are well defined
        spec_a, spec_b = HolographicSpectrum(40.0), HolographicSpectrum(80.0)
        width = 8 * float(spec_a.zeros(1)[0])  # 16 periods of the 80 m spectrum
        f = np.linspace(50e6, 50e6 + width, 60001)
        mean_a = np.mean(analytic_psd(spec_a, f))
        mean_b = np.mean(analytic_psd(spec_b, f))
        assert abs(mean_a / mean_b - 1.0) < 0.05


class TestEnvelope:
    def test_value_at_10mhz(self, spec40):
        # direct substitution: 8 c^2 t_P / (pi (2 pi f)^2)
        assert_allclose(envelope_high_f(spec40, 1e7), 3.124945423942566e-42,
                        rtol=1e-12)

    def test_inverse_square_ratio(self, spec40):
        for f in (1e6, 5.5e6, 2.3e7):
            ratio = envelope_high_f(spec40, 2 * f) / envelope_high_f(spec40, f)
            assert abs(ratio - 0.25) < 1e-9

    def test_bounds_psd(self, spec40):
        f = np.linspace(spec40.f_c * 1.0001, 100 * spec40.f_c, 10000)
        psd = np.asarray(analytic_psd(spec40, f))
        env = np.asarray(envelope_high_f(spec40, f))
        assert np.all(psd <= env * (1 + 1e-12))

    def test_rejects_below_knee(self, spec40):
        with pytest.raises(ValueError):
            envelope_high_f(spec40, spec40.f_c)


class TestAutocorrelation:
    def test_peak(self, spec40):
        assert_allclose(analytic_autocorrelation(spec40, 0.0), PEAK_40,
                        rtol=1e-12)
        assert_allclose(PEAK_40,
                        4 * CONSTANTS.c * CONSTANTS.t_P * 40.0 / np.pi,
                        rtol=1e-12)

    def test_cutoff(self, spec40):
        assert analytic_autocorrelation(spec40, spec40.coherence_time) == 0.0
        assert analytic_autocorrelation(spec40, 1.7 * spec40.coherence_time) == 0.0

    def test_midpoint(self, spec40):
        assert_allclose(analytic_autocorrelation(spec40, spec40.coherence_time / 2),
                        PEAK_40 / 2, rtol=1e-12)

    def test_rejects_nan_lag(self, spec40):
        with pytest.raises(ValueError, match="NaN"):
            analytic_autocorrelation(spec40, [0.0, np.nan])
        assert analytic_autocorrelation(spec40, -np.inf) == 0.0

    def test_even_in_lag(self, spec40):
        lags = np.linspace(-2, 2, 41) * spec40.coherence_time
        vals = np.asarray(analytic_autocorrelation(spec40, lags))
        assert_allclose(vals, vals[::-1], atol=1e-12 * PEAK_40)

    def test_cosine_transform_recovers_psd(self, spec40):
        # the triangle and the spectrum must be an exact Fourier pair; this
        # is the central consistency check of the model
        tau = np.linspace(0.0, spec40.coherence_time, 8193)
        tri = np.asarray(analytic_autocorrelation(spec40, tau))
        f = np.linspace(0.0, 10 * spec40.f_c, 1000)
        kernel = np.cos(2 * np.pi * np.outer(f, tau))
        numeric = 2.0 * np.trapezoid(kernel * tri, tau, axis=1)
        analytic = np.asarray(analytic_psd(spec40, f))
        assert np.max(np.abs(numeric - analytic)) < 1e-3 * spec40.plateau


class TestTimeAveragedDisplacement:
    def test_ten_coherence_times(self, spec40):
        tau = 10 * spec40.coherence_time
        assert_allclose(time_averaged_ms_displacement(spec40, tau),
                        PEAK_40 / 10, rtol=1e-12)

    def test_one_second(self, spec40):
        assert_allclose(time_averaged_ms_displacement(spec40, 1.0),
                        2.1962448213872256e-40, rtol=1e-12)

    def test_inverse_time_scaling(self, spec40):
        v1 = time_averaged_ms_displacement(spec40, 0.01)
        v2 = time_averaged_ms_displacement(spec40, 0.02)
        assert_allclose(v2, v1 / 2, rtol=1e-15)

    def test_rejects_short_average(self, spec40):
        with pytest.raises(ValueError):
            time_averaged_ms_displacement(spec40, spec40.coherence_time)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_average(self, spec40, tau):
        # an infinite average was 0.0 and a NaN one NaN
        with pytest.raises(ValueError, match="finite"):
            time_averaged_ms_displacement(spec40, tau)
