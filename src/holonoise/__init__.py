"""Planckian transverse position noise for Michelson interferometers.

Tools for the noncommutative position algebra that predicts the noise, the
closed-form spectral model, time-series synthesis, simulation of correlated
detector pairs, and the cross-spectral detection pipeline.
"""

__version__ = "0.6.2"

from .algebra import (
    CONSTANTS,
    PhysicalConstants,
    angular_uncertainty_bound,
    boost_matrix,
    commutator_tensor,
    covariance_residual,
    dof_counts,
    heisenberg_variance_bound,
    levi_civita4,
    rest_frame_commutator,
    scale_estimates,
    uncertainty_bound,
)
from .analysis import (
    CorrelationResult,
    DetectionResult,
    SpectrumEstimate,
    WelchParams,
    band_averages,
    coherence,
    coherence_from_csd,
    cross_correlation,
    detection_significance,
    welch_csd,
    welch_psd,
)
from .errors import ConfigurationError
from .interferometer import (
    DetectorConfig,
    DualDetectorConfig,
    default_shot_asd,
    simulate_detector,
    simulate_dual,
    stream_dual,
)
from .noise_model import (
    HolographicSpectrum,
    analytic_autocorrelation,
    analytic_psd,
    envelope_high_f,
    one_sided_psd,
    time_averaged_ms_displacement,
)
from .pipeline import RunConfig, RunResult, run_pipeline
from .synthesis import (
    SynthesisConfig,
    TimeSeries,
    channel_seed,
    synthesize,
    synthesize_boxcar,
    synthesize_spectral,
    white_noise_psd,
)
