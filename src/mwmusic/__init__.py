"""MUSIC-type microwave imaging of small circular anomalies.

Generates first-order synthetic scattered-field S-parameter data for small
disks inside a disk-shaped region, images them with a subspace projection
map driven by a possibly wrong background wavenumber, and evaluates the
closed-form prediction of where and how the reconstructed peak shifts
under permeability, permittivity, or conductivity mismatch. The closed
form is the imaging kernel's norm of the plane-wave rows off the signal
row; the paper's Bessel-harmonic series is its Jacobi-Anger expansion.
"""

from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    MwMusicError,
    NumericalError,
    SingularityError,
    TruncationError,
)
from .forward import (
    ASYMPTOTIC,
    FULL_HANKEL,
    NOISELESS,
    add_noise,
    asymptotic_field_matrix,
    incident_field_matrix,
    scattering_matrix,
)
from .harness import ExperimentConfig, PRESETS, load_config, run_experiment
from .music import (
    DEFAULT_CEILING,
    EXACT_FIELD,
    PLANE_WAVE,
    ImageMap,
    ImagingGrid,
    extract_peaks,
    grid_for_roi,
    imaging_map,
    read_map_csv,
    signal_subspace_dim,
    steering_evaluators,
    svd_leading,
    write_map_csv,
    write_map_pgm,
)
from .scene import (
    BACKGROUND_PERMEABILITY,
    VACUUM_PERMITTIVITY,
    Anomaly,
    AntennaArray,
    Medium,
    Scene,
    contrast,
    uniform_circular_array,
    validate_scene,
    wavenumber,
)
from .specfun import Q_MAX, hankel2_0, jacobi_anger_truncation
from .theory import (
    MISMATCH_KINDS,
    c_identity_check,
    compare_maps,
    mismatched_wavenumber,
    predicted_peak,
)

__version__ = "0.1.0"
