"""Pseudo-spectral tools for velocity-damped incompressible MHD in 2D.

The package simulates the perturbation of a unit background magnetic
field along x1 on a periodic box and measures everything the linear
theory predicts about it: exact per-mode propagators, normal-mode
decompositions with their degenerate-wavenumber limits, anisotropic
decay rates of the four components, energy functionals with their sharp
cross-term constants, and small-data stability runs.
"""

from .errors import (
    AuditInapplicableError,
    AuditResolutionError,
    BlowUpError,
    ConfigError,
    DiagnosticIntegrityError,
    FitDomainError,
    IncompleteHistoryError,
    QuadratureError,
    SingularBasisError,
    SnapshotFormatError,
)
from .spectral import (
    COMPONENTS,
    SpectralGrid,
    SpectralState,
    from_potentials,
    hermitian_defect,
    divergence_defect,
    l2_norm,
    load_state,
    make_grid,
    random_div_free_state,
    save_state,
    sobolev_norm,
    to_physical,
)
from .modes import (
    AuditRow,
    ModeSystem,
    anisotropic_decompose,
    classify_region,
    divided_difference,
    eigenvalues,
    mode_system,
    region_masks,
    scan_lemma_bounds,
    sqrt_discriminant,
)
from .quadrature import refine_integral
from .propagator import (
    DecayCurve,
    ProfileData,
    build_profile,
    exp_block_entries,
    grid_phi_entries,
    grid_semigroup_entries,
    linear_decay_curve,
    phi_block_entries,
    propagator_block,
    sigma_cutoff,
)
from .solver import (
    SolverConfig,
    Trajectory,
    advective_dt_bound,
    initial_state,
    run,
)
from .diagnostics import (
    CSV_COLUMNS,
    CumulativeRecord,
    DecayFit,
    DiagnosticsRecord,
    EnergyAudit,
    InterpolationAudit,
    anisotropic_norm,
    cumulative,
    em_inequality_audit,
    fit_decay,
    gaussian_divfree_family,
    instantaneous,
    interpolation_audit,
    physical_l1_norm,
    single_mode_state,
    xm_embedding_scan,
)
from .config import load_config, parse_config, typed_config

__version__ = "0.1.0"
