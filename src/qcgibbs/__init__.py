"""qcgibbs: quantum vs classical canonical ensembles on concrete model families.

Partition sums, mean energies, and Boltzmann-Gibbs-Shannon entropies for
particle-in-a-box and radial power-law potentials (plus tabulated 1-D
profiles), with systematic grid verification of the semiclassical domination
inequality, the high-temperature and small-h limits, entropy monotonicity,
and the fixed-temperature energy-entropy game over unnormalized weights.

The game's names (ascend, structured_det, GameState, ...) are served from
qcgibbs.game, which loads on the first use of one of them, so importing the
package, or running any command but `game`, does not load it.
"""

import os as _os
import sys as _sys

# OpenBLAS reads its starting thread count once, when numpy loads it, and at
# its default of every core the second thread spins about 0.1 s after the
# import, on CPU that no one-thread solve asks for. Unless the caller has
# loaded numpy already or named a count, numpy loads at one thread; the
# solves that want more raise the count themselves (lapack.blas_threads), and
# the environment is left as the caller had it.
if "numpy" not in _sys.modules and not any(
        name in _os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .errors import (
    AccuracyError,
    ContractError,
    ConvergenceError,
    IntegrabilityError,
    QCGibbsError,
    ResourceError,
    TailModelError,
    TruncationError,
)
from .potential import (
    Potential,
    PotentialKind,
    ScalingExponents,
    box,
    homogeneous,
    load_tabulated_csv,
    save_tabulated_csv,
    scaling_exponents,
    tabulated,
    volume,
)
from .spectrum import (
    Spectrum,
    SpectrumSource,
    fd_eigenvalues,
    oscillator_basis_eigenvalues,
    oscillator_spectrum,
    rescale,
    solve_box,
    solve_fd_1d,
    solve_oscillator_basis,
    solve_sine_basis,
    spectrum_from_csv,
    spectrum_text,
    wedge_spectrum,
)
from .ensemble import (
    ThermoPoint,
    entropy_classical,
    entropy_quantum,
    log_z_quantum,
    mean_energy_classical,
    mean_energy_quantum,
    psi,
    thermo_point,
    thermo_table_text,
    z_classical,
    z_quantum,
)
from .models import (
    ModelFamily,
    box_family,
    homogeneous_family,
    tabulated_family,
)
from .verify import (
    ClaimId,
    Status,
    VerificationReport,
    check_c11,
    check_c12,
    check_c13,
    check_c41_and_props,
    check_t31,
    check_t41,
    check_wehrl,
    reports_to_json,
    run_claims,
)

__version__ = "0.1.0"

# the game's names, served by __getattr__ below
_GAME_NAMES = frozenset({
    "AscentResult",
    "GameState",
    "ascend",
    "compromise",
    "gradient",
    "hessian",
    "principal_minor_signs",
    "stationary_point",
    "stationary_state",
    "structured_det",
})


def __getattr__(name: str):
    if name in _GAME_NAMES:
        from . import game

        return getattr(game, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
