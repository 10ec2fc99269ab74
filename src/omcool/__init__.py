"""omcool: steady-state cooling analysis for linearized optomechanical
networks, with analytical dark-mode detection and breaking conditions."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigError,
    ConvergenceError,
    OmcoolError,
    ParseError,
    SolverError,
    UnstableSystemError,
)
from .model import (  # noqa: F401
    CavityMode,
    CouplingEdge,
    MechanicalMode,
    SystemConfig,
    build_drift_matrix,
    build_noise_matrix,
    compile_config,
    solve_steady_amplitudes,
    validate_config,
)
from .lyapunov import (  # noqa: F401
    integrate_covariance,
    phonon_numbers,
    solve_lyapunov,
    stability,
)
from .darkmode import (  # noqa: F401
    chain_modes,
    dark_mode_condition,
    hybridize,
)
from .atomic import four_level_eigensystem, three_level_eigensystem  # noqa: F401
