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
    Model,
    build_drift_matrix,
    build_noise_matrix,
    solve_steady_amplitudes,
)
from .config_io import config_from_dict, parse_config  # noqa: F401
from .lyapunov import (  # noqa: F401
    integrate_covariance,
    phonon_numbers,
    solve_lyapunov,
    stability,
)
from .darkmode import dark_mode_condition  # noqa: F401
from .atomic import level_eigensystem  # noqa: F401
