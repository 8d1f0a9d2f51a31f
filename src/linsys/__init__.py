"""linsys: linear interacting particle systems on Z^d.

Event-driven simulation of mass configurations updated by random
branching kernels (the binary contact path process and its bounded
finite-range generalizations), together with the numerical machinery to
verify their limit theory at desk scale: martingale normalization,
Green-function survival criterion, density CLT, replica-overlap decay,
Feynman-Kac two-point representations and the limiting covariance.
"""

from .kernel import (Kernel, KernelError, KernelMoments, ValidationReport,
                     kernel_moments, make_bcpp_kernel, validate_kernel)
from .engine import (EnsembleSummary, ProcessState, init_state, observables,
                     run_ensemble)
from .walk import (GreenTable, WalkSpec, bcpp_critical_lambda, green,
                   h_of_x, return_probability, survival_criterion,
                   walk_from_kernel)
from .feynman_kac import (GammaTable, OracleSolution, fk3_estimate,
                          fk3_limit_estimate, oracle_two_point,
                          relative_motion_check)
from .stats import (CheckResult, clt_check, covariance_limit_check,
                    default_battery, martingale_check, overlap_decay_check,
                    second_moment_boundedness_check)

__version__ = "0.1.0"
