"""Relative spectral functions and zeta-regularized thermodynamics for
Schroedinger operators with one and two point interactions in flat 3-space."""

from .models import (BoundStateRegimeError, OnePointModel, SpectralMeasure,
                     TwoPointModel, one_point_spectral_measure,
                     spectral_measure, two_point_interaction,
                     two_point_interaction_ratio, two_point_spectral_measure)
from .quad import (IntegrandError, NonConvergenceError, QuadratureResult,
                   QuadratureSpec, integrate_to_infinity)
from .specfun import erfc_scaled
from .thermo import (ForceEstimate, PartitionReport, ThermalState,
                     casimir_force, log_eta, one_point_log_eta_closed,
                     one_point_log_z_closed, one_point_partition,
                     relative_partition, two_point_log_eta,
                     two_point_partition)
from .zetareg import (ContinuationRequiredError, LaurentData,
                      ProbeInconsistencyError, ZetaPoleError,
                      numeric_laurent_probe, one_point_heat_trace_closed,
                      one_point_laurent, one_point_zeta_closed,
                      relative_heat_trace, relative_zeta_in_strip,
                      two_point_heat_trace, two_point_interaction_energy,
                      two_point_laurent, two_point_laurent_parts)

__version__ = "0.1.0"
