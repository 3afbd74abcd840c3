"""geodrive: noise-robust population-transfer pulses from space-curve geometry.

Pipeline: a closed 3D curve with fixed endpoint tangents -> arc-length form
-> curvature/torsion -> driving schedule (Omega, Delta, phi) -> simulated
verification, with SRT, STIRAP and constant-pulse baselines for comparison.
"""

from .baselines import (SrtParams, StaParams, StirapParams, srt_schedule,
                        sta_schedule, stirap_schedule)
from .curves import (ArcLengthCurve, BoundaryReport, CurveGeometry,
                     DegenerateCurveError, ParametricCurve,
                     check_boundary_conditions, curvature_torsion,
                     curve_from_expressions, curve_from_table,
                     read_curve_table, reference_curve,
                     reparametrize_by_arclength)
from .invariants import (InconsistentAnglesError, InvariantAngles,
                         angles_from_schedule, evolution_operator,
                         invariant_eigenstates, perturbative_fidelity)
from .operators import IntegrationFailure, K_X, K_Y, K_Z, propagate_state
from .schedules import (ControlSchedule, TwoToneSchedule, noise_term,
                        reconstruct_curve, roundtrip_deviation, synthesize)
from .simulate import (NoiseModel, SimulationResult,
                       infidelity_scaling_exponent, run_lindblad,
                       run_schrodinger, sweep_delta)

__version__ = "0.1.0"
