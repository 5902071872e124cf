"""Minimum-principle formulation of viscous flow on periodic grids.

The package evaluates and minimizes a nonnegative space-time functional
whose zeros are exactly the trajectories of the compressible (barotropic)
and incompressible viscous flow equations, built from a convex dissipation
potential, its Fenchel conjugate, and the canonical symplectic pairing.
"""

from .balance import (BarotropicPowerEos, FluidState, IncompressibleEos, Momentum,
                      energy_residual, head_loss, mass_residual, material_derivative,
                      momentum_reduction_gap, pi_i_residual, raw_momentum_residual)
from .dissipation import (Viscosity, apply_k, fenchel_gap, phi, phi_star, sigma_i,
                          solve_k, w_density)
from .fields import (Grid2P, GridMismatchError, ScalarField, SymTensorField,
                     Tensor33Field, VectorField, curl, div_tensor, div_vector,
                     grad_scalar, grad_vector, inner, integrate, laplacian, sym_grad)
from .gravitation import Gravitation, eval_coriolis_vector, eval_gravity, gravitation_force
from .oracle import (CaseSpec, reference_path, step_compressible, step_incompressible,
                     taylor_green_analytic)
from .sben import (MinimizeConfig, Path, SbenReport, evaluate_path, gradient_pi,
                   incompressible_path, leray_project, minimize, slave_density)
from .symplectic import (InfinitePolarValue, PhaseDecomposition, PhasePoint,
                         constitutive_gap, decompose, omega, symplectic_polar)

__version__ = "0.1.0"
