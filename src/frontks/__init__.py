"""Pseudospectral solver suite for a quasi-steady flame-front equation.

The front perturbation obeys a fully nonlinear pseudodifferential
evolution law that is diagonal per Fourier mode; this package evaluates
the operator multipliers in closed form, integrates the equation (and its
Kuramoto-Sivashinsky limit) with an exponential Runge-Kutta scheme, and
re-derives the underlying free-boundary profiles as a numerical audit.

The function ``evolve`` shadows its submodule: ``import frontks.evolve as ev``
binds the function, so reach the module's names with
``from frontks.evolve import Etdrk4, MATRIX_MAX_MODES``.
"""

from .grid import (
    SpectralField,
    SpectralGrid,
    cosine_field,
    dealiased_square,
    differentiate,
    inverse_transform,
    make_grid,
    random_zero_mean_field,
    transform,
)
from .symbols import (
    RescaledSymbolTable,
    SymbolTable,
    alpha_critical,
    build_rescaled_symbols,
    build_symbols,
    verify_symbol_bounds,
)
from .evolve import (
    EquationDescriptor,
    Etdrk4,
    SolverConfig,
    Trajectory,
    evolve,
    make_front_equation,
    make_ks_equation,
    make_rescaled_equation,
    mean_mode_ode_check,
)

__version__ = "0.1.0"
