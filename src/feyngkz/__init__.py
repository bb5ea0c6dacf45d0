"""Symbolic-numeric evaluation of Euler-Mellin integrals as canonical
A-hypergeometric series, with a quadrature oracle for validation."""

from .constants import SolutionBundle, deformation_limit_probe, gamma_constant
from .errors import (DeformationFailed, DimensionMismatch, DivergentArgument,
                     FeynGKZError, NonConvergent, NonFiniteValue,
                     NonPositiveCoefficient, PoleError, SingularM,
                     UnassignedParameter, UnderdeterminedPair)
from .gammafn import GammaFactor, log_gamma_signed
from .gkz import (AMatrix, FakeExponent, StandardPair, deform, facet_walk,
                  fake_exponents, initial_ideal, kernel_lattice,
                  standard_kappa, standard_pairs, toric_ideal, toric_matrix)
from .graphs import GraphSpec, Propagator, prefactor, symanzik
from .kpoly import KPoly
from .params import ParamLinear
from .pipeline import ProblemSpec, ResultReport, run
from .pochhammer import PochhammerProduct, poch_numeric
from .quadrature import QuadratureResult, QuadratureSpec, quadrature
from .series import CanonicalSeries, HypergeometricForm, term_coefficient

from .fixtures import fixtures

__version__ = "0.1.0"
