"""Equilibria and segregation metrics for housing-then-school-choice markets."""
from .cdf import (CdfError, PiecewiseLinear, Power, SignalCdf, SingleKink,
                  Uniform, cdf_from_config, enumerate_single_kink, validate)
from .economy import (EconomyError, EconomyParams, WealthDist, binary_wealth,
                      check_assumption1, check_assumption2, example_economy,
                      price_bounds)
from .equilibrium import (AssumptionError, BracketFailureError,
                          ConvergenceError, Equilibrium,
                          InteriorViolationError, MultipleFixedPointsError,
                          NoFixedPointError, SolveError, solve, solve_policy,
                          verify_lemma1)
from .mechanisms import (CORE, CORE_ALGEBRA, AggregateFlows, CoreAlgebra,
                         DegenerateChoiceError, Mechanism, aggregate_flows,
                         delta_u, policy_delta_u, r_da_uniform, rejection)
from .segregation import (Comparison, NegativeMassError, SegregationProfile,
                          SignMismatchError, check_theorems, compare,
                          expansion_rate, neighborhood_profile, school_profile)

__version__ = "0.1.0"
