"""Every public entry that takes a real number holds it to the one rule,
errors._check_real, and then to its own domain.

A value that is not a real number, or an int beyond float range, raises
InvalidConfig wherever it goes.  A NaN or infinite setting, phase, r, pattern
height or theta raises DomainError; eta and v keep each entry's own range
class.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from singlet_lhv import (
    DetectorSide,
    DomainError,
    HiddenVariable,
    InfeasibleParameters,
    InvalidConfig,
    ModelParams,
    PatternKind,
    RunConfig,
    bell_generalized_slack,
    chsh_bound,
    classify_region,
    correlation,
    is_feasible,
    joint_table,
    line_g,
    max_visibility,
    measure,
    measure_many,
    nonideal_probs,
    qm_probs,
    reduce_theta,
    solve_params,
    unsymmetrized_marginals,
)
from singlet_lhv.quadrature import outcome_probabilities

SIN = PatternKind.SYMMETRIZED_SINUSOIDAL
ONE = DetectorSide.ONE
P = ModelParams(0.7, 0.8, SIN)
PHI, R = np.array([1.0, 4.0]), np.array([0.1, 0.6])
ANGLES = (0.1, 0.2, 0.3)

# (entry and argument, call with x in that argument, the class a NaN or
# infinite x raises, whether the argument must be a scalar).
ROWS = [
    # Settings.
    ("RunConfig-angle_1",
     lambda x: RunConfig(params=P, angle_1=x, angle_2=0.0, n_pairs=10, seed=1), DomainError, True),
    ("RunConfig-angle_2",
     lambda x: RunConfig(params=P, angle_1=0.0, angle_2=x, n_pairs=10, seed=1), DomainError, True),
    ("outcome_probabilities-angle_1", lambda x: outcome_probabilities(P, x, 0.0), DomainError, True),
    ("outcome_probabilities-angle_2", lambda x: outcome_probabilities(P, 0.0, x), DomainError, True),
    ("measure-angle", lambda x: measure(HiddenVariable(1.0, 0.1), x, ONE, P), DomainError, True),
    ("measure_many-angle", lambda x: measure_many(PHI, R, x, ONE, P), DomainError, True),
    # Phases and r; measure_many takes arrays of them, and holds r to
    # [0, 1) as HiddenVariable does.
    ("HiddenVariable-phi", lambda x: HiddenVariable(x, 0.1), DomainError, True),
    ("HiddenVariable-r", lambda x: HiddenVariable(1.0, x), DomainError, True),
    ("measure_many-phi", lambda x: measure_many(x, 0.1, 0.4, ONE, P), DomainError, False),
    ("measure_many-r", lambda x: measure_many(1.0, x, 0.4, ONE, P), DomainError, False),
    # Pattern heights.
    ("unsymmetrized_marginals-a", lambda x: unsymmetrized_marginals(x, 0.2), DomainError, True),
    ("unsymmetrized_marginals-b", lambda x: unsymmetrized_marginals(0.2, x), DomainError, True),
    # eta and v.  is_feasible answers False for a real value outside the
    # region, so a non-finite value has no cell there.
    ("ModelParams-eta", lambda x: ModelParams(x, 0.5, SIN), InfeasibleParameters, True),
    ("ModelParams-v", lambda x: ModelParams(0.5, x, SIN), InfeasibleParameters, True),
    ("solve_params-eta", lambda x: solve_params(x, 0.5, SIN), InfeasibleParameters, True),
    ("solve_params-v", lambda x: solve_params(0.5, x, SIN), InfeasibleParameters, True),
    ("is_feasible-eta", lambda x: is_feasible(x, 0.5, SIN), None, True),
    ("is_feasible-v", lambda x: is_feasible(0.5, x, SIN), None, True),
    ("chsh_bound-eta", chsh_bound, DomainError, True),
    ("max_visibility-eta", lambda x: max_visibility(x, SIN), DomainError, True),
    ("classify_region-eta", lambda x: classify_region(x, 0.5), DomainError, True),
    ("classify_region-v", lambda x: classify_region(0.5, x), DomainError, True),
    ("nonideal_probs-eta", lambda x: nonideal_probs(1.0, x, 0.5, SIN), DomainError, True),
    ("nonideal_probs-v", lambda x: nonideal_probs(1.0, 0.5, x, SIN), DomainError, True),
    ("correlation-v", lambda x: correlation(1.0, x, SIN), DomainError, True),
    ("bell_generalized_slack-eta",
     lambda x: bell_generalized_slack(x, 1.0, *ANGLES), DomainError, True),
    ("bell_generalized_slack-v",
     lambda x: bell_generalized_slack(0.9, x, *ANGLES), DomainError, True),
    # theta; only joint_table's table is for one angle.
    ("correlation-theta", lambda x: correlation(x, 0.5, SIN), DomainError, False),
    ("nonideal_probs-theta", lambda x: nonideal_probs(x, 0.5, 0.5, SIN), DomainError, False),
    ("joint_table-theta", lambda x: joint_table(P, x), DomainError, True),
    ("qm_probs-theta", qm_probs, DomainError, True),
    ("reduce_theta-theta", reduce_theta, DomainError, False),
    ("line_g-theta", line_g, DomainError, False),
    ("bell_generalized_slack-theta",
     lambda x: bell_generalized_slack(0.9, 1.0, x, 0.2, 0.3), DomainError, False),
]

NOT_REAL = [
    ("bool", True), ("np.bool_", np.bool_(False)), ("Fraction", Fraction(1, 3)),
    ("complex", complex(0.3, 0.0)), ("str", "0.3"), ("None", None),
    ("int-beyond-float", 10**400),
]
NOT_FINITE = [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]


def _cells():
    for row, call, domain_error, scalar in ROWS:
        cells = [(col, x, InvalidConfig) for col, x in NOT_REAL]
        if scalar:
            cells.append(("vector", np.array([0.1, 0.2]), InvalidConfig))
        if domain_error is not None:
            cells += [(col, x, domain_error) for col, x in NOT_FINITE]
        for col, x, error in cells:
            yield pytest.param(call, x, error, id=f"{row}-{col}")


@pytest.mark.parametrize("call, value, error", _cells())
def test_rejection_matrix(call, value, error):
    with pytest.raises(error) as caught:
        call(value)
    assert type(caught.value) is error


def test_kind_must_be_a_pattern_kind():
    for kind in ("sin", None, 1):
        for call in (ModelParams, solve_params, is_feasible):
            with pytest.raises(InvalidConfig):
                call(0.7, 0.8, kind)
        with pytest.raises(InvalidConfig):
            max_visibility(0.7, kind)
        # A string kind once gave the sinusoidal shape.
        with pytest.raises(InvalidConfig):
            correlation(1.0, 0.5, kind)
        with pytest.raises(InvalidConfig):
            nonideal_probs(1.0, 0.7, 0.8, kind)


def test_joint_table_params_must_be_model_params():
    # None once raised AttributeError.
    for params in (None, SIN, "sin"):
        with pytest.raises(InvalidConfig):
            joint_table(params, 0.3)
