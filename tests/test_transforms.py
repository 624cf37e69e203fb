from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangleslopes import (
    CasePreconditionViolated,
    Infeasible,
    MismatchedWeights,
    UndefinedCase,
    WeightState,
)
from tangleslopes.transforms import common_scaling, glue_sum, rotate_reflect


def test_glue_sum_adds_c_and_n_inf():
    out = glue_sum(WeightState(1, 5, -3, n_inf=1), WeightState(1, 5, 2, n_inf=2))
    assert out == WeightState(1, 5, -1, n_inf=3)


def test_glue_sum_ors_has_zero():
    out = glue_sum(WeightState(1, 1, 1, has_zero=True), WeightState(1, 1, 2))
    assert out.has_zero


def test_glue_sum_requires_matching_ab():
    with pytest.raises(MismatchedWeights):
        glue_sum(WeightState(1, 5, -3), WeightState(2, 10, 2))


def test_common_scaling_same_direction():
    assert common_scaling(WeightState(1, 5, -3), WeightState(2, 10, 4)) == (2, 1)
    assert common_scaling(WeightState(2, 4, 1), WeightState(3, 6, 1)) == (3, 2)


def test_common_scaling_direction_mismatch():
    assert common_scaling(WeightState(1, 5, 0), WeightState(1, 4, 0)) is None


def test_common_scaling_is_unbounded():
    a, b = WeightState(5, 10, 1), WeightState(7, 14, 1)
    assert common_scaling(a, b) == (7, 5)


def test_case1_example():
    out = rotate_reflect(WeightState(1, 5, -1))
    assert out.case_id == 1
    assert out.state == WeightState(1, 0, -6)
    assert out.m == 1 and out.tau_prime == 2


def test_case1_positive_c():
    out = rotate_reflect(WeightState(1, 0, 6))
    assert out.state == WeightState(1, 5, 1)
    assert out.m == 1 and out.tau_prime == -2


def test_case2_example():
    out = rotate_reflect(WeightState(2, 3, 1, has_zero=True))
    assert out.case_id == 2
    assert out.state == WeightState(1, 0, 4, n_inf=1)
    assert out.m == 1 and out.tau_prime == -1


def test_case3_example():
    out = rotate_reflect(WeightState(3, 1, 2, n_inf=1))
    assert out.case_id == 3
    assert out.state == WeightState(3, 0, 2)
    assert out.m == 2 and out.tau_prime == Fraction(-4, 3)


def test_case4_example():
    out = rotate_reflect(WeightState(4, 1, 1, n_inf=2, has_zero=True))
    assert out.case_id == 4
    assert out.state == WeightState(3, 0, 1, n_inf=1)
    assert out.m == 1 and out.tau_prime == Fraction(-1, 2)


def test_case4_negative_c_keeps_positive_output():
    out = rotate_reflect(WeightState(4, 1, -1, n_inf=2, has_zero=True))
    assert out.state == WeightState(3, 0, 1, n_inf=1)
    assert out.tau_prime == Fraction(1, 2)


def test_outputs_never_carry_has_zero():
    for w in (
        WeightState(1, 5, -1),
        WeightState(2, 3, 1, has_zero=True),
        WeightState(3, 1, 2, n_inf=1),
        WeightState(4, 1, 1, n_inf=2, has_zero=True),
    ):
        assert not rotate_reflect(w).state.has_zero


def test_zero_c_is_undefined():
    with pytest.raises(UndefinedCase):
        rotate_reflect(WeightState(1, 5, 0))


def test_case3_precondition():
    with pytest.raises(CasePreconditionViolated):
        rotate_reflect(WeightState(3, 1, 2, n_inf=3))  # t >= a


def test_case4_precondition():
    with pytest.raises(CasePreconditionViolated):
        rotate_reflect(WeightState(4, 1, 2, n_inf=2, has_zero=True))  # t >= a - |c|


def test_infeasible_raises():
    with pytest.raises(Infeasible):
        rotate_reflect(WeightState(2, 1, -1))  # case 1 with |c| < a


# property suites -----------------------------------------------------------

positive = st.integers(min_value=1, max_value=400)
weight = st.integers(min_value=0, max_value=400)
signs = st.sampled_from((-1, 1))


@st.composite
def case1_states(draw):
    a = draw(positive)
    b = draw(weight)
    c = draw(signs) * draw(st.integers(min_value=a, max_value=a + 400))
    return WeightState(a, b, c)


@st.composite
def any_case_states(draw):
    """States accepted by some case with a feasible outcome."""
    which = draw(st.integers(min_value=1, max_value=4))
    b = draw(weight)
    sign = draw(signs)
    if which == 1:
        a = draw(positive)
        c = sign * draw(st.integers(min_value=a, max_value=a + 400))
        return WeightState(a, b, c)
    if which == 2:
        c = sign * draw(positive)
        a = draw(st.integers(min_value=abs(c), max_value=abs(c) + 400))
        return WeightState(a, b, c, has_zero=True)
    if which == 3:
        t = draw(positive)
        a = t + draw(positive)  # 0 < t < a
        c = sign * draw(st.integers(min_value=a - t, max_value=a - t + 400))
        return WeightState(a, b, c, n_inf=t)
    t = draw(positive)
    c = sign * draw(positive)
    a = abs(c) + t + draw(positive)  # 0 < t < a - |c|
    return WeightState(a, b, c, n_inf=t, has_zero=True)


@settings(max_examples=300, deadline=None)
@given(case1_states())
def test_case1_is_an_involution(w):
    once = rotate_reflect(w)
    assert once.case_id == 1
    twice = rotate_reflect(once.state)
    assert twice.state == w


@settings(max_examples=300, deadline=None)
@given(any_case_states(), st.integers(min_value=1, max_value=9))
def test_degree_one_homogeneity(w, k):
    base = rotate_reflect(w)
    scaled = rotate_reflect(w.scaled(k))
    assert scaled.case_id == base.case_id
    assert scaled.state == base.state.scaled(k)
    assert scaled.m == base.m * k
    assert scaled.tau_prime == base.tau_prime


@settings(max_examples=300, deadline=None)
@given(any_case_states())
def test_tau_prime_sign_and_bound(w):
    out = rotate_reflect(w)
    assert abs(out.tau_prime) <= 2
    if w.c > 0:
        assert out.tau_prime <= 0
    else:
        assert out.tau_prime >= 0
    assert out.tau_prime == Fraction(-2 if w.c > 0 else 2, 1) * Fraction(out.m, w.a)
