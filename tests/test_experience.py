import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgv.experience import (ExperienceMode, ExperienceTuple, ExperienceVector,
                            FokCounters, clamp01, fok_dual, generate_experience)


def test_vector_validates_ranges():
    ExperienceVector(0.0)
    ExperienceVector(1.0, 0.5)
    with pytest.raises(ValueError):
        ExperienceVector(1.2)
    with pytest.raises(ValueError):
        ExperienceVector(0.5, -0.1)


def test_fok_magnitude_is_l1():
    assert FokCounters(0.3, 0.2).magnitude == pytest.approx(0.5)
    assert FokCounters().magnitude == 0.0
    with pytest.raises(ValueError):
        FokCounters(-0.1, 0.0)


@given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10), st.floats(0, 10))
def test_fok_dual_accumulates_additively(p0, m0, dp, dm):
    base = FokCounters(p0, m0)
    out = fok_dual(dp, dm, base)
    assert out.plus == pytest.approx(p0 + dp)
    assert out.minus == pytest.approx(m0 + dm)
    assert out.magnitude == pytest.approx(out.plus + out.minus)
    # the input counters are left untouched
    assert base.plus == p0 and base.minus == m0


def test_fok_dual_defaults_to_zero_counters():
    out = fok_dual(0.4, 0.1)
    assert (out.plus, out.minus) == (0.4, 0.1)


def test_fok_dual_rejects_negative_evidence():
    with pytest.raises(ValueError):
        fok_dual(-0.1, 0.0)


def test_generate_experience_feel_certain():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = generate_experience(0.3, 0.9, feel_prob=1.0, uniform=rng.random())
        assert v.mode is ExperienceMode.FEEL
        assert v.primary == 0.3


def test_generate_experience_assess_certain():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = generate_experience(0.3, 0.9, feel_prob=0.0, uniform=rng.random())
        assert v.mode is ExperienceMode.ASSESS
        assert v.primary == 0.9


def test_generate_experience_falls_back_to_feel_without_assessment():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = generate_experience(0.3, None, feel_prob=0.0, uniform=rng.random())
        assert v.mode is ExperienceMode.FEEL
        assert v.primary == 0.3


def test_generate_experience_feels_exactly_when_the_uniform_is_below_feel_prob():
    # The caller's one uniform per call picks the channel, whichever fires.
    for u in (0.0, 0.3, np.nextafter(0.5, 0.0), 0.5, 0.7, np.nextafter(1.0, 0.0)):
        v = generate_experience(0.1, 0.9, feel_prob=0.5, uniform=float(u))
        assert v.mode is (ExperienceMode.FEEL if u < 0.5 else ExperienceMode.ASSESS)
        assert v.primary == (0.1 if u < 0.5 else 0.9)


def test_generate_experience_clamps_out_of_range_signal():
    assert generate_experience(1.7, None, 1.0, 0.5).primary == 1.0
    assert generate_experience(-0.4, None, 1.0, 0.5).primary == 0.0


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_clamp01_bounds(x):
    assert 0.0 <= clamp01(x) <= 1.0


def test_generate_experience_rejects_bad_feel_prob():
    with pytest.raises(ValueError):
        generate_experience(0.5, None, 1.5, 0.0)


def test_tuple_validation():
    with pytest.raises(ValueError):
        ExperienceTuple(cycle=-1, experience=ExperienceVector(0.5),
                        strategy_id="s", resources=1.0, outcome_quality=0.0)
    with pytest.raises(ValueError):
        ExperienceTuple(cycle=0, experience=ExperienceVector(0.5),
                        strategy_id="s", resources=1.0, outcome_quality=1.5)
