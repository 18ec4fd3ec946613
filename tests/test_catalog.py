"""Catalog entries: values, metadata, and rejection of bad parameters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varelax.catalog import (
    nagumo_function,
    state_function,
    time_factor,
    velocity_function,
)
from varelax.errors import OutOfDomainError, SchemaError
from varelax.families import IntegrandFamily


class TestVelocityFunctions:
    def test_power_p(self):
        f = velocity_function("power_p", {"p": 3.0})
        assert f(-2.0) == 8.0

    def test_power_p_requires_superlinear(self):
        with pytest.raises(SchemaError):
            velocity_function("power_p", {"p": 1.0})

    def test_double_well_zeros_at_unit_speed(self):
        f = velocity_function("double_well")
        np.testing.assert_array_equal(f(np.array([-1.0, 1.0])), [0.0, 0.0])
        assert f(0.0) == 1.0

    def test_linear_minus_sqrt_nonnegative(self):
        f = velocity_function("linear_minus_sqrt")
        xs = np.linspace(-50, 50, 301)
        assert np.all(f(xs) >= 0.0)
        assert f(0.0) == 0.0

    def test_table_interpolates_and_guards_domain(self):
        f = velocity_function("table", {"grid": [0, 1, 2], "values": [1, 0, 4]})
        assert f(0.5) == 0.5
        with pytest.raises(OutOfDomainError):
            f(2.5)

    def test_unknown_name(self):
        with pytest.raises(SchemaError):
            velocity_function("cubic_spline")

    def test_unknown_param(self):
        with pytest.raises(SchemaError):
            velocity_function("abs", {"scale": 2.0})


class TestStateAndTimeFunctions:
    def test_zero(self):
        g = state_function("zero")
        np.testing.assert_array_equal(g(np.array([1.0, -3.0])), [0.0, 0.0])

    def test_concave_quadratic_sign(self):
        g = state_function("concave_quadratic", {"kappa": 0.25})
        assert g(2.0) == -1.0
        with pytest.raises(SchemaError):
            state_function("concave_quadratic", {"kappa": -1.0})

    def test_time_factor_rates_match_a_central_difference(self):
        t, h = np.linspace(0.0, 2.0, 17), 1e-5
        for name, params in [
            ("const", {"value": 3.0}),
            ("affine_t", {"slope": -2.0, "offset": 1.0}),
            ("sine", {"amplitude": 0.5, "frequency": 4.0}),
        ]:
            factor = time_factor(name, params)
            difference = (factor(t + h) - factor(t - h)) / (2.0 * h)
            # the sine's difference is off by kappa * omega**3 * h**2 / 6 at most
            np.testing.assert_allclose(factor.rate(t), difference, rtol=0.0, atol=1e-9)

    def test_const_is_constant(self):
        c = time_factor("const", {"value": 3.0})
        assert c.constant
        assert float(c(0.7)) == 3.0


class TestNagumoFunctions:
    def test_power_probe_passes(self):
        theta = nagumo_function("power_p", {"p": 2.0})
        assert theta(-3.0) == 9.0

    def test_exp_minus_linear(self):
        theta = nagumo_function("exp_minus_linear")
        assert float(theta(1.0)) == pytest.approx(np.e - 2.0, rel=1e-12)

    def test_sublinear_power_rejected(self):
        with pytest.raises(SchemaError):
            nagumo_function("power_p", {"p": 0.5})


# Catalog compositions for ``IntegrandFamily.table``, one shape kind per
# family.  "const" is flagged autonomous; the zero-slope "affine_t" is
# constant in value but not flagged.
SHAPES = {
    velocity_function: (
        ("power_p", {"p": 2.0}),
        ("double_well", None),
        ("abs", None),
        ("affine", {"slope": 0.5, "offset": -1.0}),
    ),
    state_function: (
        ("zero", None),
        ("concave_quadratic", {"kappa": 0.5}),
        ("affine", {"slope": -0.7, "offset": 0.1}),
    ),
}
FACTORS = (
    ("const", {"value": 0.3}),
    ("affine_t", {"slope": 0.0, "offset": 0.3}),
    ("affine_t", {"slope": 2.0, "offset": -0.5}),
    ("sine", {"amplitude": 0.5, "frequency": 3.0}),
)


@st.composite
def families(draw):
    kind = draw(st.sampled_from(list(SHAPES)))
    base = kind(*draw(st.sampled_from(SHAPES[kind])))
    if not draw(st.booleans()):
        return IntegrandFamily(base=base)
    return IntegrandFamily(
        base=base,
        modulation=kind(*draw(st.sampled_from(SHAPES[kind]))),
        factor=time_factor(*draw(st.sampled_from(FACTORS))),
    )


# a few shared times make repeats likely
TIMES = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 2.0)), min_size=1, max_size=8
)


class TestIntegrandFamily:
    @settings(max_examples=60, deadline=None)
    @given(families(), TIMES)
    def test_table_rows_are_the_values_of_their_times(self, fam, times):
        y = np.linspace(-2.0, 2.0, 17)
        values, rows = fam.table(np.array(times), y)
        assert rows.shape == (len(times),)
        assert sorted(set(rows.tolist())) == list(range(len(values)))
        if fam.autonomous:
            assert len(values) == 1
        else:  # one row per distinct time
            for t, row in zip(times, rows):
                assert all((row == other) == (t == s) for s, other in zip(times, rows))
        for t, row in zip(times, rows):
            want = fam.value(t, y)
            assert values[row].dtype == want.dtype and values[row].tobytes() == want.tobytes()

    def test_composition(self):
        fam = IntegrandFamily(
            base=velocity_function("double_well"),
            modulation=velocity_function("power_p", {"p": 2.0}),
            factor=time_factor("sine", {"amplitude": 0.5, "frequency": 1.0}),
        )
        t, xi = 0.3, 1.5
        expected = (xi**2 - 1) ** 2 + 0.5 * np.sin(0.3) * xi**2
        assert float(fam.value(t, xi)) == pytest.approx(expected, rel=1e-15)
        assert not fam.autonomous

    def test_default_factor_is_unit(self):
        fam = IntegrandFamily(
            base=velocity_function("abs"),
            modulation=velocity_function("power_p", {"p": 2.0}),
        )
        assert float(fam.value(0.9, 2.0)) == 6.0
        assert fam.autonomous

    def test_time_rate_is_exactly_zero_when_autonomous(self):
        xi = np.array([-2.0, -0.5, 0.0, 1.5])
        families = [
            IntegrandFamily(base=velocity_function("double_well")),
            IntegrandFamily(
                base=velocity_function("abs"),
                modulation=velocity_function("affine", {"slope": -1.0, "offset": -1.0}),
                factor=time_factor("const", {"value": 2.0}),
            ),
        ]
        for fam in families:
            assert fam.autonomous
            rate = fam.time_rate(np.array([[0.0], [0.7]]), xi)
            assert rate.shape == (2, 4)
            assert rate.tobytes() == np.zeros((2, 4)).tobytes()  # no -0.0

    def test_time_rate_is_factor_rate_times_modulation(self):
        fam = IntegrandFamily(
            base=velocity_function("double_well"),
            modulation=velocity_function("power_p", {"p": 2.0}),
            factor=time_factor("sine", {"amplitude": 0.5, "frequency": 1.0}),
        )
        assert float(fam.time_rate(0.3, 1.5)) == pytest.approx(0.5 * np.cos(0.3) * 2.25, rel=1e-15)

    def test_factor_without_modulation_rejected(self):
        with pytest.raises(SchemaError):
            IntegrandFamily(
                base=velocity_function("abs"),
                factor=time_factor("const", {"value": 1.0}),
            )
