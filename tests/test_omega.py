import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegance import (
    IDENTITY_CONTROL,
    OmegaControl,
    OmegaMask,
    OmegaSchedule,
    closed_form_scalar_trajectory,
    ddim_step,
    euler_step,
    flow_step,
    karras_sigmas,
    linear_beta_ladder,
    mask_from_grayscale,
    mask_to_grayscale,
    modified_snr_ddim,
    omega_schedule,
    propagate_coefficients_ddim,
    rescale,
    standard_normal,
)
from omegance.omega import SCHEDULE_PRESETS


class TestRescale:
    def test_midpoint_is_exactly_one(self):
        assert rescale(0.0) == 1.0

    def test_saturation(self):
        assert rescale(1e8) == pytest.approx(1.05, abs=1e-15)
        assert rescale(-1e8) == pytest.approx(0.95, abs=1e-15)
        # far enough out that exp() would overflow without the guard
        assert rescale(-1e5) == 0.95

    def test_frozen_value_at_ten(self):
        # direct evaluation of lower + (upper - lower) / (1 + exp(-steepness * varpi))
        expected = 0.95 + (1.05 - 0.95) / (1.0 + math.exp(-1.0))
        assert rescale(10.0) == pytest.approx(expected, rel=1e-15)
        assert rescale(10.0) == pytest.approx(1.0231058578630006, rel=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rescale(float("nan"))

    @pytest.mark.parametrize("varpi", [True, False])
    def test_rejects_a_bool(self, varpi):
        with pytest.raises(ValueError, match="varpi must be a finite number"):
            rescale(varpi)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steepness": 0.0},
            {"steepness": -1.0},
            {"lower": 0.0},
            {"lower": 1.1, "upper": 1.0},
            {"lower": float("nan")},
            # a bool is no number, as at every omega entry point
            {"steepness": True},
            {"upper": True},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            rescale(0.0, **kwargs)

    @given(
        steepness=st.floats(0.01, 1.0),
        lower=st.floats(0.5, 0.99),
        width=st.floats(0.01, 0.5),
    )
    @settings(deadline=None)
    def test_monotone_and_bounded(self, steepness, lower, width):
        upper = lower + width
        grid = np.linspace(-10.0, 10.0, 1000)
        values = np.array([rescale(float(v), steepness=steepness, lower=lower, upper=upper) for v in grid])
        assert np.all(np.diff(values) > 0.0)
        assert np.all(values > lower)
        assert np.all(values < upper)


class TestMask:
    def test_uniform_black_maps_to_low(self):
        mask = mask_from_grayscale(np.zeros((4, 4)), 2, 0.9, 1.1)
        assert np.all(mask.grid == 0.9)
        assert mask.shape == (2, 2)

    def test_uniform_white_maps_to_high(self):
        mask = mask_from_grayscale(np.full((4, 4), 255), 2, 0.9, 1.1)
        assert np.all(mask.grid == 1.1)

    def test_checkerboard_pools_to_midpoint(self):
        # oracle: brute-force pixel sum, then the linear map
        pixels = np.array([[0, 255], [255, 0]])
        mask = mask_from_grayscale(pixels, 2, 0.95, 1.05)
        pooled = pixels.sum() / 4.0
        assert float(mask.grid[0, 0]) == 0.95 + pooled / 255.0 * (1.05 - 0.95)
        assert float(mask.grid[0, 0]) == 1.0

    def test_nearest_mode_samples_block_centres(self):
        pixels = np.arange(16, dtype=float).reshape(4, 4)
        mask = mask_from_grayscale(pixels, 2, 0.5, 1.5, mode="nearest")
        centres = pixels[1::2, 1::2]
        expected = 0.5 + centres / 255.0 * 1.0
        assert np.allclose(mask.grid, expected, rtol=0, atol=0)

    def test_rejects_indivisible_dims(self):
        with pytest.raises(ValueError):
            mask_from_grayscale(np.zeros((5, 4)), 2, 0.9, 1.1)

    def test_rejects_empty_and_bad_range(self):
        with pytest.raises(ValueError):
            mask_from_grayscale(np.zeros((0, 4)), 1, 0.9, 1.1)
        with pytest.raises(ValueError):
            mask_from_grayscale(np.full((2, 2), 300.0), 1, 0.9, 1.1)
        with pytest.raises(ValueError):
            mask_from_grayscale(np.zeros((2, 2)), 1, 1.1, 0.9)
        with pytest.raises(ValueError):
            mask_from_grayscale(np.zeros((2, 2)), 1, 0.9, 1.1, mode="bilinear")

    @given(intensity=st.integers(0, 255), low=st.floats(0.5, 1.0), width=st.floats(0.0, 0.5))
    def test_constant_image_gives_uniform_mask(self, intensity, low, width):
        mask = mask_from_grayscale(np.full((6, 6), intensity, dtype=float), 3, low, low + width)
        expected = low + intensity / 255.0 * width
        assert np.all(np.abs(mask.grid - expected) <= 1e-12)

    def test_mask_cells_must_be_positive(self):
        with pytest.raises(ValueError):
            OmegaMask(np.array([[1.0, 0.0]]))

    def test_compared_and_hashed_by_identity(self):
        # a generated == over the grid would raise, and hash would fail on it
        mask = OmegaMask(np.ones((2, 2)))
        assert mask == mask
        assert (OmegaMask(np.ones((2, 2))) == mask) is False
        assert hash(OmegaControl(mask=mask)) == hash(OmegaControl(mask=mask))
        assert OmegaControl(mask=mask) == OmegaControl(mask=mask)

    def test_preview_normalisation(self):
        mask = OmegaMask(np.array([[0.9, 1.0], [1.1, 0.9]]))
        gray = mask_to_grayscale(mask)
        assert gray.dtype == np.uint8
        assert gray[0, 0] == 0 and gray[1, 0] == 255
        uniform = mask_to_grayscale(OmegaMask(np.ones((2, 2))))
        assert np.all(uniform == 128)


class TestSchedules:
    def test_constant_identity(self):
        sched = omega_schedule("constant", 10, omega=1.0)
        assert all(sched.value_at(k) == 1.0 for k in range(10))

    def test_two_stage_boundary(self):
        sched = omega_schedule("two_stage", 50, switch_step=10, early=0.95, late=1.0)
        assert sched.value_at(5) == 0.95
        assert sched.value_at(9) == 0.95
        assert sched.value_at(10) == 1.0
        assert sched.value_at(20) == 1.0

    def test_two_stage_single_discontinuity(self):
        sched = omega_schedule("two_stage", 50, switch_step=10, early=0.95, late=1.0)
        jumps = np.flatnonzero(np.diff(sched.values) != 0.0)
        assert jumps.tolist() == [9]

    def test_exp_family_frozen_endpoints(self):
        sched = omega_schedule("exp", 50, amplitude=-0.1, decay=3.0, offset=0.02)
        assert sched.value_at(0) == pytest.approx(0.92, rel=1e-12)
        expected_last = 1.0 + -0.1 * math.exp(-3.0 * 49.0 / 50.0) + 0.02
        assert sched.value_at(49) == pytest.approx(expected_last, rel=1e-12)
        assert sched.value_at(49) == pytest.approx(1.0147134271261649, rel=1e-12)

    def test_cos_family_formula(self):
        sched = omega_schedule("cos", 50, amplitude=0.05, offset=-0.02)
        for step in (0, 13, 49):
            expected = 1.0 + 0.05 * math.cos(math.pi * step / 50.0) - 0.02
            assert sched.value_at(step) == pytest.approx(expected, rel=1e-12)

    def test_positivity_enforced_at_construction(self):
        with pytest.raises(ValueError):
            omega_schedule("constant", 10, omega=0.0)
        with pytest.raises(ValueError):
            omega_schedule("two_stage", 10, switch_step=2, early=-0.5, late=1.0)
        with pytest.raises(ValueError):
            omega_schedule("exp", 10, amplitude=-2.0, decay=3.0, offset=0.0)

    def test_step_bounds(self):
        sched = omega_schedule("constant", 10, omega=1.0)
        with pytest.raises(ValueError):
            sched.value_at(10)
        with pytest.raises(ValueError):
            sched.value_at(-1)

    def test_presets_match_their_quadrants(self):
        total = 50
        exp1 = omega_schedule("preset", total, name="EXP1")
        exp2 = omega_schedule("preset", total, name="EXP2")
        cos1 = omega_schedule("preset", total, name="COS1")
        cos2 = omega_schedule("preset", total, name="COS2")
        # below 1 early means busier layout; below 1 late means finer detail
        assert exp1.value_at(0) < 1.0 and exp1.value_at(total - 1) < 1.0
        assert exp2.value_at(0) < 1.0 and exp2.value_at(total - 1) > 1.0
        assert cos1.value_at(0) > 1.0 and cos1.value_at(total - 1) > 1.0
        assert cos2.value_at(0) > 1.0 and cos2.value_at(total - 1) < 1.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            omega_schedule("preset", 50, name="EXP9")

    @pytest.mark.parametrize("name", sorted(SCHEDULE_PRESETS))
    def test_preset_is_its_explicit_kind_bit_for_bit(self, name):
        for total in (1, 17, 50):
            preset = omega_schedule("preset", total, name=name)
            params = dict(SCHEDULE_PRESETS[name])
            explicit = omega_schedule(params.pop("kind"), total, **params)
            assert preset.values.tobytes() == explicit.values.tobytes()

    @pytest.mark.parametrize(
        "values",
        [[], np.ones((2, 2)), [1.0, 0.0], [1.0, -0.5], [1.0, math.nan], [math.inf, 1.0]],
        ids=["empty", "2-D", "zero", "negative", "nan", "inf"],
    )
    def test_table_rejects(self, values):
        with pytest.raises(ValueError):
            OmegaSchedule(values)

    def test_table_is_read_only_and_bounded(self):
        sched = OmegaSchedule([0.9, 1.0, 1.1])
        assert sched.total_steps == 3 and sched.values.dtype == np.float64
        assert sched.value_at(2) == 1.1 and isinstance(sched.value_at(2), float)
        with pytest.raises(ValueError):
            sched.values[0] = 2.0
        for step in (-1, 3):
            with pytest.raises(ValueError):
                sched.value_at(step)

    def test_a_control_with_a_schedule_stays_hashable(self):
        sched = OmegaSchedule([0.9, 1.0])
        assert sched == sched
        assert hash(OmegaControl(schedule=sched)) == hash(OmegaControl(schedule=sched))

    def test_table_copies_its_input(self):
        source = np.array([0.9, 1.0])
        sched = OmegaSchedule(source)
        source[0] = 5.0
        assert sched.values.tolist() == [0.9, 1.0]

    @pytest.mark.parametrize("total_steps", [2.5, 0, -3, True, "3", None])
    def test_builder_rejects_a_step_count_that_is_no_positive_integer(self, total_steps):
        with pytest.raises(ValueError, match="total_steps"):
            omega_schedule("constant", total_steps, omega=1.0)

    @pytest.mark.parametrize("switch_step", [1.5, 2.0, True, -1, 4])
    def test_builder_rejects_a_bad_switch_step(self, switch_step):
        with pytest.raises(ValueError, match="switch_step"):
            omega_schedule("two_stage", 3, switch_step=switch_step, early=0.9, late=1.1)

    def test_switch_step_at_either_end(self):
        assert omega_schedule("two_stage", 3, switch_step=0, early=0.9, late=1.1).values.tolist() == [1.1] * 3
        assert omega_schedule("two_stage", 3, switch_step=3, early=0.9, late=1.1).values.tolist() == [0.9] * 3

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("linear", {}),
            (["exp"], {}),
            ("constant", {}),
            ("constant", {"omega": 1.0, "offset": 0.0}),
            ("cos", {"amplitude": 0.1, "decay": 1.0}),
            ("preset", {}),
            ("preset", {"name": ["COS2"]}),
            ("preset", {"name": "EXP1", "offset": 0.1}),
        ],
    )
    def test_builder_rejects_unknown_kinds_and_parameters(self, kind, params):
        with pytest.raises(ValueError):
            omega_schedule(kind, 5, **params)

    def test_overflowing_formula_is_a_value_error(self):
        with pytest.raises(ValueError, match="overflow"):
            omega_schedule("exp", 10, amplitude=0.1, decay=-1e4, offset=0.0)
        with pytest.raises(ValueError):
            omega_schedule("cos", 10, amplitude=1e308, offset=1e308)


class TestControl:
    def test_identity(self):
        field = IDENTITY_CONTROL.resolve_field((4, 4), 0)
        assert isinstance(field, float) and field == 1.0

    def test_mask_only(self):
        mask = OmegaMask(np.array([[0.95, 1.05]]))
        control = OmegaControl(mask=mask)
        field = control.resolve_field((1, 2), 0)
        assert field[0, 0] == 0.95 and field[0, 1] == 1.05

    def test_product_composition(self):
        mask = OmegaMask(np.array([[0.98]]))
        control = OmegaControl(base=1.0, mask=mask, schedule=omega_schedule("constant", 5, omega=1.02))
        value = float(control.resolve_field((1, 1), 3)[0, 0])
        assert value == pytest.approx(0.98 * 1.02, rel=1e-12)
        assert value == pytest.approx(0.9996, rel=1e-12)

    def test_field_shape_mismatch(self):
        control = OmegaControl(mask=OmegaMask(np.ones((2, 2))))
        with pytest.raises(ValueError):
            control.resolve_field((3, 3), 0)

    def test_all_ones_mask_field_is_exactly_one(self):
        control = OmegaControl(mask=OmegaMask(np.ones((3, 3))))
        field = control.resolve_field((3, 3), 0)
        assert np.all(field == 1.0)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            OmegaControl(base=0.0)

    # (base, schedule values, mask row): the least resolved omega rounds to 0
    UNDERFLOWING = [
        (1e-300, [1e-300], None),
        (1e-300, [1.0, 2e-24], None),
        (1e-300, None, [2e-24, 1.0]),
        (5e-324, [0.5, 1.0], None),  # half the least subnormal: a tie, to even
        (5e-324, [1.0], [0.5, 1.0]),
    ]
    # ... and rounds to the least subnormal, 5e-324, exactly
    LEAST_SUBNORMAL = [
        (5e-324, None, None),
        (1e-300, [1.0, 5e-24], None),
        (1e-300, None, [5e-24, 1.0]),
        (5e-324, [1.0, 2.0], [0.75, 1.0]),
        (1e-200, [1e-100, 1.0], [5e-24, 1.0]),
    ]

    @staticmethod
    def parts(schedule, mask):
        return (
            None if schedule is None else OmegaSchedule(schedule),
            None if mask is None else OmegaMask([mask]),
        )

    @pytest.mark.parametrize("base, schedule, mask", UNDERFLOWING)
    def test_rejects_a_least_omega_that_rounds_to_0(self, base, schedule, mask):
        schedule, mask = self.parts(schedule, mask)
        grid = np.ones((1, 2)) if mask is None else mask.grid
        values = [1.0] if schedule is None else schedule.values
        assert min(np.min(grid * (base * float(v))) for v in values) == 0.0  # resolve_field's arithmetic
        with pytest.raises(ValueError, match="rounds to 0"):
            OmegaControl(base, mask, schedule)

    @pytest.mark.parametrize("base, schedule, mask", LEAST_SUBNORMAL)
    def test_accepts_a_least_omega_of_the_least_subnormal(self, base, schedule, mask):
        schedule, mask = self.parts(schedule, mask)
        control = OmegaControl(base, mask, schedule)
        steps = 1 if schedule is None else schedule.total_steps
        least = min(np.min(control.resolve_field((1, 2), k)) for k in range(steps))
        assert least == math.ulp(0.0) == 5e-324

    # (base, schedule values, mask row): the greatest resolved omega rounds to inf
    OVERFLOWING = [
        (1e200, [1e200], None),
        (1e200, [1.0, 1e109], None),
        (1e200, None, [1.0, 1e109]),
        (2.0, [1.0, sys.float_info.max / 2.0], [1.0, 1.0000000000000002]),
    ]

    @pytest.mark.parametrize("base, schedule, mask", OVERFLOWING)
    def test_rejects_a_greatest_omega_that_rounds_to_inf(self, base, schedule, mask):
        schedule, mask = self.parts(schedule, mask)
        with pytest.raises(ValueError, match=r"span \[.*, inf\]: one rounds to 0 or to inf"):
            OmegaControl(base, mask, schedule)

    def test_accepts_a_greatest_omega_of_the_largest_float(self):
        control = OmegaControl(2.0, OmegaMask([[0.5, 1.0]]), OmegaSchedule([1.0, sys.float_info.max / 2.0]))
        assert np.max(control.resolve_field((1, 2), 1)) == sys.float_info.max


# the operands every omega entry point below is called with
RULE_LADDER = linear_beta_ladder(20).subsample(5)
RULE_LATENT = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
RULE_PRED = np.full((2, 3), 0.5)


class TestOneOmegaRule:
    """Every entry point that takes an omega (or the euler oracle's sigma) applies one rule.

    A scalar must be a real number in (0, inf) that is not a bool, and a
    field must hold such numbers in every cell.
    """

    SCALAR_SITES = {
        "ddim_step": lambda w: ddim_step(RULE_LATENT, RULE_LADDER, 2, RULE_PRED, w),
        "euler_step": lambda w: euler_step(RULE_LATENT, karras_sigmas(4), 0, RULE_PRED, w),
        "flow_step": lambda w: flow_step(RULE_LATENT, -0.25, RULE_PRED, w),
        "OmegaControl.base": lambda w: OmegaControl(base=w),
        "modified_snr_ddim": lambda w: modified_snr_ddim(RULE_LADDER, w),
        "propagate_coefficients_ddim": lambda w: propagate_coefficients_ddim(RULE_LADDER, w),
        # takes one omega per step too, but RULE_LADDER has 5 steps: the arrays below are refused
        "closed_form_scalar_trajectory": lambda w: closed_form_scalar_trajectory("ddim", RULE_LADDER, w),
        "epsilon_predict_sigma": lambda w: standard_normal().epsilon_predict(RULE_LATENT, sigma=w),
    }
    FIELD_SITES = {
        "ddim_step": SCALAR_SITES["ddim_step"],
        "euler_step": SCALAR_SITES["euler_step"],
        "flow_step": SCALAR_SITES["flow_step"],
        "OmegaMask": OmegaMask,
        "OmegaSchedule": lambda w: OmegaSchedule(w.ravel()),
    }
    GOOD_SCALARS = {"0.9": 0.9, "int_1": 1, "float32_0.9": np.float32(0.9)}
    BAD_SCALARS = {
        "True": True,
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
        "0.0": 0.0,
        "-1.0": -1.0,
        "int_beyond_float": 10**400,
    }
    BAD_CELLS = {"nan": math.nan, "inf": math.inf, "0.0": 0.0}

    @staticmethod
    def field(cell=None):
        omega = np.linspace(0.9, 1.1, 6).reshape(2, 3)
        if cell is not None:
            omega[1, 2] = cell
        return omega

    @pytest.mark.parametrize("site", SCALAR_SITES)
    @pytest.mark.parametrize("omega", GOOD_SCALARS.values(), ids=list(GOOD_SCALARS))
    def test_scalar_accepted(self, site, omega):
        self.SCALAR_SITES[site](omega)

    @pytest.mark.parametrize("site", SCALAR_SITES)
    @pytest.mark.parametrize("omega", BAD_SCALARS.values(), ids=list(BAD_SCALARS))
    def test_scalar_refused(self, site, omega):
        with pytest.raises(ValueError):
            self.SCALAR_SITES[site](omega)

    @pytest.mark.parametrize("site", sorted(set(SCALAR_SITES) - set(FIELD_SITES)))
    @pytest.mark.parametrize("omega", [np.array(0.9), np.array([0.9, 1.1])], ids=["0-d", "1-d"])
    def test_scalar_only_sites_refuse_an_array(self, site, omega):
        with pytest.raises(ValueError):
            self.SCALAR_SITES[site](omega)

    @pytest.mark.parametrize("site", FIELD_SITES)
    def test_field_accepted(self, site):
        self.FIELD_SITES[site](self.field())

    @pytest.mark.parametrize("site", FIELD_SITES)
    @pytest.mark.parametrize("cell", BAD_CELLS.values(), ids=list(BAD_CELLS))
    def test_field_with_one_bad_cell_refused(self, site, cell):
        with pytest.raises(ValueError):
            self.FIELD_SITES[site](self.field(cell))
