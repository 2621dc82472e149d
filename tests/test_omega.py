import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegance import (
    ConstantSchedule,
    CosSchedule,
    ExpSchedule,
    IDENTITY_CONTROL,
    OmegaControl,
    OmegaMask,
    RescaleParams,
    TwoStageSchedule,
    mask_from_grayscale,
    mask_to_grayscale,
    preset_schedule,
    rescale,
)


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steepness": 0.0},
            {"steepness": -1.0},
            {"lower": 0.0},
            {"lower": 1.1, "upper": 1.0},
            {"lower": float("nan")},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            RescaleParams(**kwargs)

    @given(
        steepness=st.floats(0.01, 1.0),
        lower=st.floats(0.5, 0.99),
        width=st.floats(0.01, 0.5),
    )
    @settings(deadline=None)
    def test_monotone_and_bounded(self, steepness, lower, width):
        params = RescaleParams(steepness, lower, lower + width)
        grid = np.linspace(-10.0, 10.0, 1000)
        values = np.array([rescale(float(v), params) for v in grid])
        assert np.all(np.diff(values) > 0.0)
        assert np.all(values > params.lower)
        assert np.all(values < params.upper)


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

    def test_preview_normalisation(self):
        mask = OmegaMask(np.array([[0.9, 1.0], [1.1, 0.9]]))
        gray = mask_to_grayscale(mask)
        assert gray.dtype == np.uint8
        assert gray[0, 0] == 0 and gray[1, 0] == 255
        uniform = mask_to_grayscale(OmegaMask(np.ones((2, 2))))
        assert np.all(uniform == 128)


class TestSchedules:
    def test_constant_identity(self):
        sched = ConstantSchedule(1.0, 10)
        assert all(sched.value_at(k) == 1.0 for k in range(10))

    def test_two_stage_boundary(self):
        sched = TwoStageSchedule(10, 0.95, 1.0, 50)
        assert sched.value_at(5) == 0.95
        assert sched.value_at(9) == 0.95
        assert sched.value_at(10) == 1.0
        assert sched.value_at(20) == 1.0

    def test_two_stage_single_discontinuity(self):
        sched = TwoStageSchedule(10, 0.95, 1.0, 50)
        jumps = np.flatnonzero(np.diff(sched.values()) != 0.0)
        assert jumps.tolist() == [9]

    def test_exp_family_frozen_endpoints(self):
        sched = ExpSchedule(-0.1, 3.0, 0.02, 50)
        assert sched.value_at(0) == pytest.approx(0.92, rel=1e-12)
        expected_last = 1.0 + -0.1 * math.exp(-3.0 * 49.0 / 50.0) + 0.02
        assert sched.value_at(49) == pytest.approx(expected_last, rel=1e-12)
        assert sched.value_at(49) == pytest.approx(1.0147134271261649, rel=1e-12)

    def test_cos_family_formula(self):
        sched = CosSchedule(0.05, -0.02, 50)
        for step in (0, 13, 49):
            expected = 1.0 + 0.05 * math.cos(math.pi * step / 50.0) - 0.02
            assert sched.value_at(step) == pytest.approx(expected, rel=1e-12)

    def test_positivity_enforced_at_construction(self):
        with pytest.raises(ValueError):
            ConstantSchedule(0.0, 10)
        with pytest.raises(ValueError):
            TwoStageSchedule(2, -0.5, 1.0, 10)
        with pytest.raises(ValueError):
            ExpSchedule(-2.0, 3.0, 0.0, 10)

    def test_step_bounds(self):
        sched = ConstantSchedule(1.0, 10)
        with pytest.raises(ValueError):
            sched.value_at(10)
        with pytest.raises(ValueError):
            sched.value_at(-1)

    def test_presets_match_their_quadrants(self):
        total = 50
        exp1 = preset_schedule("EXP1", total)
        exp2 = preset_schedule("EXP2", total)
        cos1 = preset_schedule("COS1", total)
        cos2 = preset_schedule("COS2", total)
        # below 1 early means busier layout; below 1 late means finer detail
        assert exp1.value_at(0) < 1.0 and exp1.value_at(total - 1) < 1.0
        assert exp2.value_at(0) < 1.0 and exp2.value_at(total - 1) > 1.0
        assert cos1.value_at(0) > 1.0 and cos1.value_at(total - 1) > 1.0
        assert cos2.value_at(0) > 1.0 and cos2.value_at(total - 1) < 1.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_schedule("EXP9", 50)


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
        control = OmegaControl(base=1.0, mask=mask, schedule=ConstantSchedule(1.02, 5))
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
