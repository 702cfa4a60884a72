import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfc.chip import (
    ChipLayout,
    ChipModel,
    ChipSpec,
    channel_bandwidth,
    chip_capacity,
    config_dims,
    derive_layout,
    dims_for_avg_bandwidth,
    minimal_perimeter_shape,
    tile_side,
)
from surfc.errors import InfeasibleError

DD = ChipModel.DOUBLE_DEFECT
LS = ChipModel.LATTICE_SURGERY


class TestChannelBandwidth:
    def test_five_d_gives_two_lanes(self):
        for d in (1, 2, 3, 5):
            assert channel_bandwidth(5 * d, d, DD) == 2

    def test_strict_floor(self):
        d = 2
        w = int(2.5 * d) - 1
        assert channel_bandwidth(w, d, DD) == 0

    def test_lattice_surgery_tiles(self):
        d = 3
        side = tile_side(LS, d)
        assert side == 5  # ceil(sqrt(2)*3)
        assert channel_bandwidth(3 * side, d, LS) == 3

    def test_zero_width(self):
        assert channel_bandwidth(0, 3, DD) == 0
        assert channel_bandwidth(0, 3, LS) == 0


class TestChipCapacity:
    @pytest.mark.parametrize("b,expected", [(1, 3), (2, 3), (3, 4), (4, 4), (5, 5)])
    def test_formula(self, b, expected):
        assert chip_capacity(b) == expected

    def test_zero_bandwidth_flagged(self):
        assert chip_capacity(0) == 0

    @given(st.integers(1, 200))
    def test_monotone_and_plus_two(self, b):
        assert chip_capacity(b + 1) >= chip_capacity(b)
        assert chip_capacity(b + 2) == chip_capacity(b) + 1


class TestMinimalPerimeterShape:
    def test_eight_qubits_prefers_square(self):
        assert minimal_perimeter_shape(8, 5, 5) == (3, 3)

    def test_six_qubits(self):
        assert minimal_perimeter_shape(6, 6, 6) == (2, 3)

    def test_nine_unique(self):
        assert minimal_perimeter_shape(9, 4, 4) == (3, 3)
        assert minimal_perimeter_shape(9, 3, 3) == (3, 3)

    def test_exhaustive_minimality(self):
        for n in range(1, 31):
            r, c = minimal_perimeter_shape(n, 30, 30)
            assert r * c >= n
            # no enumerated candidate with the waste rule beats it
            for rr in range(1, 31):
                for cc in range(1, 31):
                    if rr * cc >= n and rr * cc - n < min(rr, cc):
                        assert 2 * (r + c) <= 2 * (rr + cc)

    def test_too_small(self):
        with pytest.raises(InfeasibleError):
            minimal_perimeter_shape(10, 3, 3)
        with pytest.raises(InfeasibleError):
            minimal_perimeter_shape(20, 2, 2)

    def test_every_grid_that_fits_meets_the_waste_rule(self):
        # the strict waste rule always admits a shape: from any fitting
        # (r, ceil(n/r)), the shape (ceil(n/c), c) fits and wastes less than
        # a row and a column
        for n in range(1, 201):
            for max_r in range(1, 31):
                for max_c in range(-(-n // max_r), 31):
                    r, c = minimal_perimeter_shape(n, max_r, max_c)
                    assert r <= max_r and c <= max_c, (n, max_r, max_c)
                    assert 0 <= r * c - n < min(r, c), (n, max_r, max_c, r, c)


class TestDeriveLayout:
    def test_dd_min_viable_three_by_three(self):
        d = 2
        spec = ChipSpec(DD, 3 * 5 * d, 3 * 5 * d, d)
        layout = derive_layout(spec, 9)
        assert (layout.array_r, layout.array_c) == (3, 3)
        assert all(b == 1 for b in layout.bw_h + layout.bw_v)
        assert layout.bandwidth == 1

    def test_ls_example_grid(self):
        d = 3
        spec = ChipSpec(LS, 20, 20, d)
        layout = derive_layout(spec, 10)
        # 4x4 slot grid: 3x4 data array plus one spare tile row
        assert (layout.array_r + sum(layout.h_widths),
                layout.array_c + sum(layout.v_widths)) == (4, 4)

    def test_chip_too_small(self):
        with pytest.raises(InfeasibleError):
            ChipSpec(DD, 5, 5, 2)

    def test_reported_bandwidth_is_min(self):
        d = 2
        spec = ChipSpec(DD, 11 * 5 * d, 11 * 5 * d, d)
        layout = derive_layout(spec, 49)
        assert layout.bandwidth == min(layout.bw_h + layout.bw_v)

    @given(st.integers(1, 40), st.integers(6, 90), st.integers(6, 90), st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_footprint_audit(self, n, m1, m2, d):
        for model in (DD, LS):
            side = tile_side(model, d)
            if min(m1, m2) < side or (m1 // side) * (m2 // side) < n:
                continue
            spec = ChipSpec(model, m1, m2, d)
            layout = derive_layout(spec, n)  # __post_init__ audits the footprint
            if model is DD:
                used = layout.array_r * side + sum(layout.h_widths)
            else:
                used = (layout.array_r + sum(layout.h_widths)) * side
            assert used <= m1


class TestConfigDims:
    def test_min_viable_ls(self):
        assert config_dims("min", 10, 3, LS) == (20, 20)

    @pytest.mark.parametrize("n,d,dims", [(16, 2, (15, 15)), (9, 3, (20, 20))])
    def test_min_ls_full_grid_gains_fabric(self, n, d, dims):
        # a data array filling the ceil(sqrt(n)) grid would leave no fabric
        assert config_dims("min", n, d, LS) == dims
        layout = derive_layout(ChipSpec(LS, *dims, d), n)
        assert max(layout.bw_h) >= 1 and max(layout.bw_v) >= 1

    def test_min_dd_full_grid_unchanged(self):
        assert config_dims("min", 16, 2, DD) == (40, 40)

    def test_four_x_ls(self):
        assert config_dims("4x", 10, 3, LS) == (60, 60)

    def test_sufficient_small_pm_is_min(self):
        assert config_dims("sufficient", 9, 2, DD, pm=3) == config_dims("min", 9, 2, DD)

    def test_sufficient_requires_pm(self):
        with pytest.raises(InfeasibleError):
            config_dims("sufficient", 9, 2, DD)

    @pytest.mark.parametrize("model", [DD, LS])
    @pytest.mark.parametrize("pm", [1, 3, 4, 6, 9])
    def test_sufficient_reaches_capacity(self, model, pm):
        n, d = 10, 2
        m1, m2 = config_dims("sufficient", n, d, model, pm=pm)
        layout = derive_layout(ChipSpec(model, m1, m2, d), n)
        assert layout.capacity >= pm

    def test_avg_bandwidth_dims(self):
        for model in (DD, LS):
            m1, _ = dims_for_avg_bandwidth(49, 3, model, 1)
            layout = derive_layout(ChipSpec(model, m1, m1, 3), 49)
            bws = layout.bw_h + layout.bw_v
            assert sum(bws) / len(bws) >= 1
            m2, _ = dims_for_avg_bandwidth(49, 3, model, 2)
            layout2 = derive_layout(ChipSpec(model, m2, m2, 3), 49)
            bws2 = layout2.bw_h + layout2.bw_v
            assert sum(bws2) / len(bws2) >= 2 * 0.95
