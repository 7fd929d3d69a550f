import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from storageplan.model import (INSTALLED_EPS, Generator, Line, Network, Plan,
                               StorageTech, TypicalDay,
                               capital_recovery_factor, libes_marginal_cost,
                               prorate_capital_cost, snapped,
                               split_round_trip_efficiency, validate_network)


def crf_decimal(rate: str, years: int) -> float:
    """High-precision reference for the capital recovery factor."""
    getcontext().prec = 50
    r = Decimal(rate)
    growth = (1 + r) ** years
    return float(r * growth / (growth - 1))


class TestCapitalRecovery:
    def test_reference_values(self):
        assert capital_recovery_factor(0.05, 20) == pytest.approx(
            crf_decimal("0.05", 20), rel=1e-14)
        assert capital_recovery_factor(0.05, 10) == pytest.approx(
            crf_decimal("0.05", 10), rel=1e-14)
        assert capital_recovery_factor(0.05, 20) == pytest.approx(
            0.0802425872, abs=1e-9)

    def test_zero_rate_limit(self):
        assert capital_recovery_factor(0.0, 20) == pytest.approx(1 / 20)
        # continuity at r -> 0
        assert capital_recovery_factor(1e-10, 20) == pytest.approx(
            1 / 20, rel=1e-6)

    @given(st.floats(0.001, 0.3), st.integers(1, 50))
    def test_bounds(self, r, n):
        crf = capital_recovery_factor(r, n)
        # repays at least the principal fraction and at most principal+interest
        assert crf >= 1.0 / n
        assert crf <= 1.0 / n + r + 1e-12

    def test_invalid(self):
        with pytest.raises(ValueError):
            capital_recovery_factor(0.05, 0)
        with pytest.raises(ValueError):
            capital_recovery_factor(-0.01, 10)

    def test_prorate(self):
        daily = prorate_capital_cost(1_250_000.0, 0.05, 20.0)
        assert daily == pytest.approx(
            1_250_000.0 * crf_decimal("0.05", 20) / 365.0, rel=1e-14)


class TestWearCost:
    def test_reference_value(self):
        # 1.5e-4 / kWh fitted loss, 406 $/kWh replacement, 70% usable window
        assert libes_marginal_cost(406.0, 0.7, 1.5e-4) == pytest.approx(87.0)

    def test_full_window(self):
        assert libes_marginal_cost(406.0, 1.0, 1.5e-4) == pytest.approx(
            60.9, abs=0.05)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            libes_marginal_cost(406.0, 0.0, 1.5e-4)


class TestEfficiencySplit:
    @given(st.floats(0.01, 1.0))
    def test_round_trip_preserved(self, rt):
        eta = split_round_trip_efficiency(rt)
        assert eta * eta == pytest.approx(rt, rel=1e-12)
        assert 0 < eta <= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_round_trip_efficiency(0.0)
        with pytest.raises(ValueError):
            split_round_trip_efficiency(1.5)


class TestStorageTech:
    def test_validation(self):
        with pytest.raises(ValueError):
            StorageTech(c_p=1, c_e=1, rho_min=0.5, rho_max=0.1,
                        eta_ch=0.9, eta_dis=0.9)
        with pytest.raises(ValueError):
            StorageTech(c_p=1, c_e=1, rho_min=0.1, rho_max=0.5,
                        eta_ch=1.2, eta_dis=0.9)
        with pytest.raises(ValueError):
            StorageTech(c_p=-1, c_e=1, rho_min=0.1, rho_max=0.5,
                        eta_ch=0.9, eta_dis=0.9)

    @pytest.mark.parametrize("field", ["t_ru", "t_rd"])
    def test_negative_ramp_window_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
            StorageTech(c_p=1, c_e=1, rho_min=0.1, rho_max=0.5, eta_ch=0.9,
                        eta_dis=0.9, **{field: -1.0})

    @pytest.mark.parametrize("field", ["c_p", "c_e", "rho_min", "rho_max",
                                       "eta_ch", "eta_dis", "c_dis", "c_ch",
                                       "c_eu", "c_ed", "t_es", "t_ru", "t_rd"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_rejected(self, field, value):
        kwargs = dict(c_p=1, c_e=1, rho_min=0.1, rho_max=0.5, eta_ch=0.9,
                      eta_dis=0.9)
        kwargs[field] = value
        with pytest.raises(ValueError):
            StorageTech(**kwargs)

    def test_zero_ramp_windows_accepted(self):
        tech = StorageTech(c_p=1, c_e=1, rho_min=0.1, rho_max=0.5,
                           eta_ch=0.9, eta_dis=0.9, t_ru=0.0, t_rd=0.0)
        assert (tech.t_ru, tech.t_rd) == (0.0, 0.0)


class TestPlan:
    def test_accessors(self):
        plan = Plan({"b1": (10.0, 20.0)})
        assert plan.power("b1") == 10.0
        assert plan.energy("b1") == 20.0
        assert plan.power("b2") == 0.0
        assert plan.installed_buses() == ["b1"]
        assert not plan.is_empty()
        assert Plan().is_empty()

    def test_zero_ratings_dropped(self):
        assert Plan({"b1": (0.0, 0.0)}).ratings == {}

    def test_negative_rating_kept_and_named(self):
        # only (0, 0) is dropped, so the ratio check can name the bus
        plan = Plan({"b1": (-1.0, -1.0)})
        assert plan.ratings == {"b1": (-1.0, -1.0)}
        tech = StorageTech(c_p=1, c_e=1, rho_min=0.5, rho_max=2.0,
                           eta_ch=1, eta_dis=1)
        with pytest.raises(ValueError, match="bus b1: negative rating"):
            plan.check_ratio_bounds(tech)

    def test_investment_cost(self):
        tech = StorageTech(c_p=3.0, c_e=2.0, rho_min=0.1, rho_max=4.0,
                           eta_ch=0.9, eta_dis=0.9)
        assert Plan({"b1": (10.0, 20.0)}).investment_cost(tech) == 70.0

    def test_ratio_bounds(self):
        tech = StorageTech(c_p=1, c_e=1, rho_min=0.5, rho_max=2.0,
                           eta_ch=1, eta_dis=1)
        Plan({"b1": (1.0, 1.0)}).check_ratio_bounds(tech)
        with pytest.raises(ValueError, match="bus b1"):
            Plan({"b1": (3.0, 1.0)}).check_ratio_bounds(tech)
        with pytest.raises(ValueError, match="bus b1"):
            Plan({"b1": (0.1, 1.0)}).check_ratio_bounds(tech)

    def test_power_without_energy(self):
        tech = StorageTech(c_p=1, c_e=1, rho_min=0.5, rho_max=2.0,
                           eta_ch=1, eta_dis=1)
        with pytest.raises(ValueError,
                           match="bus b1: positive power with zero energy"):
            Plan({"b1": (1.0, 0.0)}).check_ratio_bounds(tech)

    @pytest.mark.parametrize("p, e", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf),
        (1.0, math.inf), (math.nan, math.nan)])
    def test_non_finite_rating_rejected(self, p, e):
        tech = StorageTech(c_p=1, c_e=1, rho_min=0.5, rho_max=2.0,
                           eta_ch=1, eta_dis=1)
        with pytest.raises(ValueError, match="bus b1: non-finite rating"):
            Plan({"b1": (p, e)}).check_ratio_bounds(tech)

    def test_grid(self):
        plan = Plan({"b2": (1.0, 2.0)})
        assert plan.grid(["b1", "b2"]).tolist() == [[0.0, 0.0], [1.0, 2.0]]
        assert plan.grid([]).shape == (0, 2)

    @given(st.floats(0.5, 2.0), st.floats(0.01, 100.0))
    def test_ratio_bounds_property(self, rho, e):
        tech = StorageTech(c_p=1, c_e=1, rho_min=0.5, rho_max=2.0,
                           eta_ch=1, eta_dis=1)
        Plan({"b1": (rho * e, e)}).check_ratio_bounds(tech)


class TestSnapped:
    def test_clips_negatives(self):
        pe = snapped([(2.0, -1e-9), (-1.0, -1.0), (-1.0, 3.0)])
        assert pe.tolist() == [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]

    def test_threshold_is_on_power(self):
        eps = INSTALLED_EPS
        pe = snapped([(eps, 1.0), (2 * eps, eps / 2), (1.0, 0.0)])
        assert pe.tolist() == [[0.0, 0.0], [2 * eps, eps / 2], [1.0, 0.0]]

    def test_energy_without_power_is_zeroed(self):
        assert snapped([(0.0, 5.0), (INSTALLED_EPS / 2, 5e-4)]).tolist() \
            == [[0.0, 0.0], [0.0, 0.0]]

    def test_shape_and_fixed_point(self):
        pe = snapped([(3.0, 4.0), (0.0, 0.0)])
        assert pe.shape == (2, 2)
        assert snapped([]).shape == (0, 2)
        assert np.array_equal(snapped(pe), pe)


def _net(**kw):
    base = dict(
        buses=("b1", "b2"),
        lines=(Line("l1", "b1", "b2", 0.1, 50.0),),
        generators=(Generator("g1", "b1", 100.0, 0.0, 50.0, 50.0,
                              20.0, 1.0, 1.0),),
        candidate_buses=("b2",),
    )
    base.update(kw)
    return Network(**base)


def _day(**kw):
    base = dict(day_id="d1", weight=1.0, n_hours=2,
                demand={"b1": (10.0, 20.0)})
    base.update(kw)
    return TypicalDay(**base)


class TestValidateNetwork:
    def test_clean(self):
        assert validate_network(_net(), [_day()]).ok

    def test_unknown_bus_in_line(self):
        net = _net(lines=(Line("l1", "b1", "b99", 0.1, 50.0),))
        rep = validate_network(net, [_day()])
        assert any("line l1" in v and "b99" in v for v in rep.violations)

    def test_bad_line_parameters(self):
        net = _net(lines=(Line("l1", "b1", "b2", -0.1, 0.0),))
        rep = validate_network(net, [_day()])
        assert len(rep.violations) == 2

    def test_unknown_candidate(self):
        rep = validate_network(_net(candidate_buses=("b9",)), [_day()])
        assert any("candidate bus b9" in v for v in rep.violations)

    def test_duplicate_candidate(self):
        """A plan is keyed by bus, so a repeated candidate would merge two
        rating rows; it is reported instead."""
        rep = validate_network(_net(candidate_buses=("b2", "b1", "b2")),
                               [_day()])
        assert rep.violations == ["candidate bus b2: duplicate id"]

    def test_generator_limits(self):
        net = _net(generators=(
            Generator("g1", "b1", 10.0, 20.0, -1.0, 5.0, 20.0, 1.0, 1.0),))
        rep = validate_network(net, [_day()])
        assert any("g_min exceeds g_max" in v for v in rep.violations)
        assert any("negative ramp" in v for v in rep.violations)

    def test_duplicate_ids(self):
        net = _net(buses=("b1", "b1", "b2"))
        rep = validate_network(net, [_day()])
        assert any("duplicate" in v for v in rep.violations)

    def test_duplicate_line_generator_and_day_ids(self):
        net = _net(lines=_net().lines * 2, generators=_net().generators * 2)
        rep = validate_network(net, [_day(), _day()])
        assert rep.violations == ["line l1: duplicate id",
                                  "generator g1: duplicate id",
                                  "day d1: duplicate id"]

    def test_day_without_hours(self):
        rep = validate_network(_net(), [_day(n_hours=0, demand={})])
        assert rep.violations == ["day d1: n_hours must be positive"]

    def test_profile_at_unknown_bus(self):
        rep = validate_network(_net(), [_day(renewable={"b7": (1.0, 1.0)})])
        assert rep.violations == [
            "day d1: renewable references unknown bus b7"]

    def test_profile_length(self):
        rep = validate_network(_net(), [_day(demand={"b1": (10.0,)})])
        assert any("expected 2" in v for v in rep.violations)

    def test_negative_demand(self):
        rep = validate_network(_net(), [_day(demand={"b1": (10.0, -1.0)})])
        assert any("negative demand" in v for v in rep.violations)

    def test_spill_exceeds_renewable(self):
        day = _day(renewable={"b2": (5.0, 5.0)},
                   spill_max={"b2": (6.0, 5.0)})
        rep = validate_network(_net(), [day])
        assert any("spill_max" in v for v in rep.violations)

    def test_day_scalars(self):
        rep = validate_network(_net(), [_day(weight=-1.0, phi_d=2.0)])
        assert len(rep.violations) == 2

    def test_no_buses(self):
        """A network without buses has no reference bus to dispatch
        around; it is reported, not left to fail inside the LP build."""
        net = _net(buses=(), lines=(), generators=(), candidate_buses=())
        rep = validate_network(net, [_day(demand={})])
        assert rep.violations == ["network has no buses"]


class TestTypicalDay:
    def test_missing_profile_is_zero(self):
        day = _day()
        assert day.profile("renewable", "b1") == (0.0, 0.0)
        assert day.profile("demand", "b1") == (10.0, 20.0)
