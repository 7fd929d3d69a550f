import numpy as np
import pytest

from storageplan.datafiles import ParseError
from storageplan.model import TypicalDay
from storageplan.scenario import cluster_days, load_profiles


def make_text(n_days, shapes, n_hours=24):
    """Profile file with one bus; ``shapes[d]`` selects a base profile."""
    bases = [
        [50 + 10 * np.sin(h / 3.0) for h in range(n_hours)],
        [80 + 20 * np.cos(h / 4.0) for h in range(n_hours)],
        [30 + 5 * np.sin(h / 2.0) for h in range(n_hours)],
    ]
    lines = ["hour b1:demand b1:renewable"]
    hour = 0
    for d in range(n_days):
        base = bases[shapes[d] % len(bases)]
        for h in range(n_hours):
            lines.append(f"{hour} {base[h]:.4f} {max(0.0, base[h] - 40):.4f}")
            hour += 1
    return "\n".join(lines) + "\n"


class TestLoadProfiles:
    def test_shapes(self):
        ps = load_profiles(make_text(3, [0, 1, 2]))
        assert ps.n_days == 3
        assert ps.n_hours == 24
        assert ps.demand["b1"].shape == (3, 24)
        assert ps.renewable["b1"].shape == (3, 24)
        assert ps.buses == ["b1"]

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            load_profiles("time b1:demand\n0 5\n")
        with pytest.raises(ParseError, match="bad column"):
            load_profiles("hour b1:load\n0 5\n")
        with pytest.raises(ParseError, match="p.txt:2: header names no "):
            load_profiles("# c\nhour\n0\n", "p.txt")

    def test_duplicate_column_reported_at_header_line(self):
        text = "# profiles\n\nhour b1:demand b1:demand\n0 5 6\n"
        with pytest.raises(ParseError,
                           match="p.txt:3: duplicate column b1:demand"):
            load_profiles(text, "p.txt")

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="columns"):
            load_profiles("hour b1:demand\n0 5 6\n")

    def test_rejects_nan_and_negative(self):
        head = "hour b1:demand\n"
        with pytest.raises(ParseError, match="p.txt:2: NaN value"):
            load_profiles(head + "0 nan\n", "p.txt")
        with pytest.raises(ParseError,
                           match="p.txt:2: infinite value: 'inf'"):
            load_profiles(head + "0 inf\n", "p.txt")
        with pytest.raises(ParseError, match="negative"):
            load_profiles(head + "0 -3\n")
        with pytest.raises(ParseError, match="not a number"):
            load_profiles(head + "0 abc\n")

    def test_partial_day_rejected(self):
        text = make_text(1, [0])
        text = "\n".join(text.splitlines()[:-2]) + "\n"
        with pytest.raises(ParseError, match="whole number"):
            load_profiles(text)

    def test_partial_day_reported_at_last_data_line(self):
        with pytest.raises(ParseError,
                           match="p.txt:4: 1 rows is not a whole number"):
            load_profiles("# c\n\nhour b1:demand\n0 5\n", "p.txt")

    def test_empty(self):
        with pytest.raises(ParseError):
            load_profiles("")
        with pytest.raises(ParseError, match="no data rows"):
            load_profiles("hour b1:demand\n")


class TestClusterDays:
    def test_duplicate_days_cluster_together(self):
        ps = load_profiles(make_text(6, [0, 1, 0, 1, 0, 1]))
        days = cluster_days(ps, 2)
        assert len(days) == 2
        assert sorted(d.weight for d in days) == [3.0, 3.0]
        # medoids are the lowest-index member of each cluster
        assert sorted(d.day_id for d in days) == ["d1", "d2"]

    def test_weights_sum_to_source_days(self):
        ps = load_profiles(make_text(7, [0, 1, 2, 0, 1, 0, 2]))
        for k in (1, 2, 3, 7):
            days = cluster_days(ps, k)
            assert len(days) == k
            assert sum(d.weight for d in days) == ps.n_days

    def test_representative_is_a_source_day(self):
        ps = load_profiles(make_text(5, [0, 1, 2, 1, 0]))
        for day in cluster_days(ps, 2):
            idx = int(day.day_id[1:]) - 1
            assert day.demand["b1"] == pytest.approx(ps.demand["b1"][idx])
            assert day.renewable["b1"] == pytest.approx(
                ps.renewable["b1"][idx])
            assert day.spill_max == day.renewable
            # reserve cost and requirements are TypicalDay's defaults
            assert (day.c_rs, day.phi_d, day.phi_r) == (
                TypicalDay.c_rs, TypicalDay.phi_d, TypicalDay.phi_r)

    def test_bus_with_demand_and_no_renewable(self):
        rows = [f"{h} {10 + h % 24} {20 + h % 5} {h % 7}"
                for h in range(3 * 24)]
        ps = load_profiles("hour b1:demand b2:demand b2:renewable\n"
                           + "\n".join(rows) + "\n")
        for day in cluster_days(ps, 2):
            idx = int(day.day_id[1:]) - 1
            assert day.demand["b1"] == pytest.approx(ps.demand["b1"][idx])
            assert "b1" not in day.renewable
            assert "b1" not in day.spill_max

    def test_k_equals_n(self):
        ps = load_profiles(make_text(4, [0, 1, 2, 0]))
        days = cluster_days(ps, 4)
        assert [d.weight for d in days] == [1.0] * 4
        assert [d.day_id for d in days] == ["d1", "d2", "d3", "d4"]

    def test_k_validation(self):
        ps = load_profiles(make_text(3, [0, 1, 2]))
        with pytest.raises(ValueError, match="cluster count"):
            cluster_days(ps, 0)
        with pytest.raises(ValueError, match="cluster count"):
            cluster_days(ps, 4)
