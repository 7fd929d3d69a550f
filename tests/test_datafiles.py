import pytest
from hypothesis import given
from hypothesis import strategies as st

from storageplan import datafiles
from storageplan.datafiles import (ParseError, load_bundled_tech,
                                   parse_config, parse_days, parse_network,
                                   parse_plan, parse_tech, write_days,
                                   write_network, write_plan, write_tech)
from storageplan.instances import m2, neglmp
from storageplan.model import (Plan, capital_recovery_factor,
                               libes_marginal_cost, prorate_capital_cost,
                               split_round_trip_efficiency, validate_network)

finite_pos = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


class TestNetworkRoundTrip:
    def test_exact(self):
        net = m2().net
        assert parse_network(write_network(net)) == net

    def test_with_lines(self):
        net = neglmp().net
        assert parse_network(write_network(net)) == net

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n[buses]\nb1  # trailing\n[candidates]\nb1\n" \
               "[lines]\n[generators]\ng1 b1 10 0 1 1 20 0 0\n"
        net = parse_network(text)
        assert net.buses == ("b1",)
        assert net.generators[0].g_max == 10.0

    def test_errors(self):
        with pytest.raises(ParseError, match="outside a known section"):
            parse_network("b1 b2\n")
        with pytest.raises(ParseError, match="line row"):
            parse_network("[lines]\nl1 b1 b2 0.1\n")
        with pytest.raises(ParseError, match="<network>:2: generator row "
                                             "needs: id bus g_max"):
            parse_network("[generators]\ng1 b1 10 0 1 1 20 0\n")
        with pytest.raises(ParseError, match="not a number"):
            parse_network("[lines]\nl1 b1 b2 x 5\n")
        with pytest.raises(ParseError, match="NaN"):
            parse_network("[lines]\nl1 b1 b2 nan 5\n")

    def test_infinite_values_rejected(self):
        for tok in ("inf", "-inf", "1e999"):
            with pytest.raises(ParseError, match="<network>:2: infinite"):
                parse_network(f"[lines]\nl1 b1 b2 0.1 {tok}\n")
        with pytest.raises(ParseError, match="<days>:3: infinite"):
            parse_days("[day d1]\n[demand]\nb1 1 inf\n")


class TestDaysRoundTrip:
    def test_exact(self):
        days = neglmp().days
        parsed = parse_days(write_days(days))
        assert parsed == days

    @given(st.lists(finite_pos, min_size=2, max_size=6))
    def test_profile_values_bit_exact(self, values):
        from storageplan.model import TypicalDay
        day = TypicalDay(day_id="x", weight=2.0, n_hours=len(values),
                         demand={"b1": tuple(values)})
        parsed = parse_days(write_days([day]))[0]
        assert parsed.demand["b1"] == tuple(values)

    def test_errors(self):
        with pytest.raises(ParseError, match="no days"):
            parse_days("# empty\n")
        with pytest.raises(ParseError, match="before the first"):
            parse_days("weight = 1\n")
        with pytest.raises(ParseError, match="unknown section"):
            parse_days("[day d1]\n[junk]\n")
        with pytest.raises(ParseError, match="outside a day"):
            parse_days("[demand]\nb1 1 2\n")
        with pytest.raises(ParseError, match="unknown day attribute"):
            parse_days("[day d1]\ncolor = blue\n")

    def test_fractional_hours_rejected(self):
        assert parse_days("[day d1]\nn_hours = 2.0\n")[0].n_hours == 2
        with pytest.raises(ParseError, match="<days>:3: n_hours must be an "
                                             "integer: '2.5'"):
            parse_days("[day d1]\nweight = 1\nn_hours = 2.5\n")

    def test_repeated_attribute_rejected(self):
        with pytest.raises(ParseError,
                           match="<days>:3: repeated day attribute 'weight'"):
            parse_days("[day d1]\nweight = 1\nweight = 2\n")

    @pytest.mark.parametrize("kind", ["demand", "renewable", "spill_max"])
    def test_repeated_profile_row_rejected(self, kind):
        text = f"[day d1]\nn_hours = 2\n[{kind}]\nb1 1 2\nb2 1 2\nb1 3 4\n"
        with pytest.raises(ParseError, match=f"<days>:6: repeated "
                           f"\\[{kind}\\] row for bus 'b1'"):
            parse_days(text)
        # the same bus in another day is no repeat
        assert len(parse_days(text.replace("b1 3 4", "[day d2]\n"
                                           f"[{kind}]\nb1 3 4"))) == 2


class TestTechRoundTrip:
    def test_bundled_techs_round_trip(self):
        for name in ("aa_caes", "libes"):
            tech = load_bundled_tech(name)
            assert parse_tech(write_tech(tech)) == tech

    def test_errors(self):
        with pytest.raises(ParseError, match="unknown tech field"):
            parse_tech("c_x = 1\n")
        with pytest.raises(ParseError, match="expected"):
            parse_tech("c_p 1 2\n")
        with pytest.raises(ParseError, match="rho"):
            parse_tech("c_p = 1\nc_e = 1\nrho_min = 2\nrho_max = 1\n"
                       "eta_ch = 0.9\neta_dis = 0.9\n")
        with pytest.raises(ParseError, match="x.tech:1: missing tech "
                           "field\\(s\\): c_e, rho_min, rho_max, eta_ch, "
                           "eta_dis$"):
            parse_tech("c_p = 1\nc_dis = 2\n", "x.tech")
        with pytest.raises(ParseError, match="x.tech:1: missing tech "
                           "field\\(s\\): c_p, c_e, rho_min, rho_max, "
                           "eta_ch, eta_dis$"):
            parse_tech("# no fields\n", "x.tech")

    @pytest.mark.parametrize("key", ["c_p", "name"])
    def test_repeated_field_rejected(self, key):
        text = write_tech(load_bundled_tech("libes"))
        line = next(l for l in text.splitlines() if l.startswith(key))
        n = len(text.splitlines()) + 1
        with pytest.raises(ParseError, match=f"x.tech:{n}: repeated tech "
                                             f"field '{key}'"):
            parse_tech(text + line + "\n", "x.tech")


@pytest.mark.parametrize("parse, head, malformed, unknown, what", [
    (parse_config, "", "epsilon 0.1 0.2", "seed = 7", "config entry"),
    (parse_days, "[day d1]\n", "weight 1 2", "color = blue",
     "day attribute"),
    (parse_tech, "", "c_p 1 2", "c_x = 1", "tech field"),
], ids=["config", "days", "tech"])
def test_name_value_lines(parse, head, malformed, unknown, what):
    """Config entries, day attributes and tech fields are read as
    ``name = value`` lines, and each fault is worded the same in all
    three files."""
    n = head.count("\n") + 2
    for line, message in ((malformed, f"expected '{what} = value'"),
                          (unknown, f"unknown {what}")):
        with pytest.raises(ParseError) as err:
            parse(f"{head}# comment\n{line}\n", "f.txt")
        assert str(err.value) == f"f.txt:{n}: {message}: {line!r}"


class TestPlanRoundTrip:
    @given(finite_pos, finite_pos)
    def test_bit_exact(self, p, e):
        plan = Plan({"b1": (p, e)})
        assert parse_plan(write_plan(plan)) == plan

    def test_errors(self):
        with pytest.raises(ParseError, match="plan row"):
            parse_plan("b1 1\n")
        with pytest.raises(ParseError,
                           match="<plan>:3: repeated plan row for bus 'b1'"):
            parse_plan("b1 1 2\nb2 1 2\nb1 3 4\n")


class TestConfig:
    def test_parse(self):
        cfg = parse_config("epsilon = 0.1\nchi = 1.2\nmax_iter = 50\n"
                           "workers = 2\nbudget_max = 100\n")
        assert cfg == {"epsilon": 0.1, "chi": 1.2, "max_iter": 50,
                       "workers": 2, "budget_max": 100.0}
        assert isinstance(cfg["max_iter"], int)

    def test_integer_keys_reject_fractions(self):
        assert parse_config("workers = 2.0\n") == {"workers": 2}
        with pytest.raises(ParseError, match=":1: workers must be an integer"):
            parse_config("workers = 2.7\n")
        with pytest.raises(ParseError, match=":2: infinite"):
            parse_config("epsilon = 0.1\nmax_iter = inf\n")

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="unknown config"):
            parse_config("verbosity = 3\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ParseError, match="<config>:3: repeated config "
                                             "entry 'epsilon'"):
            parse_config("epsilon = 0.1\nchi = 2\nepsilon = 0.2\n")

    def test_entries_outside_the_keys_read_are_unknown(self):
        """A caller names the entries it reads; any other is reported at
        its line, as an unknown one is."""
        text = "workers = 2\nchi = 1.5\n"
        assert parse_config(text) == {"workers": 2, "chi": 1.5}
        with pytest.raises(ParseError,
                           match="run.cfg:2: unknown config entry: 'chi = 1.5'"):
            parse_config(text, "run.cfg", {"workers"})

    def test_seed_is_not_a_key(self):
        """No command reads a seed, so a config naming one is rejected."""
        with pytest.raises(ParseError,
                           match="run.cfg:2: unknown config entry: 'seed = 7'"):
            parse_config("epsilon = 0.1\nseed = 7\n", "run.cfg")


class TestBundledData:
    def test_compressed_air_config(self):
        tech = load_bundled_tech("aa_caes")
        crf = capital_recovery_factor(0.05, 20)
        assert tech.c_p == prorate_capital_cost(1250.0 * 1000, 0.05, 20)
        assert tech.c_e == prorate_capital_cost(150.0 * 1000, 0.05, 20)
        assert tech.c_p == pytest.approx(1_250_000 * crf / 365, rel=1e-12)
        assert tech.rho_min == 0.05 and tech.rho_max == 0.25
        assert tech.eta_ch * tech.eta_dis == pytest.approx(0.72)
        assert tech.eta_ch == split_round_trip_efficiency(0.72)

    def test_battery_config(self):
        tech = load_bundled_tech("libes")
        assert tech.c_p == prorate_capital_cost(409.0 * 1000, 0.05, 10)
        # energy capital is oversized for the 70% usable depth window
        assert tech.c_e == prorate_capital_cost(468.0 * 1000 / 0.7, 0.05, 10)
        assert tech.c_dis == libes_marginal_cost(406.0, 0.7, 1.5e-4) == 87.0
        assert tech.c_eu == pytest.approx(8.7)
        assert tech.c_ch == tech.c_ed == 0.0
        assert tech.rho_min == 0.1 and tech.rho_max == 4.0
        assert tech.eta_ch * tech.eta_dis == pytest.approx(0.9)

    def test_bundled_examples_parse_and_validate(self):
        from importlib import resources
        for name in ("m2", "neglmp"):
            root = resources.files("storageplan").joinpath(
                f"data/examples/{name}")
            net = parse_network(root.joinpath("network.txt").read_text())
            days = parse_days(root.joinpath("days.txt").read_text())
            tech = parse_tech(root.joinpath("tech.txt").read_text())
            assert validate_network(net, days).ok
            assert tech.eta_ch > 0

    @pytest.mark.parametrize("path, kind", [
        *((f"examples/{case}/{kind}.txt", kind)
          for case in ("m2", "neglmp")
          for kind in ("network", "days", "tech")),
        ("aa_caes.tech", "tech"), ("libes.tech", "tech")])
    def test_bundled_files_are_their_writers_output(self, path, kind):
        """Each bundled input file is, byte for byte, what its writer
        makes of the value it parses to."""
        from importlib import resources
        text = resources.files("storageplan").joinpath(
            f"data/{path}").read_text()
        parse = getattr(datafiles, f"parse_{kind}")
        write = getattr(datafiles, f"write_{kind}")
        assert write(parse(text)) == text
