import pytest

from storageplan import bench, cli, datafiles, lp_core, planner
from storageplan.instances import m2
from storageplan.model import Generator, Network, Plan, TypicalDay


@pytest.fixture()
def m2_files(tmp_path):
    inst = m2()
    paths = {}
    paths["network"] = tmp_path / "network.txt"
    paths["network"].write_text(datafiles.write_network(inst.net))
    paths["days"] = tmp_path / "days.txt"
    paths["days"].write_text(datafiles.write_days(inst.days))
    paths["tech"] = tmp_path / "tech.txt"
    paths["tech"].write_text(datafiles.write_tech(inst.tech))
    paths["plan"] = tmp_path / "plan.txt"
    paths["plan"].write_text(datafiles.write_plan(Plan({"b1": (8.0, 8.0)})))
    paths["out"] = tmp_path / "out"
    return paths


def run(args):
    return cli.main([str(a) for a in args])


def _never_called(*args, **kwargs):
    raise AssertionError("solved before the output directory was checked")


def base_args(cmd, paths, **extra):
    args = [cmd, "--network", paths["network"], "--days", paths["days"],
            "--tech", paths["tech"], "--out-dir", paths["out"]]
    for k, v in extra.items():
        args += [f"--{k}", v]
    return args


class TestPlanCommand:
    def test_success_and_report(self, m2_files, capsys):
        assert run(base_args("plan", m2_files)) == 0
        out = capsys.readouterr().out
        assert "schema_version = 1" in out
        assert "return_unachievable = false" in out
        assert "unachievable; no storage built" not in out
        assert (m2_files["out"] / "report.txt").exists()
        assert (m2_files["out"] / "trace.txt").exists()
        assert (m2_files["out"] / "plan.txt").exists()

    def test_out_dir_that_cannot_be_written(self, m2_files, capsys,
                                            monkeypatch):
        """An unwritable ``--out-dir`` is one located error line, found
        before the solve."""
        monkeypatch.setattr(planner, "outer_loop", _never_called)
        m2_files["out"].write_text("a file, not a directory\n")
        assert run(base_args("plan", m2_files)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {m2_files['out']}:0: "
                              "cannot create output directory: ")
        assert err.count("\n") == 1

    def test_reports_reproducible_modulo_timestamp(self, m2_files):
        assert run(base_args("plan", m2_files)) == 0
        first = (m2_files["out"] / "report.txt").read_text()
        assert run(base_args("plan", m2_files)) == 0
        second = (m2_files["out"] / "report.txt").read_text()

        def body(text):
            return [l for l in text.splitlines()
                    if not l.startswith("# generated")]
        assert body(first) == body(second)
        assert first.splitlines()[0].startswith("# generated")

    def test_unachievable_return(self, m2_files, capsys):
        assert run(base_args("plan", m2_files, chi="50")) == 0
        out = capsys.readouterr().out
        assert "return_unachievable = true" in out
        assert "required rate of return is unachievable; no storage built" \
            in out

    def test_iteration_limit_exit_code(self, m2_files, capsys):
        config = m2_files["out"].parent / "run.cfg"
        config.write_text("max_iter = 1\n")
        assert run(base_args("plan", m2_files, config=config)) == 2
        captured = capsys.readouterr()
        assert "converged = false" in captured.out
        assert "iteration limit reached" in captured.err

    def test_bad_epsilon(self, m2_files, capsys):
        assert run(base_args("plan", m2_files, epsilon="2.0")) == 1
        assert "epsilon must be in (0, 1)" in capsys.readouterr().err

    def test_missing_file(self, m2_files, capsys):
        m2_files["network"] = m2_files["network"].with_name("nope.txt")
        assert run(base_args("plan", m2_files)) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_network_without_buses(self, m2_files, capsys):
        m2_files["network"].write_text(
            "[buses]\n[candidates]\n[lines]\n[generators]\n")
        m2_files["days"].write_text("[day d1]\nweight = 1.0\nn_hours = 2\n")
        assert run(base_args("plan", m2_files)) == 1
        err = capsys.readouterr().err
        assert f"{m2_files['network']}:0: network has no buses" in err

    def test_negative_budget(self, m2_files, capsys):
        assert run(base_args("plan", m2_files, budget="-1")) == 1
        assert "budget must be nonnegative" in capsys.readouterr().err

    def test_infinite_config_value(self, m2_files, capsys):
        config = m2_files["out"].parent / "run.cfg"
        config.write_text("epsilon = 0.1\nmax_iter = inf\n")
        assert run(base_args("plan", m2_files, config=config)) == 1
        assert f"{config}:2: infinite value" in capsys.readouterr().err

    def test_negative_budget_min(self, m2_files, capsys):
        config = m2_files["out"].parent / "run.cfg"
        config.write_text("chi = 100\nbudget_min = -1\n")
        assert run(base_args("plan", m2_files, config=config)) == 1
        assert "budget_min must be nonnegative" in capsys.readouterr().err

    def test_nan_chi(self, m2_files, capsys):
        assert run(base_args("plan", m2_files, chi="nan")) == 1
        err = capsys.readouterr().err
        assert "chi must be a number, got nan" in err
        assert "budget" not in err

    def test_vacuous_chi_warns_on_one_line(self, m2_files, capsys):
        """A library warning is one ``warning:`` line on stderr, not a
        source location and line, and the plan still runs."""
        assert run(base_args("plan", m2_files, chi="0.5")) == 0
        assert capsys.readouterr().err == (
            "warning: rate of return 0.5 below 1 is vacuous; clamping to 1\n")

    def test_negative_ramp_window(self, m2_files, capsys):
        tech = m2_files["tech"]
        tech.write_text(tech.read_text().replace("t_ru = 1.0", "t_ru = -1.0"))
        assert run(base_args("plan", m2_files)) == 1
        assert f"{tech}:1: t_ru must be nonnegative and finite" \
            in capsys.readouterr().err

    def test_zero_outer_rounds(self, m2_files, capsys):
        config = m2_files["out"].parent / "run.cfg"
        config.write_text("max_outer = 0\n")
        assert run(base_args("plan", m2_files, config=config)) == 1
        assert "max_outer must be at least 1" in capsys.readouterr().err

    def test_zero_workers(self, m2_files, capsys):
        assert run(base_args("plan", m2_files, workers="0")) == 1
        assert "workers must be at least 1" in capsys.readouterr().err
        config = m2_files["out"].parent / "run.cfg"
        config.write_text("workers = 0\n")
        assert run(base_args("plan", m2_files, config=config)) == 1
        assert "workers must be at least 1" in capsys.readouterr().err

    def test_duplicate_candidate_rejected(self, m2_files, capsys):
        network = m2_files["network"]
        text = network.read_text()
        assert "[candidates]\nb1\n" in text
        network.write_text(text.replace("[candidates]\nb1\n",
                                        "[candidates]\nb1\nb1\n"))
        assert run(base_args("plan", m2_files)) == 1
        assert f"{network}:0: candidate bus b1: duplicate id" \
            in capsys.readouterr().err

    def test_usage_error_is_bad_input(self, m2_files, capsys):
        assert run(base_args("plan", m2_files, epsilon="abc")) == 1
        assert "invalid float value: 'abc'" in capsys.readouterr().err
        assert run(["plan", "--help"]) == 0
        assert "--workers" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["master", "sgsp"])
    def test_lp_not_optimal_exit_code(self, m2_files, capsys, monkeypatch,
                                      kind):
        """A master or marginal-unit LP that ends unbounded is an LP
        error (exit 2), as for every other LP."""
        real = lp_core.solve

        def solve(lp, starts=None):
            if lp.name.startswith(kind):
                return lp_core.LPSolution("unbounded", "Unbounded", 0)
            return real(lp, starts)

        monkeypatch.setattr(lp_core, "solve", solve)
        assert run(base_args("plan", m2_files)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unbounded" in err

    def test_invalid_network_rejected(self, m2_files, capsys):
        text = m2_files["network"].read_text().replace("g1 b1", "g1 b9")
        m2_files["network"].write_text(text)
        assert run(base_args("plan", m2_files)) == 1
        assert "unknown bus" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_success(self, m2_files, capsys):
        args = base_args("evaluate", m2_files) + \
            ["--plan", str(m2_files["plan"])]
        assert run(args) == 0
        out = capsys.readouterr().out
        assert "revenue = 320.000000" in out

    def test_repeated_plan_row(self, m2_files, capsys):
        m2_files["plan"].write_text("b1 8 8\nb1 3 4\n")
        args = base_args("evaluate", m2_files) + \
            ["--plan", str(m2_files["plan"])]
        assert run(args) == 1
        assert f"{m2_files['plan']}:2: repeated plan row for bus 'b1'" \
            in capsys.readouterr().err

    def test_negative_plan_row(self, m2_files, capsys):
        m2_files["plan"].write_text("b1 -1 -1\n")
        args = base_args("evaluate", m2_files) + \
            ["--plan", str(m2_files["plan"])]
        assert run(args) == 1
        assert "bus b1: negative rating" in capsys.readouterr().err

    def test_config_entry_it_does_not_read(self, m2_files, capsys):
        config = m2_files["out"].parent / "run.cfg"
        config.write_text("workers = 2\nepsilon = 0.1\n")
        args = base_args("evaluate", m2_files, config=config) + \
            ["--plan", str(m2_files["plan"])]
        assert run(args) == 1
        assert f"{config}:2: unknown config entry: 'epsilon = 0.1'" \
            in capsys.readouterr().err

    def test_infeasible_dispatch_exit_code(self, m2_files, capsys):
        # demand beyond total generating capacity
        text = m2_files["days"].read_text().replace("80.0", "500.0")
        m2_files["days"].write_text(text)
        args = base_args("evaluate", m2_files) + \
            ["--plan", str(m2_files["plan"])]
        assert run(args) == 3
        assert "infeasible" in capsys.readouterr().err


def _entry(report: str, name: str) -> float:
    """The value of ``name = value`` in a report."""
    prefix = f"{name} = "
    return float(next(line[len(prefix):] for line in report.splitlines()
                      if line.startswith(prefix)))


class TestPlanFileRoundTrip:
    """``plan`` writes the plan that ``evaluate --plan`` and ``dispatch
    --plan`` read back bit for bit."""

    def test_evaluate_reads_the_planned_ratings(self, m2_files, capsys):
        assert run(base_args("plan", m2_files)) == 0
        planned = capsys.readouterr().out
        plan_file = m2_files["out"] / "plan.txt"
        net = datafiles.parse_network(m2_files["network"].read_text())
        days = datafiles.parse_days(m2_files["days"].read_text())
        tech = datafiles.parse_tech(m2_files["tech"].read_text())
        result = planner.outer_loop(net, days, tech)
        plan = datafiles.parse_plan(plan_file.read_text())
        assert plan.ratings and plan.ratings == result.plan.ratings
        assert planner.evaluate_plan(net, days, tech, plan).system_cost \
            == pytest.approx(result.system_cost, rel=1e-9, abs=0)
        args = base_args("evaluate", m2_files) + ["--plan", plan_file]
        assert run(args) == 0
        evaluated = capsys.readouterr().out
        assert _entry(evaluated, "system_cost") == pytest.approx(
            _entry(planned, "system_cost"), rel=1e-9, abs=0)
        args = base_args("dispatch", m2_files) + ["--plan", plan_file]
        assert run(args) == 0

    def test_unachievable_return_writes_the_zero_plan(self, m2_files,
                                                      capsys):
        assert run(base_args("plan", m2_files, chi="50")) == 0
        capsys.readouterr()
        plan_file = m2_files["out"] / "plan.txt"
        assert datafiles.parse_plan(plan_file.read_text()).ratings == {}
        args = base_args("evaluate", m2_files) + ["--plan", plan_file]
        assert run(args) == 0
        out = capsys.readouterr().out
        assert "[plan]\n[day_costs]" in out
        assert _entry(out, "investment_cost") == 0
        assert _entry(out, "system_cost") == _entry(out, "baseline_cost")


@pytest.mark.parametrize("cmd", ["evaluate", "dispatch"])
class TestPlanFile:
    """A plan that does not fit the case is reported at its file."""

    def check(self, m2_files, capsys, cmd, row, message):
        m2_files["plan"].write_text(row + "\n")
        args = base_args(cmd, m2_files) + ["--plan", str(m2_files["plan"])]
        assert run(args) == 1
        assert f"error: {m2_files['plan']}:0: {message}" \
            in capsys.readouterr().err

    def test_bus_not_a_candidate(self, m2_files, capsys, cmd):
        self.check(m2_files, capsys, cmd, "b9 1 1",
                   "plan bus b9 is not a storage candidate")

    def test_ratio_outside_bounds(self, m2_files, capsys, cmd):
        self.check(m2_files, capsys, cmd, "b1 50 1",
                   "bus b1: power/energy ratio 50 outside [0.1, 4.0]")


class TestOracleCommand:
    def test_success(self, m2_files, capsys):
        assert run(base_args("oracle", m2_files)) == 0
        out = capsys.readouterr().out
        assert "system_cost = 1720.000000" in out
        assert (m2_files["out"] / "oracle.txt").exists()

    def test_negative_budget(self, m2_files, capsys):
        assert run(base_args("oracle", m2_files, budget="-1")) == 1
        assert "budget must be nonnegative" in capsys.readouterr().err

    def test_no_workers_option(self, m2_files, capsys):
        # the monolithic LP is one HiGHS run: there is nothing to thread
        assert run(base_args("oracle", m2_files, workers="2")) == 1
        assert "unrecognized arguments: --workers 2" \
            in capsys.readouterr().err

    def test_infeasible_case_names_its_day(self, m2_files, capsys):
        # 50 MW of generation against 60 MW of demand in hour 2
        net = Network(buses=("b1",), lines=(), candidate_buses=("b1",),
                      generators=(Generator("g1", "b1", 50.0, 0.0, 1e6, 1e6,
                                            20.0, 0.0, 0.0),))
        day = TypicalDay(day_id="d1", weight=1.0, n_hours=3,
                         demand={"b1": (40.0, 60.0, 40.0)},
                         phi_d=0.0, phi_r=0.0)
        m2_files["network"].write_text(datafiles.write_network(net))
        m2_files["days"].write_text(datafiles.write_days([day]))
        args = base_args("oracle", m2_files)
        args[args.index("--tech") + 1] = "libes"
        assert run(args) == 3
        assert "error: dispatch infeasible on day d1 (hour 2)" \
            in capsys.readouterr().err

    def test_day_violation_reported_at_days_file(self, m2_files, capsys):
        days = m2_files["days"]
        days.write_text(days.read_text().replace("weight = 1.0",
                                                 "weight = -1"))
        assert run(base_args("oracle", m2_files)) == 1
        err = capsys.readouterr().err
        assert f"error: {days}:0: day d1: negative weight" in err
        assert str(m2_files["network"]) not in err

    def test_config_entry_it_does_not_read(self, m2_files, capsys):
        """The oracle reads only budget_max from a config: a workers
        entry, which plan would check, is unknown at its line."""
        config = m2_files["out"].parent / "run.cfg"
        config.write_text("workers = 0\n")
        assert run(base_args("oracle", m2_files, config=config)) == 1
        assert f"{config}:1: unknown config entry: 'workers = 0'" \
            in capsys.readouterr().err
        config.write_text("budget_max = 1e3\n")
        assert run(base_args("oracle", m2_files, config=config)) == 0

    def test_solver_failure_exit_code(self, m2_files, capsys, monkeypatch):
        monkeypatch.setattr(lp_core, "linprog", lambda *args, **kwargs:
                            lp_core.LPSolution(lp_core.FAILED, "Unknown", 0))
        assert run(base_args("oracle", m2_files)) == 2
        assert "error: solver failure on monolithic: Unknown" \
            in capsys.readouterr().err


class TestDispatchCommand:
    def test_tables_written(self, m2_files, capsys):
        args = base_args("dispatch", m2_files) + \
            ["--plan", str(m2_files["plan"])]
        assert run(args) == 0
        assert "weighted_operating_cost = 1780.000000" \
            in capsys.readouterr().out
        assert (m2_files["out"] / "dispatch.txt").exists()
        assert (m2_files["out"] / "prices.txt").exists()

    def test_config_is_read(self, m2_files, capsys):
        config = m2_files["out"].parent / "run.cfg"
        config.write_text("workers = 2\n")
        args = base_args("dispatch", m2_files, config=config)
        assert run(args) == 0
        assert "weighted_operating_cost = 2100.000000" \
            in capsys.readouterr().out
        config.write_text("workers = 2\nverbosity = 3\n")
        assert run(args) == 1
        assert f"{config}:2: unknown config entry" in capsys.readouterr().err


    def test_negative_workers(self, m2_files, capsys):
        assert run(base_args("dispatch", m2_files, workers="-2")) == 1
        assert "workers must be at least 1" in capsys.readouterr().err


class TestClusterCommand:
    def _profiles(self, tmp_path):
        lines = ["hour b1:demand b1:renewable"]
        hour = 0
        for d in range(4):
            for h in range(24):
                v = 50 + (10 if d % 2 else -10)
                lines.append(f"{hour} {v + h % 3} {max(0, v - 45)}")
                hour += 1
        path = tmp_path / "profiles.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_cluster(self, tmp_path, capsys):
        path = self._profiles(tmp_path)
        out = tmp_path / "out"
        assert run(["cluster", "--profiles", path, "--clusters", "2",
                    "--out-dir", out]) == 0
        text = (out / "days.txt").read_text()
        days = datafiles.parse_days(text)
        assert len(days) == 2
        assert sum(d.weight for d in days) == 4

    def test_header_without_data_column(self, tmp_path, capsys):
        path = tmp_path / "profiles.txt"
        path.write_text("hour\n" + "".join(f"{h}\n" for h in range(24)))
        assert run(["cluster", "--profiles", path, "--clusters", "1",
                    "--out-dir", tmp_path]) == 1
        assert f"error: {path}:1: header names no " \
            in capsys.readouterr().err

    def test_bad_cluster_count(self, tmp_path, capsys):
        path = self._profiles(tmp_path)
        assert run(["cluster", "--profiles", path, "--clusters", "9",
                    "--out-dir", tmp_path]) == 1
        assert "cluster count" in capsys.readouterr().err


class TestBundledTech:
    def test_named_tech_accepted(self, m2_files, capsys):
        args = base_args("dispatch", m2_files)
        args[args.index("--tech") + 1] = "libes"
        assert run(args) == 0


class TestBenchCommand:
    def test_small_sizes(self, tmp_path, capsys):
        assert run(["bench", "--seed", "0", "--sizes", "1", "2",
                    "--out-dir", tmp_path]) == 0
        text = (tmp_path / "bench.txt").read_text()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(lines) == 2
        assert lines[0].startswith("1 ")

    def test_out_dir_that_cannot_be_written(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(bench, "scaling_benchmark", _never_called)
        out = tmp_path / "out"
        out.write_text("a file, not a directory\n")
        assert run(["bench", "--sizes", "1", "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {out}:0: cannot create output directory: ")
        assert err.count("\n") == 1

    def test_bad_sizes(self, tmp_path, capsys):
        assert run(["bench", "--sizes", "0", "--out-dir", tmp_path]) == 1

    def test_negative_seed(self, tmp_path, capsys):
        assert run(["bench", "--seed", "-1", "--sizes", "1",
                    "--out-dir", tmp_path]) == 1
        assert "error: bench seed must be nonnegative" \
            in capsys.readouterr().err

    def test_zero_epsilon(self, tmp_path, capsys):
        assert run(["bench", "--sizes", "1", "--epsilon", "0",
                    "--out-dir", tmp_path]) == 1
        assert "epsilon must be in (0, 1)" in capsys.readouterr().err
