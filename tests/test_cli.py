import contextlib
import copy
import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehcr.cli import main
from ehcr.presets import load_preset
from helpers import bias_detection, child_env, deadline


@pytest.fixture
def fast_config(tmp_path):
    """Testbench with a coarse grid so CLI runs stay quick."""
    doc = copy.deepcopy(load_preset("testbench"))
    doc["grid"] = {"tau_min": 2e-3, "lambda_count": 6}
    doc["sim"] = {"slots": 20_000, "seed": 99}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def policy_file(tmp_path, testbench_params):
    from ehcr.chain import action_ranges

    alpha_range, beta_range = action_ranges(testbench_params, 5e-4)
    doc = {
        "alpha": [0.5] * len(alpha_range),
        "beta1": [0.3] * len(beta_range),
        "beta2": [0.5] * len(beta_range),
        "tau": 5e-4,
        "lambda": 30.0,
    }
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as stream:
        return list(csv.reader(stream))


class TestOptimizeCommand:
    def test_success_row(self, fast_config, tmp_path):
        out = tmp_path / "result.csv"
        code = main(["optimize", "--config", str(fast_config),
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["rho", "scheme", "tau_star", "lambda_star",
                           "mu_s", "mu_p", "p_S", "p_A", "tau_bar"]
        assert len(rows) == 2
        assert rows[1][1] == "probabilistic"
        assert 0.0 < float(rows[1][4]) < 1.0

    def test_deterministic_output(self, fast_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["optimize", "--config", str(fast_config),
                     "--rho", "0.4", "--out", str(out1)]) == 0
        assert main(["optimize", "--config", str(fast_config),
                     "--rho", "0.4", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_infeasible_floor(self, fast_config, tmp_path):
        doc = json.loads(fast_config.read_text())
        doc["mu_th"] = 0.99
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(doc))
        assert main(["optimize", "--config", str(strict)]) == 2

    def test_low_ambient_harvest_only(self, fast_config, tmp_path):
        # the top battery level is reached only through a Poisson tail; a
        # winner that idles there has two closed classes, or succeeds never
        doc = json.loads(fast_config.read_text())
        doc.update(eta=0.0, lambda_e=1.0)
        doc["grid"] = {"tau_min": 2e-3, "lambda_count": 4}
        fast_config.write_text(json.dumps(doc))
        out = tmp_path / "result.csv"
        assert main(["optimize", "--config", str(fast_config),
                     "--out", str(out)]) == 0
        assert float(read_rows(out)[1][4]) > 0.0

    def test_missing_config_file(self):
        assert main(["optimize", "--config", "/nonexistent/nope.json"]) == 1

    def test_invalid_config_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = copy.deepcopy(load_preset("testbench"))
        del doc["mu_th"]
        bad.write_text(json.dumps(doc))
        assert main(["optimize", "--config", str(bad)]) == 1

    def test_preset_name_accepted(self, tmp_path):
        # full preset grid is large; give it the sensing-only scheme at a
        # fixed rho to keep this a smoke check of preset resolution
        out = tmp_path / "preset.csv"
        code = main(["optimize", "--config", "paper_table1", "--rho", "0.3",
                     "--out", str(out)])
        assert code in (0, 2)  # feasibility depends on the preset scales
        assert out.exists() or code == 2


class TestBadInputsExitOne:
    """Invalid overrides and settings exit 1 with one line, no traceback."""

    @staticmethod
    def one_line_error(capsys) -> str:
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert "Traceback" not in err
        return err

    def test_rho_override_revalidated(self, fast_config, capsys):
        assert main(["optimize", "--config", str(fast_config),
                     "--rho", "1.5"]) == 1
        assert "rho out of [0,1]" in self.one_line_error(capsys)

    def test_rho_override_revalidated_for_sweep(self, fast_config, capsys):
        assert main(["sweep", "--config", str(fast_config),
                     "--from", "0.5", "--to", "1.5", "--steps", "2"]) == 1
        assert "rho out of [0,1]" in self.one_line_error(capsys)

    def test_rho_override_revalidated_for_simulation(self, fast_config,
                                                     policy_file, capsys):
        for command in ("simulate", "validate"):
            assert main([command, "--config", str(fast_config),
                         "--policy", str(policy_file), "--rho", "-0.2"]) == 1
            assert "rho out of [0,1]" in self.one_line_error(capsys)

    @pytest.mark.parametrize("bounds, message", [
        (["--from", "0.1", "--to", "inf"], "sweep --to must be finite, got inf"),
        (["--from=-inf", "--to", "0.5"], "sweep --from must be finite, got -inf"),
    ])
    def test_non_finite_sweep_bound(self, fast_config, capsys, bounds, message):
        # an infinite bound used to reach np.linspace, which warned and
        # handed NaN occupancies to the parameter check
        assert main(["sweep", "--config", str(fast_config), *bounds,
                     "--steps", "2"]) == 1
        assert message in self.one_line_error(capsys)

    def test_zero_slots(self, fast_config, policy_file, capsys):
        assert main(["simulate", "--config", str(fast_config),
                     "--policy", str(policy_file), "--slots", "0"]) == 1
        assert "slots must be >= 1" in self.one_line_error(capsys)

    def test_negative_seed(self, fast_config, policy_file, capsys):
        for command in ("simulate", "validate"):
            assert main([command, "--config", str(fast_config),
                         "--policy", str(policy_file), "--seed", "-1"]) == 1
            assert "seed must be >= 0" in self.one_line_error(capsys)

    def test_initial_battery_above_capacity(self, policy_file, capsys):
        for command in ("simulate", "validate"):
            assert main([command, "--config", "testbench",
                         "--policy", str(policy_file), "--slots", "100",
                         "--initial-battery", "99"]) == 1
            assert "exceeds N_max=20" in self.one_line_error(capsys)

    @pytest.mark.parametrize("key, value", [("slots", math.nan),
                                            ("slots", 2.5), ("seed", math.inf)])
    def test_bad_simulation_defaults(self, fast_config, policy_file, capsys,
                                     key, value):
        doc = json.loads(fast_config.read_text())
        doc["sim"][key] = value
        fast_config.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(fast_config),
                     "--policy", str(policy_file)]) == 1
        assert f"{key} must be an integer" in self.one_line_error(capsys)

    @pytest.mark.parametrize("target, message", [
        ("missing/result.csv", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unwritable_output(self, fast_config, policy_file, tmp_path,
                               capsys, target, message):
        # used to end in a FileNotFoundError or IsADirectoryError traceback
        # after the whole run
        out = tmp_path / target
        assert main(["simulate", "--config", str(fast_config),
                     "--policy", str(policy_file), "--slots", "100",
                     "--out", str(out)]) == 1
        err = self.one_line_error(capsys)
        assert f"cannot write output {str(out)!r}: {message}" in err

    @pytest.mark.parametrize("link, distance", [("p", 1e-200), ("pst", 1e200)])
    def test_link_mean_gain_out_of_range(self, fast_config, capsys, link,
                                         distance):
        # the squared distance underflowed or overflowed inside the search
        doc = json.loads(fast_config.read_text())
        doc["links"][link]["distance"] = distance
        fast_config.write_text(json.dumps(doc))
        assert main(["optimize", "--config", str(fast_config)]) == 1
        assert "mean gain" in self.one_line_error(capsys)

    def test_chain_without_harvest(self, fast_config, policy_file, capsys):
        # no licensed activity and no ambient source: nothing is harvested,
        # so every battery level is absorbing and no stationary law is unique
        doc = json.loads(fast_config.read_text())
        doc.update(rho=0.0, lambda_e=0.0)
        fast_config.write_text(json.dumps(doc))
        assert main(["optimize", "--config", str(fast_config)]) == 1
        assert "21 closed classes" in self.one_line_error(capsys)
        assert main(["validate", "--config", str(fast_config),
                     "--policy", str(policy_file), "--slots", "100"]) == 1
        assert "10 closed classes" in self.one_line_error(capsys)

    @pytest.mark.parametrize("section, value, message", [
        ("grid", 5, "invalid grid: the section must be an object"),
        ("grid", [], "invalid grid: the section must be an object"),
        ("sim", 5, "invalid sim: the section must be an object"),
        ("grid", {"tau_min": 2e-3, "lambda_count": True},
         "lambda_count must be an integer"),
        ("grid", {"tau_min": 2e-3, "lambdas": 5},
         "invalid grid: 'lambdas' must be a list of numbers, got 5"),
        ("grid", {"tau_min": 2e-3, "lambdas": []},
         "invalid grid: explicit lambda_values is empty"),
        (None, 5, "error: configuration must be a JSON object, got int"),
    ])
    def test_malformed_config_section(self, fast_config, capsys, section,
                                      value, message):
        # a non-object section used to end in a traceback, and a boolean
        # lambda_count passed as 1 and searched a single threshold; a section
        # of None replaces the whole document
        doc = json.loads(fast_config.read_text())
        if section is None:
            doc = value
        else:
            doc[section] = value
        fast_config.write_text(json.dumps(doc))
        assert main(["optimize", "--config", str(fast_config)]) == 1
        assert message in self.one_line_error(capsys)

    @pytest.mark.parametrize("argv, message", [
        (["optimize", "--config", "testbench", "--scheme", "bogus"],
         "argument --scheme: invalid choice: 'bogus'"),
        (["optimize", "--config", "testbench", "--rho", "abc"],
         "argument --rho: invalid float value: 'abc'"),
        (["sweep", "--config", "testbench", "--from", "0.1", "--to", "0.9"],
         "the following arguments are required: --steps"),
        (["bogus"], "invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        # sweep sets rho itself, so it has no --rho to ignore
        (["sweep", "--config", "testbench", "--from", "0.1", "--to", "0.9",
          "--steps", "2", "--rho", "0.3"], "unrecognized arguments: --rho 0.3"),
    ])
    def test_usage_error(self, capsys, argv, message):
        # exit 2 is an infeasible optimization; a usage error is exit 1
        assert main(argv) == 1
        err = self.one_line_error(capsys)
        assert err.startswith("error: ehcr") and message in err
        assert "usage:" not in err

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["sweep", "--help"]):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            assert stop.value.code == 0
            assert "usage:" in capsys.readouterr().out

    def test_negative_min_samples(self, fast_config, policy_file, capsys):
        assert main(["validate", "--config", str(fast_config),
                     "--policy", str(policy_file), "--slots", "100",
                     "--min-samples", "-5"]) == 1
        assert ("min_samples must be >= 0, got -5"
                in self.one_line_error(capsys))

    def test_sensing_below_two_samples(self, policy_file, testbench_params,
                                       capsys):
        # the averaged detector rejects a sensing policy at m = 1; both
        # commands report it as the configuration error it is
        from ehcr.chain import action_ranges

        alpha_range, beta_range = action_ranges(testbench_params, 5e-5)
        doc = json.loads(policy_file.read_text())
        doc.update(tau=5e-5, alpha=[0.5] * len(alpha_range),
                   beta1=[0.3] * len(beta_range), beta2=[0.5] * len(beta_range))
        policy_file.write_text(json.dumps(doc))
        errors = []
        for command in ("simulate", "validate"):
            assert main([command, "--config", "testbench", "--policy",
                         str(policy_file), "--slots", "100"]) == 1
            errors.append(self.one_line_error(capsys))
        assert errors[0] == errors[1]
        assert errors[0].startswith("configuration error: ")
        assert "time-bandwidth product of at least 2, got m=1" in errors[0]

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("threshold", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_policy_threshold(self, fast_config, policy_file, capsys,
                                  command, threshold):
        doc = json.loads(policy_file.read_text())
        doc["lambda"] = threshold
        policy_file.write_text(json.dumps(doc))
        assert main([command, "--config", str(fast_config),
                     "--policy", str(policy_file), "--slots", "100"]) == 1
        err = self.one_line_error(capsys)
        assert "invalid policy document" in err
        assert "threshold must be positive and finite" in err

    def test_grid_with_non_integral_samples(self, fast_config, capsys):
        doc = json.loads(fast_config.read_text())
        doc["grid"]["tau_min"] = 0.00033
        fast_config.write_text(json.dumps(doc))
        assert main(["optimize", "--config", str(fast_config)]) == 1
        assert "tau*W = 6.6" in self.one_line_error(capsys)

    @pytest.mark.parametrize("command, target, name", [
        ("optimize", "ehcr.cli", "optimize"),
        ("simulate", "ehcr.simulator", "run"),
        ("validate", "ehcr.simulator", "compare"),
    ])
    def test_library_value_error(self, fast_config, policy_file, capsys,
                                 monkeypatch, command, target, name):
        # main owns every ValueError the library raises inside a command
        def refuse(*args, **kwargs):
            raise ValueError("refused by the library")

        monkeypatch.setattr(f"{target}.{name}", refuse)
        argv = [command, "--config", str(fast_config)]
        if command != "optimize":
            argv += ["--policy", str(policy_file), "--slots", "100"]
        assert main(argv) == 1
        assert self.one_line_error(capsys) == "error: refused by the library\n"


#: keys of the configuration document that must be positive and finite
_POSITIVE_KEYS = ("P_p", "sigma_n2", "T", "W", "b_p", "b_s", "E_u", "E_t",
                  "e_proc", "f_s")
_LINK_KEYS = tuple(f"links.{name}.{field}" for name in ("p", "pst", "ps", "s", "sp")
                   for field in ("fading_mean", "distance"))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_BELOW_ZERO = st.floats(max_value=-1e-300)


def _invalid_values(key: str):
    """NaN, +-inf or an out-of-range value for one configuration key."""
    if key in _POSITIVE_KEYS or key in _LINK_KEYS or key == "grid.tau_min":
        out_of_range = st.floats(max_value=0.0)
    elif key == "lambda_e":
        out_of_range = _BELOW_ZERO
    elif key in ("rho", "eta", "mu_th"):
        out_of_range = _BELOW_ZERO | st.floats(min_value=1.0, exclude_min=True)
    elif key == "grid.lambdas":
        out_of_range = st.floats(max_value=0.0).map(lambda v: [v])
        return _NON_FINITE.map(lambda v: [v]) | out_of_range
    else:  # N_max, grid.lambda_count
        out_of_range = st.integers(-50, 0) | st.sampled_from([2.5, 19.5])
    return _NON_FINITE | out_of_range


_BAD_SETTINGS = st.sampled_from(
    _POSITIVE_KEYS + _LINK_KEYS
    + ("lambda_e", "rho", "eta", "mu_th", "N_max", "grid.tau_min",
       "grid.lambdas", "grid.lambda_count")
).flatmap(lambda key: st.tuples(st.just(key), _invalid_values(key)))


def _run_in_process(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestInvalidConfigValues:
    """Every config with one bad value exits 1 with one stderr line."""

    @settings(max_examples=100)
    @given(setting=_BAD_SETTINGS)
    def test_one_bad_value_exits_one(self, tmp_path_factory, setting):
        key, value = setting
        doc = copy.deepcopy(load_preset("testbench"))
        doc["grid"] = {"tau_min": 2e-3, "lambda_count": 6}
        *parents, leaf = key.split(".")
        section = doc
        for name in parents:
            section = section[name]
        section[leaf] = value
        path = tmp_path_factory.getbasetemp() / "bad_config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with deadline(20.0):
            code, out, err = _run_in_process(["optimize", "--config", str(path)])
        assert code == 1, (key, value, out, err)
        assert out == ""
        assert len(err.strip().splitlines()) == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value, message", [
        ("P_p", math.nan, "P_p must be finite"),
        ("lambda_e", math.inf, "lambda_e must be finite"),
        ("sigma_n2", math.inf, "sigma_n2 must be finite"),
        ("E_u", math.inf, "E_u must be finite"),
        ("E_u", 1e-320, "E_t / E_u must be finite"),
        ("P_p", 1e308, "mean sensing SNR"),
        ("sigma_n2", 1e-320, "mean sensing SNR"),
        ("W", 1e-320, "invalid grid"),
        ("T", 1e300, "invalid grid"),
        ("b_p", 5e-324, "b_p / (T * W) must be positive"),
        ("b_s", 5e-324, "b_s / (T * W) must be positive"),
    ])
    def test_reported_cases(self, fast_config, key, value, message):
        # NaN power used to hang the search, the infinities to end in a
        # traceback or a result computed from n_t = 0; the finite extremes
        # overflowed n_t, the mean sensing SNR or snapped tau*W to 0, each
        # ending in a traceback, and a slot of 1e300 s listed its sensing
        # times until memory was gone; a packet size whose spectral
        # efficiency underflowed to 0 ended in the outage law's traceback
        doc = json.loads(fast_config.read_text())
        doc[key] = value
        fast_config.write_text(json.dumps(doc))
        with deadline(20.0):
            code, out, err = _run_in_process(["optimize", "--config",
                                              str(fast_config)])
        assert code == 1 and out == ""
        assert message in err and len(err.strip().splitlines()) == 1, err


    def test_transmission_ratio_underflow(self, fast_config):
        # E_t / E_u underflows to 0: n_t was 0 and a transmission cost
        # nothing, so the search ran on a battery that transmits for free
        doc = json.loads(fast_config.read_text())
        doc.update(E_u=10.0, E_t=5e-324)
        fast_config.write_text(json.dumps(doc))
        code, out, err = _run_in_process(["optimize", "--config",
                                          str(fast_config)])
        assert (code, out) == (1, "")
        assert err.strip().splitlines() == [
            "error: invalid parameters: E_t / E_u must be positive, got "
            "E_t=5e-324, E_u=10.0"]


#: finite extremes that ``validate`` admits, for the simulation commands
_ADMITTED_EXTREMES = [{"P_p": 1e-320}, {"b_s": 2e5}, {"b_p": 1e8},
                      {"P_p": 1e20}, {"P_p": 1e300}, {"lambda_e": 1e300}]


class TestExtremeConfigValues:
    """Finite but extreme constants the model admits: each command exits
    with its documented code and at most one stderr line; each case used to
    end in a traceback."""

    @staticmethod
    def override(config, overrides):
        doc = json.loads(config.read_text())
        doc.update(overrides)
        config.write_text(json.dumps(doc))

    @pytest.mark.parametrize("overrides, code", [
        ({"b_p": 1e8}, 2),  # no licensed-user success: the floor is out of reach
        ({"P_p": 1e-320}, 2),
        ({"b_s": 2e5}, 0),
        ({"e_proc": 1e16}, 0),
        ({"f_s": 1e24}, 0),
        ({"e_proc": 1e300, "f_s": 1e300}, 0),
    ])
    def test_optimize(self, fast_config, overrides, code):
        self.override(fast_config, overrides)
        with deadline(60.0):
            got, out, err = _run_in_process(["optimize", "--config",
                                             str(fast_config)])
        assert got == code, err
        if code == 0:
            assert err == "" and out.startswith("rho,scheme")
        else:
            assert out == "" and err.startswith("infeasible: ")
            assert len(err.splitlines()) == 1

    # a harvest of 1e20 W or 1e300 packets/s overflowed the simulator's RF
    # count cast or numpy's Poisson domain
    @pytest.mark.parametrize("overrides", _ADMITTED_EXTREMES)
    def test_simulate(self, fast_config, policy_file, overrides):
        self.override(fast_config, overrides)
        with deadline(60.0):
            got, out, err = _run_in_process(
                ["simulate", "--config", str(fast_config),
                 "--policy", str(policy_file), "--slots", "2000"])
        assert got == 0 and err == ""
        assert out.startswith("metric,value")

    @pytest.mark.parametrize("overrides", _ADMITTED_EXTREMES)
    def test_validate(self, fast_config, policy_file, overrides):
        self.override(fast_config, overrides)
        with deadline(60.0):
            got, out, err = _run_in_process(
                ["validate", "--config", str(fast_config),
                 "--policy", str(policy_file), "--slots", "2000"])
        assert got in (0, 3) and err == ""
        assert out.startswith("metric,analytic")

    @pytest.mark.parametrize("P_p", [1e20, 1e300])
    def test_faithful_detection_past_chndtr_range(self, fast_config,
                                                  policy_file, P_p):
        # the detection tail was NaN at these powers, so every licensed-busy
        # sensed slot was declared free; detection is certain there, as it
        # already is at 1e12
        def faithful(command, P_p):
            self.override(fast_config, {"P_p": P_p})
            with deadline(60.0):
                code, out, err = _run_in_process(
                    [command, "--config", str(fast_config),
                     "--policy", str(policy_file), "--slots", "2000",
                     "--seed", "3", "--mode", "faithful"])
            assert err == ""
            return code, {row[0]: row[1:] for row in csv.reader(io.StringIO(out))}

        (code, huge), (_, moderate) = (faithful("simulate", P_p),
                                       faithful("simulate", 1e12))
        assert code == 0
        for metric in ("p_S", "p_A", "pu_active_slots", "su_tx_slots"):
            assert huge[metric] == moderate[metric], metric
        code, rows = faithful("validate", P_p)
        assert code in (0, 3) and "p_sense" in rows

    def test_sensing_energy_below_float_range(self, fast_config, tmp_path):
        # the sensing cost's ratio to E_u underflows to 0: sensing cost
        # nothing, so level 10 could sense, and a policy sensing there was
        # accepted; sensing now costs one packet
        self.override(fast_config, {"E_u": 1000.0, "E_t": 10000.0,
                                    "e_proc": 5e-324})
        policy = tmp_path / "policy.json"
        outcomes = []
        for blind_only, full in ((0, 11), (1, 10)):
            policy.write_text(json.dumps({
                "alpha": [0.5] * blind_only, "beta1": [0.3] * full,
                "beta2": [0.5] * full, "tau": 5e-4, "lambda": 30.0}))
            outcomes.append(_run_in_process(
                ["simulate", "--config", str(fast_config),
                 "--policy", str(policy), "--slots", "2000"]))
        (code, out, err), accepted = outcomes
        assert (code, out) == (1, "")
        assert "alpha must cover levels 10..10 (1 entries), got 0" in err
        assert accepted[0] == 0 and accepted[2] == ""


class TestOutputFailures:
    def test_closed_stdout_exits_one_quietly(self, fast_config, policy_file):
        # the reader closes the pipe before the CSV is written; this used to
        # end in a BrokenPipeError traceback
        proc = subprocess.Popen(
            [sys.executable, "-m", "ehcr.cli", "simulate",
             "--config", str(fast_config), "--policy", str(policy_file),
             "--slots", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        proc.stdout.close()
        with deadline(120.0):
            err = proc.stderr.read()
            code = proc.wait()
        proc.stderr.close()
        assert code == 1
        assert err == b""

    @pytest.mark.parametrize("command, target, error", [
        ("simulate", "ehcr.simulator.run",
         MemoryError("Unable to allocate 745. GiB for an array")),
        ("optimize", "ehcr.cli.optimize", MemoryError()),
    ])
    def test_out_of_memory_exits_one(self, fast_config, policy_file,
                                     monkeypatch, command, target, error):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(target, exhausted)
        argv = [command, "--config", str(fast_config)]
        if command == "simulate":
            argv += ["--policy", str(policy_file)]
        code, out, err = _run_in_process(argv)
        assert code == 1 and out == ""
        assert err.startswith("error: out of memory")
        assert len(err.splitlines()) == 1
        assert str(error) in err


class TestSweepCommand:
    def test_row_grid(self, fast_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(fast_config),
                     "--from", "0.2", "--to", "0.8", "--steps", "2",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        # 2 occupancy values x 2 schemes x 3 harvest modes
        assert len(rows) == 1 + 12
        assert rows[0][:4] == ["rho", "scheme", "harvest_mode", "status"]
        modes = [row[2] for row in rows[1:]]
        assert modes[:3] == ["nature", "rf", "mixed"]
        assert all(row[3] in {"ok", "infeasible", "error"} for row in rows[1:])
        assert all(row[3] == "ok" for row in rows[1:])
        # rowwise dominance surfaced end to end: the unrestricted scheme
        # beats sensing-only, and dual-source harvesting beats either alone
        mu_s = {(row[0], row[1], row[2]): float(row[6]) for row in rows[1:]}
        for rho in {row[0] for row in rows[1:]}:
            for mode in ("nature", "rf", "mixed"):
                assert mu_s[(rho, "probabilistic", mode)] >= \
                    mu_s[(rho, "sensing_only", mode)] - 1e-9
            for scheme in ("probabilistic", "sensing_only"):
                mixed = mu_s[(rho, scheme, "mixed")]
                assert mixed >= mu_s[(rho, scheme, "nature")] - 1e-9
                assert mixed >= mu_s[(rho, scheme, "rf")] - 1e-9

    def test_zero_harvest_cell_is_an_error_row(self, fast_config, tmp_path,
                                                capsys):
        # at rho 0 the rf mode harvests nothing: that cell alone fails
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(fast_config), "--from", "0.0",
                     "--to", "0.2", "--steps", "2", "--scheme", "probabilistic",
                     "--out", str(out)]) == 0
        statuses = {(row[0], row[2]): row[3] for row in read_rows(out)[1:]}
        assert statuses.pop(("0", "rf")) == "error"
        assert set(statuses.values()) == {"ok"} and len(statuses) == 5
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("rho=0.0 probabilistic/rf: chain is reducible")

    def test_single_scheme_selected(self, fast_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(fast_config),
                     "--from", "0.3", "--to", "0.6", "--steps", "2",
                     "--scheme", "sensing_only", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1 + 6
        assert {row[1] for row in rows[1:]} == {"sensing_only"}

    def test_bad_range_rejected(self, fast_config):
        assert main(["sweep", "--config", str(fast_config),
                     "--from", "0.8", "--to", "0.2", "--steps", "3"]) == 1
        assert main(["sweep", "--config", str(fast_config),
                     "--from", "0.1", "--to", "0.9", "--steps", "1"]) == 1

    def test_unknown_parameter_rejected(self, fast_config):
        assert main(["sweep", "--config", str(fast_config), "--param", "eta",
                     "--from", "0.1", "--to", "0.9", "--steps", "2"]) == 1


class TestSimulateCommand:
    def test_report_csv(self, fast_config, policy_file, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--config", str(fast_config),
                     "--policy", str(policy_file),
                     "--slots", "5000", "--seed", "12", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["metric", "value", "stderr"]
        metrics = {row[0] for row in rows[1:]}
        assert {"mu_p", "mu_s", "p_S", "p_A", "occupancy_0"} <= metrics

    def test_deterministic_for_fixed_seed(self, fast_config, policy_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--config", str(fast_config),
                "--policy", str(policy_file), "--slots", "4000", "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_policy(self, fast_config):
        assert main(["simulate", "--config", str(fast_config),
                     "--policy", "/nonexistent/p.json"]) == 1

    def test_malformed_policy(self, fast_config, tmp_path):
        bad = tmp_path / "bad_policy.json"
        bad.write_text(json.dumps({"alpha": [0.5], "tau": 5e-4}))
        assert main(["simulate", "--config", str(fast_config),
                     "--policy", str(bad)]) == 1


class TestValidateCommand:
    def test_agreement_exits_zero(self, fast_config, policy_file, tmp_path):
        out = tmp_path / "val.csv"
        code = main(["validate", "--config", str(fast_config),
                     "--policy", str(policy_file),
                     "--slots", "50000", "--seed", "21", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["metric", "analytic", "empirical", "stderr",
                           "zscore", "flagged", "note"]
        assert all(row[5] == "0" for row in rows[1:] if row[0] != "warning")

    def test_injected_detection_fault_caught(self, fast_config, policy_file,
                                             tmp_path, monkeypatch):
        bias_detection(monkeypatch, 0.5)
        out = tmp_path / "val.csv"
        code = main(["validate", "--config", str(fast_config),
                     "--policy", str(policy_file),
                     "--slots", "50000", "--seed", "21", "--out", str(out)])
        assert code == 3
        rows = read_rows(out)
        assert any(row[5] == "1" for row in rows[1:] if row[0] != "warning")

    def test_fully_blinded_detector_caught(self, fast_config, policy_file,
                                           monkeypatch):
        bias_detection(monkeypatch, 0.0)
        code = main(["validate", "--config", str(fast_config),
                     "--policy", str(policy_file),
                     "--slots", "50000", "--seed", "21"])
        assert code == 3

    def test_short_run_warns_and_passes(self, fast_config, policy_file,
                                        tmp_path):
        out = tmp_path / "val.csv"
        code = main(["validate", "--config", str(fast_config),
                     "--policy", str(policy_file),
                     "--slots", "200", "--seed", "22", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert any(row[0] == "warning" for row in rows[1:])


def test_module_entry_point(fast_config, tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ehcr.cli", "optimize",
         "--config", str(fast_config), "--rho", "0.5", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8").startswith("rho,scheme,tau_star")
