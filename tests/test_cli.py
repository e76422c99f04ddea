import collections
import copy
import json
import os
import re
import subprocess
import sys

import pytest

import containsim
from containsim import analysis, cli, config, sim
from containsim.comm import export_schedule_csv, generate_schedule
from conftest import load_scenario_doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def short_doc(tmp_path, **outputs):
    doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
    doc["sim"]["t_end_seconds"] = 2.0
    if outputs:
        doc["outputs"] = outputs
    return write_doc(tmp_path, doc)


def edit(section, **values):
    """A document edit that updates the dotted section with values."""
    def apply(doc):
        node = doc
        for key in section.split("."):
            node = node[key]
        node.update(values)
    return apply


S1_PLUS_I = edit("agents.model", S1=[[1.0, 0.0], [0.0, 1.0]])


def complex_roots_no_lam(doc):
    """nonlinear_vs without lam, so lam must come from real roots of
    x^2 + k_d x + k_p, which k_d^2 = 1 < 4 k_p = 8 does not have."""
    gains = doc["controllers"]["gains"]
    del gains["lam"]
    gains.update(k_p=2.0, k_d=1.0)


def add_edge(*entry):
    """A document edit that appends entry to topology.edges (16 entries in
    every bundled scenario)."""
    return lambda doc: doc["topology"]["edges"].append(list(entry))


NO_CONFIG = "no --config"
OFF_GRID_HORIZON = edit("sim", t_end_seconds=2.005)


def exit_case_args(tmp_path, command, scenario, change, out_under_file):
    """The argv of one exit-code case; scenario None names a missing file,
    and NO_CONFIG leaves out the required --config."""
    if scenario == NO_CONFIG:
        return [command]
    if scenario is None:
        return [command, "--config", str(tmp_path / "nope.json")]
    doc = copy.deepcopy(load_scenario_doc(scenario))
    doc["sim"]["t_end_seconds"] = 2.0
    if out_under_file:
        doc["outputs"] = {"trace_csv": "trace.csv"}
    if change is not None:
        change(doc)
    argv = [command, "--config", write_doc(tmp_path, doc)]
    if out_under_file:
        (tmp_path / "a_file").write_text("")
        argv += ["--out", str(tmp_path / "a_file" / "out")]
    return argv


EXIT_CASES = [
    pytest.param("validate", None, None, False, 1, "config error:",
                 r"No such file", id="validate-missing_config"),
    pytest.param("run", NO_CONFIG, None, False, 1, "config error:",
                 r"required: --config", id="run-no_config_argument"),
    pytest.param("sweep", "cascade_estimates", edit("cascade", alpha=2),
                 False, 1, "config error:",
                 r"cascade\.alpha must be in \[0, 1\]", id="sweep-alpha_2"),
    pytest.param("sweep", "cascade_estimates",
                 edit("comm", T_star_seconds=0.2, delay_max_seconds=0.1),
                 False, 1, "config error:", r"T_star must be >= T",
                 id="sweep-T_star_below_T"),
    pytest.param("sweep", "cascade_estimates", edit("cascade", h=[2.0]),
                 False, 1, "config error:",
                 r"cascade\.h: need one lag rate per chain layer",
                 id="sweep-one_lag_rate_for_sigma_2"),
    pytest.param("sweep", "cascade_estimates", edit("sim", dt_seconds=0.03),
                 False, 1, "config error:", r"dt must divide",
                 id="sweep-dt_0.03"),
    pytest.param("sweep", "cascade_estimates",
                 edit("cascade.phi1", amplitude=[0.2, 7.0, 9.0]), False, 1,
                 "config error:", r"cascade\.phi1: amplitude must have 1 or N",
                 id="sweep-phi1_amplitude_of_3_for_N_2"),
    *(pytest.param(command, "benchmark_nonlinear", complex_roots_no_lam,
                   False, 1, "config error:", r"k_d\^2 >= 4 k_p",
                   id=f"{command}-nonlinear_vs_complex_roots_no_lam")
      for command in ("validate", "run")),
    pytest.param("sweep", "cascade_estimates",
                 edit("cascade.phi1", kind="brownian"), False, 1,
                 "config error:", r"unknown perturbation kind 'brownian'",
                 id="sweep-unknown_perturbation"),
    pytest.param("run", "cascade_estimates", edit("sim", t_end_seconds=-1),
                 False, 1, "config error:", r"sim\.t_end_seconds must be > 0",
                 id="run-negative_t_end"),
    pytest.param("sweep", "cascade_estimates", edit("sim", t_end_seconds=-1),
                 False, 1, "config error:", r"sim\.t_end_seconds must be > 0",
                 id="sweep-negative_t_end"),
    pytest.param("sweep", "cascade_estimates",
                 edit("sim", dt_seconds=-0.025), False, 1, "config error:",
                 r"sim\.dt_seconds must be > 0", id="sweep-negative_dt"),
    *(pytest.param(command, scenario, OFF_GRID_HORIZON, False, 1,
                   "config error:", r"dt must divide sim\.t_end_seconds",
                   id=f"{command}-off_grid_horizon")
      for command, scenario in (("validate", "benchmark_fullstate"),
                                ("run", "benchmark_fullstate"),
                                ("sweep", "cascade_estimates"))),
    pytest.param("validate", "oscillator_harmonic", S1_PLUS_I, False, 1,
                 "config error:", r"pure-imaginary, semi-simple spectrum",
                 id="validate-oscillator_S1_plus_I"),
    pytest.param("run", "oscillator_harmonic", S1_PLUS_I, False, 1,
                 "config error:", r"pure-imaginary, semi-simple spectrum",
                 id="run-oscillator_S1_plus_I"),
    pytest.param("sweep", "cascade_estimates", edit("cascade", k_eta=1000),
                 False, 2, "runtime error:",
                 r"diverging (eta|zeta) of agent \d+ at t=",
                 id="sweep-k_eta_1000"),
    *(pytest.param(command, scenario, add_edge(3, 1, 5.0), False, 1,
                   "config error:",
                   r"topology\.edges\[16\]: repeats the edge \[3, 1\]",
                   id=f"{command}-repeated_edge")
      for command, scenario in (("run", "benchmark_fullstate"),
                                ("sweep", "cascade_estimates"))),
    *(pytest.param(command, scenario, add_edge(3, 1, 0.0), False, 1,
                   "config error:",
                   r"topology\.edges\[16\]: weight 0\.0 must be > 0",
                   id=f"{command}-zero_weight_edge")
      for command, scenario in (("run", "benchmark_fullstate"),
                                ("sweep", "cascade_estimates"))),
    pytest.param("run", "benchmark_fullstate", None, True, 3,
                 "output error:", r"Not a directory",
                 id="run-out_under_a_file"),
    pytest.param("report", "benchmark_fullstate", None, True, 3,
                 "output error:", r"Not a directory",
                 id="report-out_under_a_file"),
]


@pytest.mark.parametrize("command, scenario, change, out_under_file, code, "
                         "prefix, message", EXIT_CASES)
def test_exit_code_matrix(tmp_path, capsys, command, scenario, change,
                          out_under_file, code, prefix, message):
    argv = exit_case_args(tmp_path, command, scenario, change, out_under_file)
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and re.search(message, err)
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def counting(monkeypatch, owner, name, calls):
    """Wrap owner.name so each call appends name to calls."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("command, scenario, expected", [
    (command, "benchmark_fullstate",
     {"validate_config": 1, "validate": 1, "make_controller": 1})
    for command in ("validate", "run", "report")] + [
    ("sweep", "cascade_estimates", {"validate_config": 1}),
])
def test_each_check_runs_once(tmp_path, capsys, monkeypatch, command,
                              scenario, expected):
    calls = []
    counting(monkeypatch, config, "validate_config", calls)
    counting(monkeypatch, sim.Scenario, "validate", calls)
    counting(monkeypatch, sim, "make_controller", calls)
    doc = copy.deepcopy(load_scenario_doc(scenario))
    doc["sim"]["t_end_seconds"] = 2.0
    rc = cli.main([command, "--config", write_doc(tmp_path, doc),
                   "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    # A 2 s sweep may fail its trend check (exit 1) after running in full.
    assert rc == 0 or (command == "sweep" and "monotone trends:" in out)
    assert collections.Counter(calls) == expected


def test_bundled_oscillator_passes_the_spectrum_check(tmp_path, capsys):
    path = write_doc(tmp_path, load_scenario_doc("oscillator_harmonic"))
    assert cli.main(["validate", "--config", path]) == 0
    assert "certificate: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("code, command, scenario, change, out_under_file, "
                         "prefix", [
    (0, "validate", "benchmark_fullstate", None, False, ""),
    (1, "validate", None, None, False, "config error:"),
    (2, "run", "benchmark_fullstate",
     edit("controllers.gains", k_p=4.0e6, k_d=4000.0), False,
     "runtime error:"),
    (3, "run", "benchmark_fullstate", None, True, "output error:"),
])
def test_module_entry_point_exits_with_mains_code(tmp_path, code, command,
                                                  scenario, change,
                                                  out_under_file, prefix):
    argv = exit_case_args(tmp_path, command, scenario, change, out_under_file)
    src = os.path.dirname(os.path.dirname(containsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "containsim.cli", *argv],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix)
    assert (proc.stderr == "") == (code == 0)
    assert "Traceback" not in proc.stderr


class TestValidate:
    def test_good_config(self, tmp_path, capsys):
        rc = cli.main(["validate", "--config", short_doc(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "certificate: PASS" in out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["comm"]["bogus"] = 1
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == 1

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["validate", "--config",
                         str(tmp_path / "nope.json")]) == 1

    def test_failed_certificate(self, tmp_path):
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        # cut followers 5 and 6 off from every leader
        doc["topology"]["edges"] = [
            e for e in doc["topology"]["edges"]
            if not (e[1] in (5, 6) and e[0] > 6)]
        path = write_doc(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == 1


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("variant, settings, message", [
    ("pid", {}, "unknown variant 'pid'"),
    ("full_state", {"psi_mode": "bogus"}, "bad psi_mode 'bogus'"),
    ("known_vd", {}, "known_vd requires v_d"),
    ("known_vd", {"v_d": [1.0, 0.1, 0.0]}, "v_d must have 2 entries"),
    ("nonlinear_vs", {}, "nonlinear_vs requires the nonlinear model"),
    ("oscillator_full", {}, "oscillator variants require the oscillator"),
], ids=["pid", "bogus_psi_mode", "known_vd_no_v_d", "known_vd_v_d_3d",
        "nonlinear_vs_on_double_integrator",
        "oscillator_full_on_double_integrator"])
def test_bad_controller_settings_exit_1(tmp_path, capsys, command, variant,
                                        settings, message):
    doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
    doc["sim"]["t_end_seconds"] = 2.0
    doc["controllers"].pop("psi_mode")
    doc["controllers"].update(variant=variant, **settings)
    assert cli.main([command, "--config", write_doc(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err


class TestRun:
    def test_writes_outputs(self, tmp_path, capsys):
        path = short_doc(tmp_path, trace_csv="trace.csv",
                         sidecar_json="side.json", audit_csv="audit.csv",
                         schedule_csv="sched.csv", svg="plot.svg")
        out_dir = tmp_path / "out"
        rc = cli.main(["run", "--config", path, "--out", str(out_dir),
                       "--seed", "7"])
        assert rc == 0
        assert "final containment error" in capsys.readouterr().out
        for name in ("trace.csv", "side.json", "audit.csv", "sched.csv",
                     "plot.svg"):
            assert (out_dir / name).exists(), name
        side = json.loads((out_dir / "side.json").read_text())
        assert side["seed"] == 7

    def test_svg_snapshots_off_the_grid(self, tmp_path):
        # t_end / 4 = 0.075 is not a multiple of dt = 0.01: that snapshot
        # is drawn at the last step before it, and labelled with its time.
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["sim"]["t_end_seconds"] = 0.3
        doc["outputs"] = {"svg": "x.svg"}
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", write_doc(tmp_path, doc),
                         "--out", str(out_dir)]) == 0
        labels = re.findall(r">t=([^<]*)<", (out_dir / "x.svg").read_text())
        assert labels == ["0", "0.07", "0.15", "0.3"]

    def test_schedules_generated_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return generate_schedule(*args, **kwargs)

        monkeypatch.setattr(sim, "generate_schedule", counting)
        path = short_doc(tmp_path, schedule_csv="sched.csv")
        out_dir = tmp_path / "out"
        rc = cli.main(["run", "--config", path, "--out", str(out_dir),
                       "--seed", "3"])
        assert rc == 0
        assert len(calls) == len(set(calls)) == 16
        scen = config.build_scenario(config.load_config(path))
        export_schedule_csv(sim.build_schedules(scen, 3),
                            str(tmp_path / "fresh.csv"))
        assert (out_dir / "sched.csv").read_bytes() == \
            (tmp_path / "fresh.csv").read_bytes()

    def test_nan_gain_exit_code(self, tmp_path):
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["controllers"]["gains"]["k_p"] = float("nan")
        path = write_doc(tmp_path, doc)
        for command in ("validate", "run"):
            assert cli.main([command, "--config", path]) == 1

    def test_divergence_exit_code(self, tmp_path, capsys):
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["sim"]["t_end_seconds"] = 5.0
        doc["controllers"]["gains"] = {"k_p": 4.0e6, "k_d": 4000.0,
                                       "L_p": 4.0}
        path = write_doc(tmp_path, doc)
        assert cli.main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert re.search(r"diverging [pv] of agent \d+ at t=\S+ "
                         r"\(last finite norm \S+\)", err)


class TestSweep:
    def test_monotone_trends_pass(self, tmp_path, capsys):
        doc = copy.deepcopy(load_scenario_doc("cascade_estimates"))
        doc["sim"]["t_end_seconds"] = 20.0
        path = write_doc(tmp_path, doc)
        rc = cli.main(["sweep", "--config", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "monotone trends: PASS" in out

    def test_requires_cascade_section(self, tmp_path):
        rc = cli.main(["sweep", "--config", short_doc(tmp_path)])
        assert rc == 1

    def test_each_distinct_config_integrated_once(self, tmp_path,
                                                  monkeypatch):
        # Gains x1, x2, x4 and T* = 0.5, 1, 1.5: the x1 config is the
        # T* = 1.5 config, so 5 copies of 16 edges.
        calls = []
        counting(monkeypatch, analysis, "generate_schedule", calls)
        doc = copy.deepcopy(load_scenario_doc("cascade_estimates"))
        doc["sim"]["t_end_seconds"] = 2.0
        cli.main(["sweep", "--config", write_doc(tmp_path, doc)])
        assert len(calls) == 5 * 16

    def test_divergence_names_the_batch_copy(self, tmp_path, capsys):
        # Of the five copies, x2 (copy 1) leaves the range first, as it
        # does when run alone; x1 alone would last until t = 0.075.
        doc = copy.deepcopy(load_scenario_doc("cascade_estimates"))
        doc["cascade"]["k_eta"] = 1000
        assert cli.main(["sweep", "--config", write_doc(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "runtime error: non-finite or diverging eta of agent 0 at "
            "t=0.05 (last finite norm 868157) in batch copy 1\n")


class TestReport:
    def test_summary_file(self, tmp_path, capsys):
        path = short_doc(tmp_path)
        rc = cli.main(["report", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads(
            (tmp_path / "benchmark_fullstate_report.json").read_text())
        assert report["certificate_pass"] is True
        assert report["messages_delivered"] > 0

    def test_counts_forced_sends(self, tmp_path):
        # Nine drops in ten make the repair force sends through; they are
        # a subset of the delivered ones.
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["sim"]["t_end_seconds"] = 2.0
        doc["comm"]["drop_prob"] = 0.9
        path = write_doc(tmp_path, doc)
        assert cli.main(["report", "--config", path, "--out", str(tmp_path),
                         "--seed", "4"]) == 0
        report = json.loads(
            (tmp_path / "benchmark_fullstate_report.json").read_text())
        schedules = sim.run(config.build_scenario(doc), seed=4).schedules
        assert all((s.delivered >= s.forced).all()
                   for s in schedules.values())
        assert report["messages_forced"] == \
            sum(int(s.forced.sum()) for s in schedules.values()) > 0
