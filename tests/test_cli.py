import copy
import json
import re

import pytest

from containsim import cli, config, sim
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
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--config", path])
        assert exc.value.code == 1

    def test_missing_file_exit_code(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--config", str(tmp_path / "nope.json")])
        assert exc.value.code == 1

    def test_failed_certificate(self, tmp_path):
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        # cut followers 5 and 6 off from every leader
        doc["topology"]["edges"] = [
            e for e in doc["topology"]["edges"]
            if not (e[1] in (5, 6) and e[0] > 6)]
        path = write_doc(tmp_path, doc)
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--config", path])
        assert exc.value.code == 1


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
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", write_doc(tmp_path, doc)])
    assert exc.value.code == 1
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
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--config", path])
            assert exc.value.code == 1

    def test_divergence_exit_code(self, tmp_path, capsys):
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["sim"]["t_end_seconds"] = 5.0
        doc["controllers"]["gains"] = {"k_p": 4.0e6, "k_d": 4000.0,
                                       "L_p": 4.0}
        path = write_doc(tmp_path, doc)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", path])
        assert exc.value.code == 2
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


class TestReport:
    def test_summary_file(self, tmp_path, capsys):
        path = short_doc(tmp_path)
        rc = cli.main(["report", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads(
            (tmp_path / "benchmark_fullstate_report.json").read_text())
        assert report["certificate_pass"] is True
        assert report["messages_delivered"] > 0
