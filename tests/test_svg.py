import dataclasses
import xml.etree.ElementTree as ET

from containsim import config, sim
from containsim.comm import CommConfig
from containsim.svg import render_error, render_trajectories, write_report_svg
from conftest import load_scenario_doc


def short_trace():
    doc = load_scenario_doc("benchmark_fullstate")
    doc["sim"]["t_end_seconds"] = 2.0
    scen = config.build_scenario(doc)
    return sim.run(scen)


def coarse_trace():
    # 1 s at dt = 0.1: the steps are at 0.0, 0.1, ..., 1.0.
    scen = config.build_scenario(load_scenario_doc("benchmark_fullstate"))
    return sim.run(dataclasses.replace(
        scen, dt=0.1, t_end=1.0,
        comm=CommConfig(T=1.0, T_star=2.0, delay_max=0.5)))


class TestRendering:
    def test_trajectory_panel_well_formed(self):
        svg = render_trajectories(short_trace(), snapshot_times=(0.0, 1.0,
                                                                 2.0))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        tags = [el.tag.split("}")[-1] for el in root.iter()]
        assert tags.count("polyline") + tags.count("polygon") >= 10
        assert "circle" in tags

    def test_error_panel_well_formed(self):
        svg = render_error(short_trace())
        root = ET.fromstring(svg)
        tags = [el.tag.split("}")[-1] for el in root.iter()]
        assert "polyline" in tags
        assert "text" in tags

    def test_report_file(self, tmp_path):
        path = tmp_path / "report.svg"
        write_report_svg(short_trace(), str(path),
                         snapshot_times=(0.0, 1.0, 2.0))
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        # stacked layout: translated group for the second panel
        groups = [el for el in root.iter() if el.tag.endswith("g")]
        assert any("translate" in (g.get("transform") or "") for g in groups)

    def test_snapshots_at_the_last_step_up_to_their_time(self):
        # t_end / 4 is off the grid and drawn at 0.2; a time 1e-12 below a
        # tick counts as that tick; times outside [0, t_end] are left out.
        trace = coarse_trace()
        times = (-0.05, 0.25, 0.3 - 1e-12, 1.0 + 1e-12, 1.05)
        svg = render_trajectories(trace, snapshot_times=times)
        labels = [el.text for el in ET.fromstring(svg).iter()
                  if (el.text or "").startswith("t=")]
        assert labels == ["t=0.2", "t=0.3", "t=1"]
