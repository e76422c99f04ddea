import copy
import dataclasses
import json

import numpy as np
import pytest

from containsim import config, sim
from containsim.config import ConfigError
from conftest import SCENARIOS, load_scenario_doc


class TestBundledScenarios:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_validates_and_builds(self, name):
        doc = load_scenario_doc(name)
        scen = config.build_scenario(doc)
        scen.validate()
        assert scen.topo.n == 10 and scen.topo.m == 6

    def test_cascade_section_builds(self):
        cas = config.build_cascade(load_scenario_doc("cascade_estimates"))
        cas.validate()
        assert cas.sigma == 2
        assert cas.alpha == 1.0

    def test_cascade_missing_section(self):
        with pytest.raises(ConfigError):
            config.build_cascade(load_scenario_doc("benchmark_fullstate"))


class TestStrictness:
    def test_unknown_top_level_key(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            config.build_scenario(doc)

    def test_unknown_nested_key(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["comm"]["latency"] = 0.5
        with pytest.raises(ConfigError, match="unknown keys"):
            config.build_scenario(doc)

    def test_unknown_gain(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["controllers"]["gains"]["k_i"] = 1.0
        with pytest.raises(ConfigError, match=r"controllers\.gains\.k_i"):
            config.build_scenario(doc)

    @pytest.mark.parametrize("name, key, value", [
        ("benchmark_fullstate", "use_velocity", False),
        ("benchmark_fullstate", "v_d", [1.0, 0.1]),
        ("benchmark_outputfb", "use_velocity", False),
        ("oscillator_harmonic", "psi_mode", "static"),
        ("benchmark_nonlinear", "psi_mode", "dynamic"),
    ])
    def test_setting_the_variant_ignores(self, name, key, value):
        doc = load_scenario_doc(name)
        doc["controllers"][key] = value
        with pytest.raises(ConfigError, match=f"controllers.{key}"):
            config.build_scenario(doc)

    def test_use_velocity_must_be_a_bool(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["controllers"].update(variant="known_vd", v_d=[1.0, 0.1],
                                  use_velocity="false")
        del doc["controllers"]["gains"]["L_p"]      # known_vd does not read it
        with pytest.raises(ConfigError, match="controllers.use_velocity"):
            config.build_scenario(doc)

    def test_missing_required_key(self):
        doc = load_scenario_doc("benchmark_fullstate")
        del doc["sim"]["dt_seconds"]
        with pytest.raises(ConfigError, match="missing keys"):
            config.build_scenario(doc)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            config.load_config(str(path))

    def test_unreadable_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="No such file"):
            config.load_config(str(tmp_path / "nope.json"))
        with pytest.raises(ConfigError):
            config.load_config(str(tmp_path))

    def test_loading_leaves_validation_to_the_builders(self, tmp_path):
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["comm"]["bogus"] = 1
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(doc))
        assert config.load_config(str(path)) == doc
        with pytest.raises(ConfigError, match="unknown keys"):
            config.build_scenario(doc)

    def test_load_roundtrip(self, tmp_path):
        doc = load_scenario_doc("benchmark_fullstate")
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc))
        loaded = config.load_config(str(path))
        assert loaded == doc


class TestBuilding:
    def test_edge_ids_validated(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["topology"]["edges"].append([11, 1])
        with pytest.raises(ConfigError, match="agent ids"):
            config.build_topology(doc)

    @pytest.mark.parametrize("entry, message", [
        ([3, 1, 5.0], r"topology\.edges\[16\]: repeats the edge \[3, 1\]"),
        ([3, 1], r"topology\.edges\[16\]: repeats the edge \[3, 1\]"),
        ([3, 1, 0.0], r"topology\.edges\[16\]: weight 0\.0 must be > 0"),
        ([2, 1, -1.0], r"topology\.edges\[16\]: weight -1\.0 must be > 0"),
    ], ids=["repeated", "repeated_default_weight", "zero_weight",
            "negative_weight"])
    def test_repeated_or_non_positive_edge_rejected(self, entry, message):
        # Before, a repeat silently replaced the weight and a zero weight
        # silently deleted the edge.
        doc = copy.deepcopy(load_scenario_doc("cascade_estimates"))
        doc["topology"]["edges"].append(entry)
        with pytest.raises(ConfigError, match=message):
            config.build_scenario(doc)
        with pytest.raises(ConfigError, match=message):
            config.build_cascade(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("n", -1, r"^topology\.n: must be at least 2, got -1$"),
        ("m", 0, r"^topology\.m: must be in 1\.\.9, got 0$"),
    ], ids=["n_minus_1", "m_0"])
    def test_topology_size_names_its_key(self, key, value, message):
        # Before, n = -1 raised NumPy's bare "negative dimensions are not
        # allowed" and m = 0 a TopologyError that named no key.
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["topology"][key] = value
        with pytest.raises(ConfigError, match=message):
            config.build_topology(doc)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_bundled_edges_all_kept(self, name):
        doc = load_scenario_doc(name)
        topo = config.build_topology(doc)
        assert len(topo.edges()) == len(doc["topology"]["edges"]) == 16

    def test_edge_weight_default_and_explicit(self):
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["topology"]["edges"][0] = [3, 1, 2.5]
        topo = config.build_topology(doc)
        assert topo.weights[0, 2] == 2.5
        assert topo.weights[0, 6] == 1.0

    def test_auto_initial_velocity(self):
        doc = load_scenario_doc("benchmark_fullstate")
        scen = config.build_scenario(doc)
        # followers start at rest; leaders match the trajectory offsets
        assert np.array_equal(scen.v0[:6], np.zeros((6, 2)))
        assert np.allclose(scen.v0[6], [1.0 - 7.0, 0.1 - 7.0])
        assert np.allclose(scen.v0[7], [1.0 + 8.0, 0.1 + 8.0])

    @pytest.mark.parametrize("kind", ["constant_velocity",
                                      "damped_oscillatory"])
    def test_auto_initial_velocity_keeps_v_d_bits(self, kind):
        # The leaders' rows are their velocity at t = 0, written in one
        # assignment: a constant velocity keeps the sign of a -0.0 entry.
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["agents"]["leaders"] = {"kind": kind, "v_d": [-0.0, 0.5]}
        v0 = config.build_scenario(doc).v0
        v_d = np.array([-0.0, 0.5])
        want = np.tile(v_d, (4, 1)) if kind == "constant_velocity" \
            else v_d + np.array([[-7.0], [8.0], [-9.0], [10.0]])
        assert np.array_equal(v0[6:], want)
        assert np.array_equal(np.signbit(v0[6:]), np.signbit(want))
        assert not np.signbit(v0[:6]).any()

    def test_explicit_initial_velocity_shape(self):
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["agents"]["initial"]["v"] = [[0.0, 0.0]] * 9
        with pytest.raises(ConfigError):
            config.build_scenario(doc)

    def test_gain_broadcast_from_config(self):
        doc = load_scenario_doc("benchmark_fullstate")
        scen = config.build_scenario(doc)
        assert np.array_equal(scen.gains.k_p, np.full(6, 4.0))
        assert np.array_equal(scen.gains.L_p, np.full(6, 4.0))

    @pytest.mark.parametrize("section, key", [
        (("controllers", "gains"), "k_p"),
        (("comm",), "T_seconds"),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_number_rejected(self, section, key, bad):
        doc = copy.deepcopy(load_scenario_doc("cascade_estimates"))
        node = doc
        for name in section:
            node = node[name]
        node[key] = bad
        with pytest.raises(ConfigError, match="not a finite number"):
            config.build_scenario(doc)
        with pytest.raises(ConfigError, match="not a finite number"):
            config.build_cascade(doc)

    def test_nan_initial_position_rejected(self):
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        doc["agents"]["initial"]["p"][2][1] = float("nan")
        with pytest.raises(ConfigError, match=r"agents\.initial\.p\[2\]\[1\]"):
            config.build_scenario(doc)

    @pytest.mark.parametrize("build, path, value, message", [
        ("scenario", "topology.m", 6.7,
         r"topology\.m: expected int, got 6\.7"),
        ("scenario", "topology.edges.0", [3.9, 1],
         r"topology\.edges\[0\]: agent id: expected int, got 3\.9"),
        ("cascade", "cascade.sigma", 2.5,
         r"cascade\.sigma: expected int, got 2\.5"),
        ("scenario", "comm.seed", 1.5,
         r"comm\.seed: expected int, got 1\.5"),
        ("scenario", "comm.seed", True,
         r"comm\.seed: expected int, got True"),
        ("scenario", "comm.T_seconds", True,
         r"comm\.T_seconds: expected float, got True"),
        ("scenario", "comm.drop_prob", "0.2",
         r"comm\.drop_prob: expected float, got '0\.2'"),
        ("scenario", "sim.dt_seconds", "0.01",
         r"sim\.dt_seconds: expected float, got '0\.01'"),
        ("cascade", "cascade.h", 2.0,
         r"cascade\.h: expected list, got 2\.0"),
        ("cascade", "cascade.phi1.omega", "1",
         r"cascade\.phi1\.omega: expected float, got '1'"),
    ], ids=["m_6.7", "edge_3.9", "sigma_2.5", "seed_1.5", "seed_true",
            "T_true", "drop_prob_string", "dt_string", "h_not_a_list",
            "omega_string"])
    def test_wrongly_typed_value_rejected(self, build, path, value, message):
        # Before, each was converted (6.7 to 6, true to 1, "0.2" to 0.2)
        # and the run went on.
        doc = copy.deepcopy(load_scenario_doc("cascade_estimates"))
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[int(key) if key.isdigit() else key] = value
        with pytest.raises(ConfigError, match=message):
            getattr(config, f"build_{build}")(doc)

    @pytest.mark.parametrize("name, leaders", [
        ("oscillator_harmonic", {"kind": "damped_oscillatory",
                                 "v_d": [5.0, 5.0]}),
        ("benchmark_fullstate", {"kind": "oscillator_free"}),
    ], ids=["oscillator_model_damped_leaders",
            "double_integrator_oscillator_free_leaders"])
    def test_leader_kind_must_fit_the_model(self, name, leaders):
        # Before, the oscillator model dropped such leaders silently, and
        # a double integrator ran oscillator_free leaders as coasting ones.
        doc = copy.deepcopy(load_scenario_doc(name))
        doc["agents"]["leaders"] = leaders
        doc["agents"]["initial"]["v"] = [[0.0, 0.0]] * 10
        with pytest.raises(ConfigError, match=r"agents\.leaders\.kind"):
            config.build_scenario(doc)

    @pytest.mark.parametrize("build, name, path, value, message", [
        ("scenario", "benchmark_fullstate", "controllers.gains.k_p", True,
         r"controllers\.gains\.k_p: expected float, got True"),
        ("scenario", "benchmark_fullstate", "controllers.gains.k_d", "4",
         r"controllers\.gains\.k_d: expected float, got '4'"),
        ("scenario", "benchmark_nonlinear",
         "controllers.gains.boundary_layer_eps", True,
         r"controllers\.gains\.boundary_layer_eps: expected float, "
         r"got True"),
        ("scenario", "benchmark_fullstate", "agents.initial.p.0",
         ["-2", True], r"agents\.initial\.p\[0\]\[0\]: expected float, "
         r"got '-2'"),
        ("scenario", "benchmark_fullstate", "agents.initial.v",
         [[0.0, 0.0]] * 9 + [[0.0, False]],
         r"agents\.initial\.v\[9\]\[1\]: expected float, got False"),
        ("scenario", "benchmark_fullstate", "agents.leaders.v_d",
         [True, 0.1], r"agents\.leaders\.v_d\[0\]: expected float, "
         r"got True"),
        ("scenario", "oscillator_harmonic", "agents.model.S1.1",
         [0.0, "-1"], r"agents\.model\.S1\[1\]\[1\]: expected float, "
         r"got '-1'"),
        ("scenario", "oscillator_harmonic", "agents.model.S2", True,
         r"agents\.model\.S2: expected float, got True"),
        ("cascade", "cascade_estimates", "cascade.leader_drive.0.amplitude",
         [True, "1"], r"cascade\.leader_drive\[0\]\.amplitude\[0\]: "
         r"expected float, got True"),
        ("cascade", "cascade_estimates", "cascade.phi1.amplitude", "1",
         r"cascade\.phi1\.amplitude: expected float, got '1'"),
    ], ids=["k_p_true", "k_d_string", "eps_true", "p_row_string_and_true",
            "v_row_false", "leader_v_d_true", "S1_string",
            "S2_true", "drive_amplitude_true_and_string",
            "phi1_amplitude_string"])
    def test_boolean_or_string_in_an_array_rejected(self, build, name, path,
                                                    value, message):
        # Before, np.asarray(..., float) converted each (true to 1.0, "4"
        # to 4.0) and the run went on.
        doc = copy.deepcopy(load_scenario_doc(name))
        *parents, key = path.split(".")
        node = doc
        for part in parents:
            node = node[int(part) if part.isdigit() else part]
        node[int(key) if key.isdigit() else key] = value
        with pytest.raises(ConfigError, match=message):
            getattr(config, f"build_{build}")(doc)

    def test_oscillator_leaders_reject_v_d(self):
        # Before, the key built and was ignored: no leader trajectory reads
        # it under the oscillator model.
        doc = copy.deepcopy(load_scenario_doc("oscillator_harmonic"))
        doc["agents"]["leaders"] = {"kind": "oscillator_free",
                                    "v_d": [5.0, 5.0]}
        with pytest.raises(ConfigError, match=r"agents\.leaders\.v_d"):
            config.build_scenario(doc)
        del doc["agents"]["leaders"]["v_d"]
        assert config.build_scenario(doc).leaders is None

    @pytest.mark.parametrize("name, path, value, message", [
        ("benchmark_fullstate", "agents.initial.p",
         [[0.0, 0.0]] * 9 + [[1.0]],
         r"agents\.initial\.p: rows of unequal length"),
        ("benchmark_fullstate", "agents.model.kind", "warp",
         r"agents\.model\.kind: unknown kind 'warp'"),
        ("benchmark_nonlinear", "agents.model.drift", "cubic",
         r"agents\.model\.drift: unknown drift 'cubic'"),
        ("benchmark_fullstate", "agents.leaders.kind", "warp",
         r"agents\.leaders\.kind: unknown kind 'warp'"),
        ("benchmark_fullstate", "controllers.psi_mode", "bogus",
         r"controllers\.psi_mode: unknown psi_mode 'bogus'"),
        ("benchmark_fullstate", "agents.leaders.v_d", [1.0, 0.1, 0.0],
         r"agents\.leaders\.v_d must have 2 entries"),
        ("benchmark_fullstate", "agents.initial.p", [[0.0, 0.0]] * 9,
         r"agents\.initial\.p must have 10 x 2 entries, got \(9, 2\)"),
        ("benchmark_fullstate", "controllers.gains.k_d", [4.0] * 7,
         r"controllers\.gains\.k_d must have 1 or 6 entries, got \(7,\)"),
    ], ids=["ragged_p", "model_kind", "drift", "leaders_kind", "psi_mode",
            "leaders_v_d_3d", "p_9_rows", "k_d_7_of_6"])
    def test_error_names_its_key(self, name, path, value, message):
        # Before, all but psi_mode raised a ValueError that named no key
        # (the ragged p NumPy's "inhomogeneous shape", the 3-entry v_d a
        # broadcast error), and psi_mode built and failed only in
        # Scenario.validate, naming no key either.
        doc = copy.deepcopy(load_scenario_doc(name))
        *parents, key = path.split(".")
        node = doc
        for part in parents:
            node = node[part]
        node[key] = value
        with pytest.raises(ConfigError, match=message):
            config.build_scenario(doc)

    @pytest.mark.parametrize("path, value, message", [
        ("agents.N", 0, r"agents\.N: must be at least 1, got 0"),
        ("agents.N", -1, r"agents\.N: must be at least 1, got -1"),
        ("label", 7, r"label: expected str, got 7"),
        ("outputs.trace_csv", 5,
         r"outputs\.trace_csv: expected str, got 5"),
        ("outputs.svg", None, r"outputs\.svg: expected str, got None"),
    ], ids=["N_0", "N_minus_1", "label_int", "trace_csv_int", "svg_null"])
    def test_validation_names_the_key(self, path, value, message):
        # Before, N = 0 and N = -1 were reported as "agents.leaders.v_d
        # must have 0 (-1) entries", and a name that is not a string passed
        # validation.
        doc = copy.deepcopy(load_scenario_doc("benchmark_fullstate"))
        *parents, key = path.split(".")
        node = doc
        for part in parents:
            node = node.setdefault(part, {})
        node[key] = value
        with pytest.raises(ConfigError, match=message):
            config.build_scenario(doc)

    def test_perturbation_builder(self):
        pert = config.build_perturbation(
            {"kind": "sinusoid", "amplitude": [1.0, 2.0], "omega": 0.5})
        assert pert.kind == "sinusoid"
        assert np.allclose(pert.value(np.pi), np.array([1.0, 2.0])
                           * np.sin(0.5 * np.pi))


# The gains each variant's law reads, from the laws in control.py; a
# variant with a psi_mode setting reads k_psi under "dynamic" only.
READS = {"full_state": {"k_p", "k_d", "L_p"},
         "output_feedback": {"k_p", "k_d", "L_p"},
         "known_vd": {"k_p", "k_d"},
         "nonlinear_vs": {"k_p", "k_d", "L_p", "L_d", "k_r", "lam",
                          "boundary_layer_eps"},
         "oscillator_full": {"k_p", "k_d"},
         "oscillator_output": {"k_p", "k_d", "k_phi"}}
GAIN_KEYS = ("k_p", "k_d", "L_p", "L_d", "k_psi", "k_phi", "k_r", "lam",
             "boundary_layer_eps")
BUNDLED = {"full_state": "benchmark_fullstate",
           "output_feedback": "benchmark_outputfb",
           "known_vd": "benchmark_fullstate",
           "nonlinear_vs": "benchmark_nonlinear",
           "oscillator_full": "oscillator_harmonic",
           "oscillator_output": "oscillator_harmonic"}
MODES = [(variant, mode) for variant in READS
         for mode in (("static", "dynamic") if variant in (
             "full_state", "output_feedback", "known_vd") else (None,))]
# A second valid value of each gain (k_d^2 >= 4 k_p still holds at the
# defaults k_p = 1, k_d = 2).
CHANGED = {"k_p": 0.5, "k_d": 3.0, "L_p": 2.0, "L_d": 2.0, "k_psi": 2.0,
           "k_phi": 2.0, "k_r": 2.0, "lam": 3.0, "boundary_layer_eps": 10.0}


def variant_doc(variant: str, psi_mode: str | None, gains: dict) -> dict:
    """The bundled document of variant's model, driven by variant with
    these gains (known_vd with v_d = [1.0, 0.1])."""
    doc = copy.deepcopy(load_scenario_doc(BUNDLED[variant]))
    ctl = doc["controllers"]
    ctl.pop("psi_mode", None)
    ctl.update(variant=variant, gains=gains)
    if psi_mode is not None:
        ctl["psi_mode"] = psi_mode
    if variant == "known_vd":
        ctl["v_d"] = [1.0, 0.1]
    return doc


class TestVariantGains:
    @pytest.mark.parametrize("key", GAIN_KEYS)
    @pytest.mark.parametrize("variant, psi_mode", MODES)
    def test_a_variant_accepts_only_the_gains_it_reads(self, variant,
                                                       psi_mode, key):
        # Before, every variant accepted all nine keys and ignored the
        # ones its law does not read.
        reads = READS[variant] | ({"k_psi"} if psi_mode == "dynamic"
                                  else set())
        doc = variant_doc(variant, psi_mode, {key: 0.5})
        if key in reads:
            gains = config.build_scenario(doc).gains
            assert np.all(getattr(gains, key) == 0.5)
        else:
            with pytest.raises(ConfigError, match=(
                    rf"^controllers\.gains: variant '{variant}'.* does not "
                    rf"read controllers\.gains\.{key}$")):
                config.build_scenario(doc)

    @pytest.mark.parametrize("variant, psi_mode", MODES)
    def test_the_gains_a_run_depends_on_are_those_read(self, variant,
                                                       psi_mode):
        # READS is the laws': a short run at the default gains changes
        # when one gain changes (through the Python API, which takes every
        # gain) if and only if the variant reads it.  Links deliver every
        # message at once, so every follower's sources are live.
        doc = variant_doc(variant, psi_mode, {})
        doc["sim"]["t_end_seconds"] = 0.3
        doc["comm"].update(drop_prob=0.0, delay_max_seconds=0.0)
        scen = config.build_scenario(doc)
        base = sim.run(scen)
        changed = set()
        for key, value in CHANGED.items():
            gains = dataclasses.replace(scen.gains, **{key: value})
            trace = sim.run(dataclasses.replace(scen, gains=gains))
            if not (np.array_equal(trace.p, base.p)
                    and np.array_equal(trace.v, base.v)):
                changed.add(key)
        assert changed == READS[variant] | (
            {"k_psi"} if psi_mode == "dynamic" else set())

    def test_cascade_document_gains_are_checked(self):
        # Before, build_cascade checked the keys of controllers.gains but
        # never read their values, so a malformed gain passed.
        doc = copy.deepcopy(load_scenario_doc("cascade_estimates"))
        doc["controllers"]["gains"]["k_p"] = "4"
        with pytest.raises(ConfigError, match=r"controllers\.gains\.k_p: "
                           r"expected float, got '4'"):
            config.build_cascade(doc)
