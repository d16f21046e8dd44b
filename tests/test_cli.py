import configparser
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import (Povm, bell_povm, counts_to_csv, load_counts, load_povm,
                    povm_fidelity, povm_to_json, reference_states, scenarios,
                    serialize, simulate_counts, validate_povm)
from qmetro import cli
from qmetro.cli import (COMMANDS, REQUIRED, ConfigError, main, parse_config,
                        read_command_line, read_config_file)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def refused(capsys, tmp_path, *argv):
    """The errors of a config refused before the run: exit 2, and no
    output directory made."""
    code, doc = run_cli(capsys, *argv, "--out", str(tmp_path / "o"))
    assert code == 2 and doc["status"] == "error"
    assert not (tmp_path / "o").exists()
    return doc["errors"]


SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_leaves_scipy_and_argparse_unloaded():
    # scipy is a test dependency only; importing it costs most of the
    # start-up of every command. The command line is read into the keys of
    # COMMANDS, with no second declaration of them in an argparse parser.
    code = ("import sys, qmetro.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'argparse')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("x", [0.0, -0.0, 1.0, 0.1, 1e16, 2.0**53, 5e-324])
def test_floats_are_written_as_json_floats(x):
    text = serialize.format_float(x)
    assert np.float64(float(text)).tobytes() == np.float64(x).tobytes()
    assert type(json.loads(text)) is float


class TestParseConfig:
    def test_minimal_kappa_scan(self):
        cfg = parse_config("kappa-scan", {"family": "phase-dephasing",
                                          "measurement": "bell"})
        assert cfg["copies"] == 2
        assert cfg["budget"] == 2000
        assert cfg["sweep_points"] == 40

    def test_unknown_key_suggests_nearest(self):
        with pytest.raises(ConfigError) as err:
            parse_config("kappa-scan", {"budgett": "100"})
        assert "budgett" in str(err.value)
        assert "budget" in str(err.value)

    def test_visibility_out_of_range(self):
        with pytest.raises(ConfigError) as err:
            parse_config("gate-model", {"visibility": "1.3"})
        assert "visibility" in str(err.value)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("tomography", {})
        assert "counts" in str(err.value)

    def test_all_errors_reported_at_once(self):
        with pytest.raises(ConfigError) as err:
            parse_config("kappa-scan", {"bogus": "1", "budget": "x",
                                        "visibility": "2.0"})
        assert len(err.value.errors) == 3

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            parse_config("frobnicate", {})

    def test_type_conversion(self):
        cfg = parse_config("simulate-counts", {"exposure": "1e4",
                                               "measurement": "gate",
                                               "compensated": "false",
                                               "seed": "7"})
        assert cfg["exposure"] == 1e4
        assert cfg["compensated"] is False
        assert cfg["seed"] == 7


#: the keys that set a probe input, and names beside them that no scenario
#: reads
PROBE_KEYS = ("phi", "delta", "phi_y", "phi_z", "xi", "xi_1", "xi_2")
INPUT_NAMES = PROBE_KEYS + ("xi_3", "theta_1", "bogus")


@pytest.fixture(scope="module")
def basis_povm_files(tmp_path_factory):
    """A computational-basis POVM file for each of 1, 2 and 3 copies."""
    paths = {}
    for copies in (1, 2, 3):
        dim = 2 ** copies
        path = tmp_path_factory.mktemp("povm") / f"basis{dim}.json"
        path.write_text(povm_to_json(Povm(
            tuple(f"b{k}" for k in range(dim)),
            np.eye(dim)[:, :, None] * np.eye(dim)[:, None, :] + 0j)),
            encoding="utf-8")
        paths[copies] = str(path)
    return paths


@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_every_accepted_naming_builds_its_scenario(basis_povm_files, data):
    # parse_config and the run apply the scenario's one input rule, so a
    # config that parses never fails at Scenario construction, and its
    # scenario reads every probe key set
    command = data.draw(st.sampled_from(("kappa-scan", "optimize")))
    copies = data.draw(st.integers(1, 3))
    raw = {"family": data.draw(st.sampled_from(("phase-dephasing",
                                                 "two-phase"))),
           "copies": str(copies)}
    if data.draw(st.booleans()):
        raw.update(measurement="file", povm=basis_povm_files[copies])
    for key in data.draw(st.lists(st.sampled_from(PROBE_KEYS), unique=True)):
        raw[key] = "0.3"
    if data.draw(st.booleans()):
        raw["free_inputs"] = ",".join(data.draw(
            st.lists(st.sampled_from(INPUT_NAMES), min_size=1, max_size=5)))
    if command == "kappa-scan" and data.draw(st.booleans()):
        raw["sweep"] = data.draw(st.sampled_from(INPUT_NAMES))
    try:
        cfg = parse_config(command, raw)
    except ConfigError:
        return
    scenario = cli._scenario_from_config(cfg)
    assert scenario.family.copies == copies
    # optimize reads its point, the swept input, from the key
    read = {*scenario.fixed_inputs,
            *([scenario.sweep] if command == "optimize" else [])}
    assert set(PROBE_KEYS) & set(raw) <= read


class TestConfigFile:
    def test_sections_merge(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 3\nout = x\n"
                        "[gate-model]\nvisibility = 0.8\n", encoding="utf-8")
        raw = read_config_file(str(path), "gate-model")
        assert raw == {"seed": "3", "out": "x", "visibility": "0.8"}

    def test_cli_flag_overrides_config(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nvisibility = 0.8\n", encoding="utf-8")
        reports = []
        for sub, flag in (("a", ["--visibility", "0.5"]),
                          ("b", ["--visibility=0.5"])):
            out = tmp_path / sub
            code, doc = run_cli(capsys, "gate-model", "--config", str(path),
                                *flag, "--out", str(out))
            assert code == 0
            reports.append((out / "gate_report.json").read_bytes())
        assert json.loads(reports[0])["visibility"] == 0.5
        assert reports[0] == reports[1]


def readme_examples():
    """The ``qmetro`` commands of the README's bash blocks, each as an argv
    without the program name, and its example INI config."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    bash = "".join(block.split("```")[0]
                   for block in text.split("```bash\n")[1:])
    commands = [shlex.split(line)[1:] for line in
                bash.replace("\\\n", " ").splitlines()
                if line.startswith("qmetro ")]
    ini = text.split("```ini\n")[1].split("```")[0]
    return commands, ini


class TestReadmeExamples:
    """The documented commands and config stay valid; none is run."""

    @pytest.mark.parametrize("argv", readme_examples()[0],
                             ids=lambda argv: argv[0])
    def test_command_parses(self, argv):
        parse_config(argv[0], read_command_line(argv))

    def test_every_command_is_shown(self):
        assert {argv[0] for argv in readme_examples()[0]} == set(COMMANDS)

    def test_config_file_parses(self, tmp_path):
        path = tmp_path / "example.ini"
        path.write_text(readme_examples()[1], encoding="utf-8")
        parser = configparser.ConfigParser()
        parser.read(path, encoding="utf-8")
        command = parser["run"]["command"]
        parse_config(command, read_config_file(str(path), command))


class TestCliCommands:
    def test_gate_model_artifacts(self, tmp_path, capsys):
        out = tmp_path / "g"
        code, doc = run_cli(capsys, "gate-model", "--out", str(out))
        assert code == 0
        assert doc["status"] == "ok"
        povm = load_povm(out / "gate_povm.json")
        assert validate_povm(povm).passed
        report = json.loads((out / "gate_report.json").read_text())
        assert report["max_abs_difference_vs_bell"] < 1e-10
        assert abs(report["success_probabilities"]["HH"] - 1 / 9) < 1e-12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gate-model"
        assert "gate_povm.json" in manifest["artifacts"]
        assert (out / "run.log").exists()

    def test_qfi_and_weak_comm(self, tmp_path, capsys):
        out = tmp_path / "q"
        code, _ = run_cli(capsys, "qfi", "--family", "phase-dephasing",
                          "--delta", "0.5", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "qfi.json").read_text())
        assert abs(doc["qfi_matrix"][0][0] - np.exp(-0.5)) < 1e-9

        out2 = tmp_path / "w"
        code, _ = run_cli(capsys, "weak-comm", "--family", "two-phase",
                          "--phi-y", "0.4", "--phi-z", "0.3",
                          "--find-root", "true", "--out", str(out2))
        assert code == 0
        doc = json.loads((out2 / "weak_comm.json").read_text())
        assert abs(doc["qfi_det_at_root"]) < 1e-8

    @pytest.mark.parametrize("copies", [1, 2])
    def test_qfi_at_small_delta(self, tmp_path, capsys, copies):
        # H_delta tends to 2 per copy as delta -> 0; the SLD solve of the
        # nearly pure state wrote 1.0e-12 on one copy and 3.99986 on two
        delta = 1e-6
        code, _ = run_cli(capsys, "qfi", "--delta", str(delta), "--copies",
                          str(copies), "--out", str(tmp_path))
        assert code == 0
        H = json.loads((tmp_path / "qfi.json").read_text())["qfi_matrix"]
        x = 2.0 * delta * delta
        exact = copies * 2.0 * x * np.exp(-x) / -np.expm1(-x)
        assert abs(H[1][1] - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("copies,delta", [(1, 0.5), (2, 1e-6), (3, 1.3)])
    def test_weak_comm_of_the_dephased_probe_is_zero(self, tmp_path, capsys,
                                                     copies, delta):
        # the SLD solve wrote 4.3e-10 at delta = 1e-6 on two copies
        code, _ = run_cli(capsys, "weak-comm", "--delta", str(delta),
                          "--copies", str(copies), "--phi", "0.4", "--xi",
                          "1.1", "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "weak_comm.json").read_text()
        assert json.loads(text)["value"] == 0.0 and '"value": 0.0' in text

    @pytest.mark.parametrize("argv,error", [
        (["gate-model", "--visibility", "7"], "visibility must lie in [0, 1]"),
        (["kappa-scan", "--bogus", "1"],
         "unknown key 'bogus' for command 'kappa-scan'"),
        (["kappa-scan", "--budg", "10"], "unknown key 'budg' for command "
         "'kappa-scan' (did you mean 'budget'?)"),
        (["kappa-scan", "--budget"], "flag '--budget' has no value"),
        (["kappa-scan", "--budget", "--sweep-points", "3"],
         "flag '--budget' has no value"),
        (["kappa-scan", "stray"],
         "unexpected argument 'stray'; settings are written --key value"),
        ([], "missing command; valid: " + ", ".join(COMMANDS)),
        (["frobnicate"], "unknown command 'frobnicate'; valid: "
         + ", ".join(COMMANDS)),
    ], ids=["visibility", "unknown-flag", "prefix", "no-value", "flag-value",
            "positional", "no-command", "unknown-command"])
    def test_error_json_on_bad_config(self, tmp_path, capsys, argv, error):
        code, doc = run_cli(capsys, *argv[:1], "--out", str(tmp_path / "o"),
                            *argv[1:])
        assert code == 2
        assert doc["status"] == "error"
        assert doc["errors"] == [error]
        assert not (tmp_path / "o").exists()

    def test_config_file_errors_are_json_errors(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("seed = 3\n", encoding="utf-8")
        for config in (path, tmp_path / "missing.ini"):
            code, doc = run_cli(capsys, "qfi", "--config", str(config),
                                "--out", str(tmp_path / "o"))
            assert code == 2 and doc["status"] == "error"
            assert str(config) in doc["errors"][0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,errors", [
        (("kappa-scan", "--sweep-min", "-1"),
         ["sweep_min must be positive for log spacing"]),
        (("kappa-scan", "--sweep-points", "1", "--sweep-max", "0"),
         ["sweep_max must be positive for log spacing"]),
        (("kappa-scan", "--sweep-points", "1", "--sweep-max", "-1"),
         ["sweep_max must be positive for log spacing"]),
        (("kappa-scan", "--sweep-min", "3", "--sweep-max", "0.02",
          "--sweep-points", "3"),
         ["sweep_min (3.0) must be less than sweep_max (0.02) when "
          "sweep_points > 1"]),
        (("kappa-scan", "--sweep-spacing", "linear", "--sweep-min", "1",
          "--sweep-max", "1"),
         ["sweep_min (1.0) must be less than sweep_max (1.0) when "
          "sweep_points > 1"]),
        (("kappa-scan", "--measurement", "file"),
         ["measurement=file requires key 'povm'"]),
        (("simulate-counts", "--exposure", "10", "--measurement", "file"),
         ["measurement=file requires key 'povm'"]),
        (("weak-comm", "--find-root", "true"),
         ["find_root applies to the two-phase family only"]),
        (("kappa-scan", "--copies", "1"),
         ["measurement=bell acts on two qubits, which needs copies = 2, "
          "got 1"]),
        (("optimize", "--copies", "3", "--measurement", "gate"),
         ["measurement=gate acts on two qubits, which needs copies = 2, "
          "got 3"]),
        # a key that has its own error gets no second one
        (("kappa-scan", "--sweep-min", "abc", "--sweep-max", "0.01",
          "--measurement", "file", "--povm", ""),
         ["key 'sweep_min': cannot parse 'abc' as float",
          "key 'povm' must not be empty"]),
        (("kappa-scan", "--sweep-min", "-inf", "--sweep-points", "0"),
         ["sweep_min must be finite, got -inf", "sweep_points must be >= 1"]),
        (("simulate-counts", "--exposure", "abc"),
         ["key 'exposure': cannot parse 'abc' as float"]),
    ], ids=["log-sweep-min", "log-sweep-max-zero", "log-sweep-max-negative",
            "falling-sweep", "empty-linear-sweep",
            "file-without-povm", "counts-file-without-povm", "find-root",
            "one-copy-bell", "three-copy-gate", "unparsed-sweep-min",
            "invalid-sweep-min", "unparsed-required-exposure"])
    def test_settings_that_must_agree_are_named(self, tmp_path, capsys, argv,
                                                errors):
        code, doc = run_cli(capsys, *argv, "--out", str(tmp_path / "o"))
        assert code == 2
        assert doc["errors"] == errors
        assert not (tmp_path / "o").exists()

    def test_each_agreement_applies_where_its_keys_are(self):
        # a check applies to every command that has all the keys it reads;
        # a schema edit that widens a check changes this table
        scopes = {keys: [command for command, (schema, _, _)
                         in COMMANDS.items() if set(keys) <= schema.keys()]
                  for keys, _ in cli._AGREEMENTS}
        assert scopes == {
            ("sweep_min", "sweep_spacing"): ["kappa-scan"],
            ("sweep_max", "sweep_spacing"): ["kappa-scan"],
            ("sweep_min", "sweep_max", "sweep_points"): ["kappa-scan"],
            ("measurement", "povm"):
                ["kappa-scan", "optimize", "simulate-counts"],
            ("copies", "measurement"): ["kappa-scan", "optimize"],
            ("find_root", "family"): ["weak-comm"],
        }

    @pytest.mark.parametrize("argv,key", [
        (("kappa-scan", "--free-inputs="), "free_inputs"),
        (("kappa-scan", "--sweep="), "sweep"),
        (("tomography", "--counts", "c.csv", "--compare-to="), "compare_to"),
        (("tomography", "--counts="), "counts"),
        (("optimize", "--measurement", "file", "--povm="), "povm"),
        (("simulate-counts", "--exposure", "10", "--out="), "out"),
    ], ids=["free_inputs", "sweep", "compare_to", "counts", "povm", "out"])
    def test_empty_settings_are_refused_by_name(self, tmp_path, capsys,
                                                monkeypatch, argv, key):
        # an empty value is not the key's default: it would run the default
        # free set or sweep, skip the comparison, or fail at run time on the
        # path ''
        monkeypatch.chdir(tmp_path)
        code, doc = run_cli(capsys, *argv)
        assert code == 2
        assert doc["errors"] == [f"key {key!r} must not be empty"]
        assert not os.listdir(tmp_path)

    def test_gate_model_reads_no_povm(self, tmp_path, capsys):
        assert refused(capsys, tmp_path, "gate-model", "--povm", "p.json") == [
            "unknown key 'povm' for command 'gate-model'"]

    @pytest.mark.parametrize("argv,errors", [
        (("simulate-counts", "--exposure", "10", "--visibility", "0.5"),
         ["key 'visibility' is not read by measurement=bell"]),
        (("kappa-scan", "--theta-1", "3"),
         ["key 'theta_1' is not read by measurement=bell"]),
        (("optimize", "--measurement", "gate", "--povm", "x.json",
          "--eta-2", "1"),
         ["key 'povm' is not read by measurement=gate",
          "key 'eta_2' is not read by measurement=gate"]),
        (("optimize", "--measurement", "product-projective", "--t-h", "0.9"),
         ["key 't_h' is not read by measurement=product-projective"]),
        (("kappa-scan", "--measurement", "file", "--povm", "x.json",
          "--compensated", "false"),
         ["key 'compensated' is not read by measurement=file"]),
        (("gate-model", "--measurement", "file", "--theta-1", "3"),
         ["unknown key 'measurement' for command 'gate-model'",
          "unknown key 'theta_1' for command 'gate-model'"]),
        # a key that has its own error gets no second one
        (("simulate-counts", "--exposure", "10", "--visibility", "2"),
         ["visibility must lie in [0, 1]"]),
    ], ids=["counts-visibility", "scan-angle", "gate-povm-and-angle",
            "angles-gate-key", "file-gate-key", "gate-model",
            "invalid-visibility"])
    def test_measurement_keys_that_nothing_reads_are_refused(
            self, tmp_path, capsys, argv, errors):
        assert refused(capsys, tmp_path, *argv) == errors

    def test_help_lists_every_key_and_its_default(self, capsys):
        for command in COMMANDS:
            assert main([command, "--help"]) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            assert [line.split() for line in lines] == [
                ["--" + key.replace("_", "-"),
                 "required" if default is REQUIRED else str(default)]
                for key, (_, default) in COMMANDS[command][0].items()]

    @pytest.mark.parametrize("argv,key", [
        (("conjecture-search", "--xi-budget", "-5"), "xi_budget"),
        (("conjecture-search", "--xi-budget", "0"), "xi_budget"),
        (("tomography", "--counts", "c.csv", "--max-iters", "-3"),
         "max_iters"),
        (("tomography", "--counts", "c.csv", "--max-iters", "0"), "max_iters"),
        (("tomography", "--counts", "c.csv", "--tol", "-1"), "tol"),
    ])
    def test_nonsensical_iteration_settings_are_named(self, tmp_path, capsys,
                                                      argv, key):
        code, doc = run_cli(capsys, *argv, "--out", str(tmp_path / "o"))
        assert code == 2
        assert doc["errors"] == [f"{key} must be >= {0 if key == 'tol' else 1}"]
        assert not (tmp_path / "o").exists()

    def test_counts_then_tomography_round_trip(self, tmp_path, capsys):
        counts_dir = tmp_path / "counts"
        code, _ = run_cli(capsys, "simulate-counts", "--exposure", "20000",
                          "--measurement", "gate", "--visibility", "0.9",
                          "--seed", "3", "--out", str(counts_dir))
        assert code == 0
        reco_dir = tmp_path / "reco"
        code, _ = run_cli(capsys, "tomography",
                          "--counts", str(counts_dir / "counts.csv"),
                          "--max-iters", "1500", "--out", str(reco_dir))
        assert code == 0
        povm = load_povm(reco_dir / "reconstructed_povm.json")
        assert validate_povm(povm).passed
        report = json.loads((reco_dir / "tomography_report.json").read_text())
        assert report["validation"]["passed"]

    def test_conjecture_search_smoke(self, tmp_path, capsys):
        out = tmp_path / "c"
        code, _ = run_cli(capsys, "conjecture-search", "--trials", "10",
                          "--seed", "4", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "conjecture_search.json").read_text())
        assert doc["max_kappa"] <= 1.0 + 1e-6

    def test_kappa_scan_reports_failed_points(self, tmp_path, capsys):
        # two outcomes cannot resolve two parameters: singular everywhere
        path = tmp_path / "z.json"
        path.write_text(povm_to_json(Povm(("up", "down"), np.array(
            [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], dtype=complex))),
            encoding="utf-8")
        out = tmp_path / "s"
        code, _ = run_cli(capsys, "kappa-scan", "--copies", "1",
                          "--measurement", "file", "--povm", str(path),
                          "--sweep-points", "3", "--budget", "40",
                          "--out", str(out))
        assert code == 0
        report = json.loads((out / "kappa_scan_report.json").read_text())
        grid = np.geomspace(0.02, 3.0, 3)
        assert report["points"] == 3
        assert [p["delta"] for p in report["failed"]] == grid.tolist()
        assert all("singular" in p["reason"] for p in report["failed"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert "kappa_scan_report.json" in manifest["artifacts"]

    def test_optimize_smoke(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, _ = run_cli(capsys, "optimize", "--delta", "0.3",
                          "--budget", "400", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "optimize.json").read_text())
        assert doc["kappa"] > 1.0

    def test_optimize_output_pinned(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, _ = run_cli(capsys, "optimize", "--delta", "0.3",
                          "--out", str(out))
        assert code == 0
        doc = json.loads((out / "optimize.json").read_text())
        assert (doc["sweep"], doc["at"]) == ("delta", 0.3)
        # a 7 x 7 grid of (xi_1, xi_2) and two refined starts
        assert doc["evaluations"] == 111
        assert doc["kappa"] == 1.2903913190376914
        # phi is held at 0: kappa reads it only through phi + xi_j
        assert doc["settings"] == {"phi": 0.0,
                                   "xi_1": 0.7853981650537912,
                                   "xi_2": 0.7853981650370341}

    @pytest.mark.parametrize("argv,free", [
        (["--free-inputs", "phi,delta,xi_1,xi_2"], "delta"),
        (["--family", "two-phase", "--free-inputs", "xi,phi_z"], "phi_z"),
    ], ids=["delta", "phi_z"])
    def test_optimize_frees_the_family_parameter(self, tmp_path, capsys, argv,
                                                 free):
        out = tmp_path / "o"
        code, _ = run_cli(capsys, "optimize", *argv, "--budget", "300",
                          "--out", str(out))
        assert code == 0
        doc = json.loads((out / "optimize.json").read_text())
        assert doc["sweep"] is None and doc["at"] is None
        assert free in doc["settings"]
        assert doc["evaluations"] <= 300
        assert 0.0 < doc["kappa"] <= 1.5 + 1e-6

    @pytest.mark.parametrize("argv", [
        ["kappa-scan", "--sweep-points", "3", "--budget", "100"],
        ["optimize", "--budget", "100"],
        ["conjecture-search", "--trials", "5"],
    ], ids=["kappa-scan", "optimize", "conjecture-search"])
    def test_run_log_reports_search_work(self, tmp_path, capsys, argv):
        code, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "run.log").read_text().splitlines()
        log = dict(line.split("=") for line in lines)
        assert list(log) == ["wall_time_s", "evaluations", "kernel_calls",
                             "refine_iterations", "starts"]
        assert int(log["evaluations"]) > int(log["kernel_calls"]) > 0
        # every refined start takes part in at least one step
        assert int(log["refine_iterations"]) >= int(log["starts"]) > 0

    @pytest.mark.parametrize("command,free,error", [
        ("optimize", "phi,xi_1,xi_2,bogus",
         "inputs not used by this scenario: ['bogus']"),
        ("optimize", "phi,phi,xi_1,xi_2", "free inputs repeated: ['phi']"),
        ("kappa-scan", "phi,xi_1,xi_2,delta",
         "inputs both free and fixed or swept: ['delta']"),
    ], ids=["unused", "repeated", "swept"])
    def test_bad_free_inputs_fail_by_name(self, tmp_path, capsys, command,
                                          free, error):
        assert refused(capsys, tmp_path, command, "--free-inputs", free,
                       "--budget", "50") == [error]

    def test_optimize_frees_every_copy_phase_by_default(self, tmp_path,
                                                        capsys):
        basis = scenarios._haar_bases(scenarios._complex_gaussian(
            np.random.default_rng(5), 8))
        path = tmp_path / "haar8.json"
        path.write_text(povm_to_json(Povm(
            tuple(f"b{k}" for k in range(8)), np.array(
                [np.outer(basis[:, k], basis[:, k].conj())
                 for k in range(8)]))), encoding="utf-8")
        docs = []
        for sub, extra in (("default", []),
                           ("named", ["--free-inputs", "phi,xi_1,xi_2,xi_3"])):
            code, _ = run_cli(capsys, "optimize", "--copies", "3",
                              "--measurement", "file", "--povm", str(path),
                              "--delta", "0.3", "--budget", "150", *extra,
                              "--out", str(tmp_path / sub))
            assert code == 0
            docs.append(json.loads(
                (tmp_path / sub / "optimize.json").read_text()))
        assert sorted(docs[0]["settings"]) == ["phi", "xi_1", "xi_2", "xi_3"]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("drop,named", [
        ((), ["'dim'"]),
        ((1, "label"), ["outcome 1", "'label'"]),
        ((2, "im"), ["outcome 'AD'", "'im'"]),
    ], ids=["dim", "label", "im"])
    def test_povm_file_without_a_key_is_an_error(self, tmp_path, capsys,
                                                 drop, named):
        doc = json.loads(povm_to_json(bell_povm()))
        if drop:
            del doc["outcomes"][drop[0]][drop[1]]
        else:
            del doc["dim"]
        path = tmp_path / "povm.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run_cli(capsys, "optimize", "--measurement", "file",
                            "--povm", str(path), "--budget", "50",
                            "--out", str(tmp_path / "o"))
        assert code == 1 and out["status"] == "error"
        assert all(word in out["errors"][0] for word in named)

    # a null is no number, where NaN and the infinities are numbers that
    # are not finite
    @pytest.mark.parametrize("entry,error", [
        (None, "POVM file: outcome 'DD' has 're' entry None, which is not "
               "a number"),
        (float("nan"), "POVM element 'DD' has a non-finite entry"),
        (float("inf"), "POVM element 'DD' has a non-finite entry"),
    ], ids=["null", "nan", "inf"])
    def test_povm_file_with_a_non_finite_entry_is_an_error(self, tmp_path,
                                                            capsys, entry,
                                                            error):
        doc = json.loads(povm_to_json(bell_povm()))
        doc["outcomes"][0]["re"][0][0] = entry
        path = tmp_path / "povm.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run_cli(capsys, "optimize", "--measurement", "file",
                            "--povm", str(path), "--budget", "50",
                            "--out", str(tmp_path / "o"))
        assert code == 1 and out["status"] == "error"
        assert out["errors"] == [f"{path}: {error}"]

    # named as not finite also where the key has a range check
    @pytest.mark.parametrize("argv,key,value", [
        (("optimize", "--delta", "nan"), "delta", "nan"),
        (("optimize", "--xi-1", "nan", "--free-inputs", "phi,xi_2"), "xi_1",
         "nan"),
        (("kappa-scan", "--phi", "nan", "--free-inputs", "xi_1,xi_2"), "phi",
         "nan"),
        (("tomography", "--counts", "c.csv", "--tol", "nan"), "tol", "nan"),
        (("gate-model", "--visibility", "nan"), "visibility", "nan"),
        (("gate-model", "--t-h", "inf"), "t_h", "inf"),
        (("simulate-counts", "--exposure", "nan"), "exposure", "nan"),
    ], ids=["delta", "fixed-phase", "scan", "tol", "visibility", "t_h",
            "exposure"])
    def test_non_finite_setting_is_named(self, tmp_path, capsys, argv, key,
                                         value):
        code, doc = run_cli(capsys, *argv, "--out", str(tmp_path / "o"))
        assert code == 2
        assert doc["errors"] == [f"{key} must be finite, got {value}"]
        assert not (tmp_path / "o").exists()

    # a probe key set is a fixed input, checked as the scenario checks its
    # inputs: refused where the scenario does not read it, and where it is
    # set for an input that the search frees or the scan sweeps, which the
    # run would drop
    @pytest.mark.parametrize("argv,errors", [
        (("qfi", "--family", "two-phase", "--xi-1", "0.5"),
         ["inputs not used by this scenario: ['xi_1']"]),
        (("qfi", "--family", "two-phase", "--phi", "0.9"),
         ["inputs not used by this scenario: ['phi']"]),
        (("weak-comm", "--family", "two-phase", "--delta", "2"),
         ["inputs not used by this scenario: ['delta']"]),
        (("qfi", "--family", "phase-dephasing", "--phi-y", "3"),
         ["inputs not used by this scenario: ['phi_y']"]),
        (("optimize", "--phi-z", "0.1"),
         ["inputs not used by this scenario: ['phi_z']"]),
        (("kappa-scan", "--copies", "1", "--measurement", "file",
          "--povm", "p.json", "--xi-2", "0.3"),
         ["inputs not used by this scenario: ['xi_2']"]),
        (("qfi", "--copies", "two", "--xi-2", "0.3"),
         ["key 'copies': cannot parse 'two' as int"]),
        (("kappa-scan", "--sweep", "bogus"),
         ["inputs not used by this scenario: ['bogus']"]),
        (("kappa-scan", "--family", "two-phase", "--free-inputs",
          "xi,xi,bogus", "--delta", "1"),
         ["free inputs repeated: ['xi']",
          "inputs not used by this scenario: ['bogus', 'delta']"]),
    ], ids=["two-phase-xi_1", "two-phase-phi", "two-phase-delta",
            "dephasing-phi_y", "dephasing-phi_z", "beyond-the-copies",
            "copies-unparsed", "unknown-sweep", "every-problem"])
    def test_family_keys_that_nothing_reads_are_refused(self, tmp_path, capsys,
                                                        argv, errors):
        assert refused(capsys, tmp_path, *argv) == errors

    @pytest.mark.parametrize("argv,errors", [
        (("optimize", "--delta", "0.3", "--budget", "300", "--phi", "0.9",
          "--xi-1", "1.3"),
         ["inputs both free and fixed or swept: ['phi', 'xi_1']"]),
        (("optimize", "--family", "two-phase", "--xi", "0.5"),
         ["inputs both free and fixed or swept: ['xi']"]),
        (("kappa-scan", "--free-inputs", "phi,xi", "--xi", "0.5"),
         ["inputs both free and fixed or swept: ['xi']"]),
        (("optimize", "--xi", "0.5"),
         ["inputs not used by this scenario: ['xi']"]),
        (("optimize", "--free-inputs", "phi,xi_2", "--xi", "0.5",
          "--xi-1", "0.2"),
         ["inputs not used by this scenario: ['xi']"]),
        (("kappa-scan", "--sweep-points", "3", "--budget", "100", "--delta",
          "0.3"),
         ["inputs both fixed and swept: ['delta']"]),
        (("kappa-scan", "--sweep", "xi_1"),
         ["inputs both free and fixed or swept: ['xi_1']"]),
    ], ids=["phi-and-xi_1", "two-phase-xi", "shared-xi", "xi-of-free-copies",
            "xi-of-set-copies", "swept-delta", "swept-free-phase"])
    def test_keys_set_for_free_inputs_are_refused(self, tmp_path, capsys,
                                                  argv, errors):
        assert refused(capsys, tmp_path, *argv) == errors

    @pytest.mark.parametrize("argv,phases", [
        (("--xi", "0.1"), [0.1, 0.1]),
        (("--xi-1", "0.3", "--xi", "0.1"), [0.3, 0.1]),
        (("--xi-2", "0.4"), [0.0, 0.4]),
        (("--family", "two-phase", "--xi", "0.7"), [0.7, 0.7]),
    ], ids=["shared", "per-copy-and-shared", "per-copy", "two-phase"])
    def test_each_copy_reads_its_xi_j_or_xi(self, tmp_path, capsys, argv,
                                            phases):
        code, _ = run_cli(capsys, "qfi", "--copies", "2", *argv,
                          "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "qfi.json").read_text())
        assert doc["input_phases"] == phases

    def test_keys_that_fix_an_input_are_kept(self, tmp_path, capsys):
        # xi sets the phase of copy 2, which is fixed; xi_1 is fixed too
        code, _ = run_cli(capsys, "optimize", "--free-inputs", "phi",
                          "--xi", "0.5", "--xi-1", "0.2", "--budget", "50",
                          "--out", str(tmp_path / "o"))
        assert code == 0

    def test_per_copy_phase_beside_a_free_shared_phase_is_named(self, tmp_path,
                                                               capsys):
        # copy 1 reads the xi_1 named, copy 2 the free shared xi
        argv = ("optimize", "--free-inputs", "phi,xi", "--budget", "50")
        code, _ = run_cli(capsys, *argv, "--xi-1", "0.3",
                          "--out", str(tmp_path / "o"))
        assert code == 0
        doc = json.loads((tmp_path / "o" / "optimize.json").read_text())
        assert sorted(doc["settings"]) == ["phi", "xi"]
        assert 0.0 < doc["kappa"] <= 1.5 + 1e-9

    @pytest.mark.parametrize("cell", ["abc", ""])
    def test_counts_cell_that_is_not_a_number_is_named(self, tmp_path, capsys,
                                                       cell):
        text = counts_to_csv(simulate_counts(bell_povm(), reference_states(),
                                             100.0, seed=1))
        lines = text.splitlines()
        a, b, outcome, _ = lines[8].split(",")
        lines[8] = f"{a},{b},{outcome},{cell}"
        path = tmp_path / "counts.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out = run_cli(capsys, "tomography", "--counts", str(path),
                            "--out", str(tmp_path / "o"))
        assert code == 1 and out["status"] == "error"
        assert out["errors"] == [
            f"{path}: counts for input ('{a}', '{b}') and outcome "
            f"'{outcome}' must be a number, got '{cell}'"]

    @pytest.mark.parametrize("command", ["optimize", "qfi", "weak-comm",
                                         "kappa-scan"])
    def test_negative_delta_is_refused_before_the_run(self, tmp_path, capsys,
                                                      command):
        argv = (command, "--delta", "-0.1")
        if command == "kappa-scan":
            argv += ("--sweep", "phi", "--free-inputs", "xi_1,xi_2")
        assert refused(capsys, tmp_path, *argv) == ["delta must be >= 0"]

    def test_sweep_through_negative_delta_fails_point_by_point(self, tmp_path,
                                                               capsys):
        out = tmp_path / "o"
        code, _ = run_cli(capsys, "kappa-scan", "--sweep-spacing", "linear",
                          "--sweep-min", "-0.1", "--sweep-max", "0.3",
                          "--sweep-points", "3", "--budget", "40",
                          "--out", str(out))
        assert code == 0
        report = json.loads((out / "kappa_scan_report.json").read_text())
        assert report["failed"] == [{
            "delta": -0.1,
            "reason": "dephasing strength must be >= 0, got -0.1"}]

    @pytest.mark.parametrize("command,key,name,text", [
        ("tomography", "counts", "bad.csv", "a,b\n1,2\n"),
        ("optimize", "povm", "bad.json", "{}"),
    ], ids=["counts", "povm"])
    def test_failed_run_writes_nothing_and_names_the_file(
            self, tmp_path, capsys, command, key, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        argv = [command, f"--{key}", str(path), "--out", str(tmp_path / "o")]
        if key == "povm":
            argv += ["--measurement", "file", "--budget", "50"]
        code, out = run_cli(capsys, *argv)
        assert code == 1 and out["status"] == "error"
        assert out["errors"][0].startswith(f"{path}: ")
        assert not (tmp_path / "o").exists()



def write_counts(path):
    path.write_text(counts_to_csv(simulate_counts(
        bell_povm(), reference_states(), 1e3, seed=1)), encoding="utf-8")
    return str(path)


def write_povm(path, povm):
    path.write_text(povm_to_json(povm), encoding="utf-8")
    return str(path)


def qubit_povm(labels=("0", "1")):
    return Povm(labels, np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))


def test_simulating_counts_with_a_povm_of_another_dimension_is_refused(
        tmp_path, capsys):
    povm = write_povm(tmp_path / "qubit.json", qubit_povm())
    code, out = run_cli(capsys, "simulate-counts", "--exposure", "100",
                        "--measurement", "file", "--povm", povm,
                        "--out", str(tmp_path / "o"))
    assert code == 1
    assert out["errors"] == ["dimension mismatch: povm 2, reference states 4"]
    assert not (tmp_path / "o").exists()


def test_povm_file_with_a_repeated_label_is_refused(tmp_path, capsys):
    # counts.csv would hold two rows per state for the label, which
    # tomography refuses; the file is refused before any count is drawn
    doc = json.loads(povm_to_json(bell_povm()))
    doc["outcomes"][1]["label"] = "DD"
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(capsys, "simulate-counts", "--exposure", "100",
                        "--measurement", "file", "--povm", str(path),
                        "--out", str(tmp_path / "o"))
    assert code == 1
    assert out["errors"] == [f"{path}: POVM labels must be distinct, "
                             "repeated ['DD']"]
    assert not (tmp_path / "o").exists()


def test_counts_of_labels_with_csv_syntax_round_trip(tmp_path, capsys):
    # a comma, a quote and a line break in a label are quoted in counts.csv
    bell = bell_povm()
    labels = ("D,D", 'D"A', "A\nD", "AA")
    povm = write_povm(tmp_path / "povm.json", Povm(labels, bell.elements))
    code, _ = run_cli(capsys, "simulate-counts", "--exposure", "100",
                      "--measurement", "file", "--povm", povm,
                      "--out", str(tmp_path / "s"))
    assert code == 0
    counts = tmp_path / "s" / "counts.csv"
    assert load_counts(counts).outcome_labels == labels
    code, _ = run_cli(capsys, "tomography", "--counts", str(counts),
                      "--max-iters", "20", "--out", str(tmp_path / "t"))
    assert code == 0
    reconstructed = load_povm(tmp_path / "t" / "reconstructed_povm.json")
    assert reconstructed.labels == labels


def test_a_carriage_return_in_a_label_is_refused_by_name(tmp_path, capsys):
    # csv.writer does not quote a bare carriage return, which a reader
    # takes for a line break: simulate-counts refuses such a label, and
    # tomography names a counts.csv that holds one, whose row it splits
    povm = write_povm(tmp_path / "povm.json",
                      Povm(("A\rA", "DA", "AD", "AA"), bell_povm().elements))
    code, out = run_cli(capsys, "simulate-counts", "--exposure", "100",
                        "--measurement", "file", "--povm", povm,
                        "--out", str(tmp_path / "s"))
    assert code == 1
    assert out["errors"] == ["label 'A\\rA' holds a carriage return, which "
                             "counts.csv cannot hold"]
    assert not (tmp_path / "s").exists()
    path = tmp_path / "counts.csv"
    path.write_text(counts_to_csv(simulate_counts(
        bell_povm(), reference_states(), 100, seed=1)).replace("DD", "A\rA"),
        encoding="utf-8", newline="")
    with pytest.raises(ValueError, match=f"^{path}: counts for input .* "
                       "and outcome 'A' must be a number, got None"):
        load_counts(path)
    code, out = run_cli(capsys, "tomography", "--counts", str(path),
                        "--out", str(tmp_path / "t"))
    assert code == 1 and out["errors"][0].startswith(f"{path}: ")
    assert not (tmp_path / "t").exists()


class TestCompareTo:
    """``tomography --compare-to`` pairs the reference's elements with the
    reconstruction's by label, and refuses a reference that it cannot pair
    before the reconstruction runs."""

    @staticmethod
    def tomography(capsys, tmp_path, reference):
        path = write_povm(tmp_path / "reference.json", reference)
        code, out = run_cli(capsys, "tomography", "--counts",
                            write_counts(tmp_path / "c.csv"),
                            "--compare-to", path, "--max-iters", "50",
                            "--out", str(tmp_path / "o"))
        return code, out, path

    def test_reordered_labels_are_paired_by_label(self, tmp_path, capsys):
        bell = bell_povm()
        reversed_bell = Povm(bell.labels[::-1], bell.elements[::-1])
        code, _, _ = self.tomography(capsys, tmp_path, reversed_bell)
        assert code == 0
        out = tmp_path / "o"
        found = json.loads((out / "tomography_report.json").read_text())[
            "fidelity_vs_reference"]
        reconstructed = load_povm(out / "reconstructed_povm.json")
        ideal = dict(bell.outcomes)
        assert found == {label: povm_fidelity(element, ideal[label])
                         for label, element in reconstructed.outcomes}
        assert list(found) == list(bell.labels)

    @pytest.mark.parametrize("case", ["fewer", "dimension"])
    def test_unpairable_reference_is_refused_before_reconstructing(
            self, tmp_path, capsys, monkeypatch, case):
        def unreachable(*args, **kwargs):
            raise AssertionError("the reconstruction ran")

        monkeypatch.setattr(cli, "mle_reconstruct", unreachable)
        if case == "fewer":
            # a two-outcome measurement on the two-qubit states
            parity = np.diag([1.0, 0.0, 0.0, 1.0])
            reference = Povm(("x", "y"), np.array([parity, np.eye(4) - parity]))
            message = ("povm labels do not match the counts' outcomes: "
                       "repeated [], missing ['DD', 'DA', 'AD', 'AA'], "
                       "unexpected ['x', 'y']")
        else:
            reference = qubit_povm(("DD", "DA"))
            message = "dimension mismatch: povm 2, reference states 4"
        code, out, path = self.tomography(capsys, tmp_path, reference)
        assert code == 1
        assert out["errors"] == [f"{path}: {message}"]
        assert not (tmp_path / "o").exists()


class TestArtifactTable:
    """Each command's artifact names are declared in ``cli.COMMANDS``, so
    ``parse_config`` can refuse an input file that the run would
    overwrite before anything is written."""

    @pytest.mark.parametrize("command,argv", [
        ("qfi", ()),
        ("weak-comm", ()),
        ("kappa-scan", ("--sweep-points", "1", "--budget", "20")),
        ("optimize", ("--budget", "20")),
        ("tomography", ("--max-iters", "3")),
        ("simulate-counts", ("--exposure", "100")),
        ("conjecture-search", ("--trials", "2", "--xi-budget", "5")),
        ("gate-model", ()),
    ])
    def test_each_runner_returns_exactly_its_names(self, tmp_path, command,
                                                   argv):
        if command == "tomography":
            argv += ("--counts", write_counts(tmp_path / "c.csv"))
        cfg = parse_config(command, read_command_line([command, *argv]))
        _, names, runner = COMMANDS[command]
        texts = runner(cfg, {})
        assert len(texts) == len(names)
        assert all(isinstance(text, str) for text in texts)

    @pytest.mark.parametrize("key,name", [
        ("compare_to", "reconstructed_povm.json"),
        ("compare_to", "ll_trace.csv"),
        ("counts", "manifest.json"),
        ("counts", "run.log"),
    ])
    def test_tomography_input_in_its_output_is_refused(self, tmp_path,
                                                       capsys, key, name):
        clash = str(tmp_path / "o" / name)
        counts = clash if key == "counts" else write_counts(tmp_path / "c.csv")
        compare = ("--compare-to", clash) if key == "compare_to" else ()
        errors = refused(capsys, tmp_path, "tomography", "--counts", counts,
                         *compare)
        assert errors == [f"refusing to overwrite input file {clash} "
                          f"({key}) with an artifact of this run"]

    def test_povm_file_in_the_output_is_refused(self, tmp_path, capsys):
        povm = tmp_path / "o" / "counts.csv"
        errors = refused(capsys, tmp_path, "simulate-counts",
                         "--exposure", "10", "--measurement", "file",
                         "--povm", str(povm))
        assert errors == [f"refusing to overwrite input file {povm} (povm) "
                          "with an artifact of this run"]

    def test_input_beside_the_artifacts_is_read(self, tmp_path, capsys):
        (tmp_path / "o").mkdir()
        counts = write_counts(tmp_path / "o" / "c.csv")
        code, doc = run_cli(capsys, "tomography", "--counts", counts,
                            "--max-iters", "3", "--out", str(tmp_path / "o"))
        assert code == 0 and doc["status"] == "ok"


class TestDeterminism:
    def test_kappa_scan_reruns_are_byte_identical(self, tmp_path, capsys):
        def scan(out):
            code, _ = run_cli(capsys, "kappa-scan", "--sweep-points", "3",
                              "--budget", "150", "--seed", "9",
                              "--out", str(out))
            assert code == 0

        scan(tmp_path / "a")
        scan(tmp_path / "b")
        for name in ("kappa_scan.csv", "kappa_scan_report.json",
                     "manifest.json"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            # the config echo holds the out dir; normalize it before comparing
            if name == "manifest.json":
                first = first.replace(str(tmp_path / "a").encode(), b"X")
                second = second.replace(str(tmp_path / "b").encode(), b"X")
            assert first == second

    def test_simulated_counts_deterministic(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code, _ = run_cli(capsys, "simulate-counts", "--exposure", "5000",
                              "--seed", "12", "--out", str(tmp_path / sub))
            assert code == 0
        assert ((tmp_path / "a" / "counts.csv").read_bytes()
                == (tmp_path / "b" / "counts.csv").read_bytes())

    def test_tomography_explains_its_run(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "simulate-counts", "--exposure", "5000",
                          "--seed", "12", "--out", str(tmp_path / "counts"))
        assert code == 0
        for sub in ("a", "b"):
            code, _ = run_cli(capsys, "tomography", "--counts",
                              str(tmp_path / "counts" / "counts.csv"),
                              "--out", str(tmp_path / sub))
            assert code == 0
        trace = (tmp_path / "a" / "ll_trace.csv").read_text()
        assert trace == (tmp_path / "b" / "ll_trace.csv").read_text()
        header, *rows = trace.splitlines()
        assert header == "iteration,log_likelihood"
        report = json.loads((tmp_path / "a" / "tomography_report.json")
                            .read_text())
        assert (report["converged"], report["stop"]) == (True, "tolerance")
        assert [int(r.split(",")[0]) for r in rows] == list(
            range(report["iterations"] + 1))
        assert float(rows[-1].split(",")[1]) == report["log_likelihood"]
        log = dict(line.split("=") for line in
                   (tmp_path / "a" / "run.log").read_text().splitlines())
        assert list(log) == ["wall_time_s", "iterations", "mle_s",
                             "mle_ms_per_iteration"]
        assert int(log["iterations"]) == report["iterations"]
        assert float(log["mle_s"]) <= float(log["wall_time_s"])
        # mle_s in ms over the iterations, each rounded for the log
        mle_ms = float(log["mle_ms_per_iteration"]) * report["iterations"]
        assert abs(mle_ms - 1e3 * float(log["mle_s"])) \
            <= 0.5 + 1e-3 * mle_ms
