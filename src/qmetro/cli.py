"""Command-line entry point.

Commands: qfi, weak-comm, kappa-scan, optimize, tomography, simulate-counts,
conjecture-search, gate-model. Settings come from an INI-style config file
(section [run], plus an optional section named after the command) and can be
overridden by command-line flags of the same name. Every run writes its
artifacts atomically into the output directory along with a deterministic
manifest.json; wall time goes to run.log so that reruns with the same config
and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import os
import sys
import time

import numpy as np

from . import __version__, serialize
from .fisher import (qfi_matrix, sld_operators, weak_commutativity,
                     weak_commutativity_root)
from .povm import (BALANCED_T_V, GateModel, bell_povm, cs_gate_amplitudes,
                   cs_gate_povm, load_povm, povm_to_json,
                   product_projective_povm, validate_povm)
from .scenarios import (Scenario, kappa_scan, optimize_kappa,
                        random_collective_search)
from .states import (PHASE_DEPHASING, TWO_PHASE, ProbeFamily,
                     probe_with_derivatives)
from .tomography import (counts_to_csv, load_counts, mle_reconstruct,
                         povm_fidelity, reference_states, simulate_counts)

COMMANDS = ("qfi", "weak-comm", "kappa-scan", "optimize", "tomography",
            "simulate-counts", "conjecture-search", "gate-model")


class ConfigError(Exception):
    """Carries the full list of validation problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _bool(text):
    value = str(text).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (type, default); keys with default REQUIRED must be provided
REQUIRED = object()

_COMMON = {
    "seed": (int, 0),
    "out": (str, "."),
}

_FAMILY_KEYS = {
    "family": (str, PHASE_DEPHASING),
    "copies": (int, 1),
    "phi": (float, 0.0),
    "delta": (float, 0.5),
    "phi_y": (float, 0.4),
    "phi_z": (float, 0.3),
    "xi": (float, 0.0),
    "xi_1": (float, None),
    "xi_2": (float, None),
}

_MEASUREMENT_KEYS = {
    "measurement": (str, "bell"),
    "visibility": (float, 1.0),
    "compensated": (_bool, True),
    "t_h": (float, 1.0),
    "t_v": (float, BALANCED_T_V),
    "theta_1": (float, 0.0),
    "eta_1": (float, 0.0),
    "theta_2": (float, 0.0),
    "eta_2": (float, 0.0),
    "povm": (str, None),
}

SCHEMAS: dict[str, dict] = {
    "qfi": {**_COMMON, **_FAMILY_KEYS},
    "weak-comm": {**_COMMON, **_FAMILY_KEYS, "find_root": (_bool, False)},
    "kappa-scan": {
        **_COMMON, **_FAMILY_KEYS, "copies": (int, 2), **_MEASUREMENT_KEYS,
        "free_inputs": (str, None),
        "budget": (int, 2000),
        "sweep": (str, None),
        "sweep_min": (float, 0.02),
        "sweep_max": (float, 3.0),
        "sweep_points": (int, 40),
        "sweep_spacing": (str, "log"),
    },
    "optimize": {
        **_COMMON, **_FAMILY_KEYS, "copies": (int, 2), **_MEASUREMENT_KEYS,
        "free_inputs": (str, None),
        "budget": (int, 2000),
    },
    "tomography": {
        **_COMMON,
        "counts": (str, REQUIRED),
        "max_iters": (int, 5000),
        "tol": (float, 1e-10),
        "compare_to": (str, None),
    },
    "simulate-counts": {
        **_COMMON, **_MEASUREMENT_KEYS,
        "exposure": (float, REQUIRED),
    },
    "conjecture-search": {
        **_COMMON,
        "trials": (int, 1000),
        "phi_y": (float, 0.4),
        "phi_z": (float, 0.3),
        "xi_budget": (int, 48),
    },
    "gate-model": {**_COMMON, **_MEASUREMENT_KEYS},
}

_VALIDATORS = {
    "visibility": lambda v: 0.0 <= v <= 1.0 or "visibility must lie in [0, 1]",
    "t_h": lambda v: 0.0 <= v <= 1.0 or "t_h must lie in [0, 1]",
    "t_v": lambda v: 0.0 <= v <= 1.0 or "t_v must lie in [0, 1]",
    "copies": lambda v: v >= 1 or "copies must be >= 1",
    "budget": lambda v: v >= 1 or "budget must be >= 1",
    "trials": lambda v: v >= 1 or "trials must be >= 1",
    "exposure": lambda v: v > 0 or "exposure must be positive",
    "sweep_points": lambda v: v >= 1 or "sweep_points must be >= 1",
    "family": lambda v: v in (PHASE_DEPHASING, TWO_PHASE)
        or f"family must be one of {PHASE_DEPHASING!r}, {TWO_PHASE!r}",
    "measurement": lambda v: v in ("bell", "gate", "product-projective", "file")
        or "measurement must be bell, gate, product-projective or file",
    "sweep_spacing": lambda v: v in ("log", "linear")
        or "sweep_spacing must be log or linear",
}


def parse_config(command: str, raw: dict[str, str]) -> dict:
    """Validate raw string settings against the command schema.

    Reports every problem at once: unknown keys (with the nearest valid key),
    type errors, missing required keys and range violations.
    """
    if command not in SCHEMAS:
        raise ConfigError([f"unknown command {command!r}; valid: {', '.join(COMMANDS)}"])
    schema = SCHEMAS[command]
    errors = []
    config = {}
    for key, text in raw.items():
        if key not in schema:
            near = difflib.get_close_matches(key, schema, n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            errors.append(f"unknown key {key!r} for command {command!r}{hint}")
            continue
        typ = schema[key][0]
        try:
            config[key] = typ(text)
        except (TypeError, ValueError):
            errors.append(f"key {key!r}: cannot parse {text!r} as {typ.__name__}")
    for key, (typ, default) in schema.items():
        if key in config:
            continue
        if default is REQUIRED:
            errors.append(f"command {command!r} requires key {key!r}")
        else:
            config[key] = default
    for key, check in _VALIDATORS.items():
        if key in config and config[key] is not None:
            verdict = check(config[key])
            if isinstance(verdict, str):
                errors.append(verdict)
    if errors:
        raise ConfigError(errors)
    return config


def read_config_file(path: str, command: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    raw: dict[str, str] = {}
    for section in ("run", command):
        if parser.has_section(section):
            raw.update(dict(parser.items(section)))
    raw.pop("command", None)
    return raw


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _family_from_config(cfg) -> ProbeFamily:
    copies = int(cfg["copies"])
    if cfg["family"] == TWO_PHASE:
        return ProbeFamily.two_phase(copies=copies, xi=cfg["xi"])
    phases = []
    for i in range(copies):
        specific = cfg.get(f"xi_{i + 1}")
        phases.append(cfg["xi"] if specific is None else specific)
    return ProbeFamily.phase_dephasing(copies=copies, xi=tuple(phases))


def _family_point(cfg) -> tuple[float, float]:
    if cfg["family"] == TWO_PHASE:
        return (cfg["phi_y"], cfg["phi_z"])
    return (cfg["phi"], cfg["delta"])


def _measurement_from_config(cfg):
    kind = cfg["measurement"]
    if kind == "bell":
        return bell_povm()
    if kind == "gate":
        model = GateModel(t_h=cfg["t_h"], t_v=cfg["t_v"],
                          visibility=cfg["visibility"],
                          compensated=cfg["compensated"])
        return cs_gate_povm(model)[0]
    if kind == "product-projective":
        return product_projective_povm((cfg["theta_1"], cfg["eta_1"],
                                        cfg["theta_2"], cfg["eta_2"]))
    if kind == "file":
        if not cfg.get("povm"):
            raise ConfigError(["measurement=file requires key 'povm'"])
        return load_povm(cfg["povm"])
    raise ConfigError([f"unknown measurement {kind!r}"])


def _matrix_doc(m: np.ndarray) -> dict:
    return {"re": [[float(x) for x in row] for row in np.asarray(m).real],
            "im": [[float(x) for x in row] for row in np.asarray(m).imag]}


def _cmd_qfi(cfg, out):
    family = _family_from_config(cfg)
    params = _family_point(cfg)
    swd = probe_with_derivatives(family, params)
    slds = sld_operators(swd)
    H = qfi_matrix(swd, slds)
    doc = {
        "family": cfg["family"],
        "copies": cfg["copies"],
        "parameter_names": list(family.parameter_names),
        "params": [float(p) for p in params],
        "input_phases": [float(x) for x in family.input_phases],
        "qfi_matrix": [[float(x) for x in row] for row in H],
        "det": float(np.linalg.det(H)),
    }
    return {"qfi.json": serialize.dumps_json(doc)}


def _cmd_weak_comm(cfg, out):
    family = _family_from_config(cfg)
    params = _family_point(cfg)
    swd = probe_with_derivatives(family, params)
    value = weak_commutativity(swd)
    doc = {
        "family": cfg["family"],
        "copies": cfg["copies"],
        "parameter_names": list(family.parameter_names),
        "params": [float(p) for p in params],
        "input_phases": [float(x) for x in family.input_phases],
        "value": float(value),
    }
    if cfg["find_root"]:
        if cfg["family"] != TWO_PHASE:
            raise ConfigError(["find_root applies to the two-phase family only"])
        xi_bar = weak_commutativity_root(cfg["phi_y"], cfg["phi_z"])
        root_family = ProbeFamily.two_phase(copies=1, xi=xi_bar)
        root_swd = probe_with_derivatives(root_family, params)
        doc["xi_bar"] = float(xi_bar)
        doc["qfi_det_at_root"] = float(np.linalg.det(qfi_matrix(root_swd)))
    return {"weak_comm.json": serialize.dumps_json(doc)}


def _scenario_from_config(cfg) -> Scenario:
    family = _family_from_config(cfg)
    measurement = _measurement_from_config(cfg)
    if cfg["family"] == TWO_PHASE:
        default_free = "xi"
        default_sweep = "phi_z"
        fixed = {"phi_y": cfg["phi_y"], "phi_z": cfg["phi_z"], "xi": cfg["xi"]}
    else:
        default_free = "phi,xi_1,xi_2" if cfg["copies"] == 2 else "phi,xi_1"
        default_sweep = "delta"
        fixed = {"phi": cfg["phi"], "delta": cfg["delta"]}
        for i in range(cfg["copies"]):
            name = f"xi_{i + 1}"
            fixed[name] = cfg["xi"] if cfg.get(name) is None else cfg[name]
    free_text = cfg.get("free_inputs") or default_free
    free = tuple(s.strip() for s in free_text.split(",") if s.strip())
    sweep = cfg.get("sweep") or default_sweep
    for name in free:
        fixed.pop(name, None)
    fixed.pop(sweep, None)
    return Scenario(family=family, measurement=measurement, free_inputs=free,
                    fixed_inputs=fixed, sweep=sweep)


def _sweep_grid(cfg):
    if cfg["sweep_spacing"] == "log":
        if cfg["sweep_min"] <= 0:
            raise ConfigError(["sweep_min must be positive for log spacing"])
        return np.geomspace(cfg["sweep_min"], cfg["sweep_max"], cfg["sweep_points"])
    return np.linspace(cfg["sweep_min"], cfg["sweep_max"], cfg["sweep_points"])


def _cmd_kappa_scan(cfg, out):
    scenario = _scenario_from_config(cfg)
    curve = kappa_scan(scenario, _sweep_grid(cfg), budget=cfg["budget"])
    header, rows = curve.rows()
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            "nan" if v != v else serialize.format_float(v) for v in row))
    return {"kappa_scan.csv": "\n".join(lines) + "\n"}


def _cmd_optimize(cfg, out):
    scenario = _scenario_from_config(cfg)
    at = cfg["delta"] if cfg["family"] == PHASE_DEPHASING else cfg["phi_z"]
    outcome = optimize_kappa(scenario, at, budget=cfg["budget"])
    doc = {
        "family": cfg["family"],
        "sweep": scenario.sweep,
        "at": float(at),
        "kappa": float(outcome.result.kappa),
        "per_parameter": {
            name: float(v) for name, v in
            zip(scenario.family.parameter_names, outcome.result.per_parameter)},
        "settings": {k: float(v) for k, v in sorted(outcome.settings.items())},
        "evaluations": outcome.evaluations,
        "excluded_parameters": list(outcome.result.excluded),
    }
    return {"optimize.json": serialize.dumps_json(doc)}


def _cmd_simulate_counts(cfg, out):
    povm = _measurement_from_config(cfg)
    refs = reference_states()
    counts = simulate_counts(povm, refs, cfg["exposure"], cfg["seed"])
    return {"counts.csv": counts_to_csv(counts)}


def _cmd_tomography(cfg, out):
    counts = load_counts(cfg["counts"])
    refs = reference_states()
    result = mle_reconstruct(counts, refs, max_iters=cfg["max_iters"],
                             tol=cfg["tol"])
    validation = validate_povm(result.povm)
    doc = {
        "converged": result.converged,
        "iterations": result.iterations,
        "log_likelihood": float(result.log_likelihood),
        "floored_events": result.floored_events,
        "validation": {
            "hermiticity_defect": validation.hermiticity_defect,
            "min_eigenvalue": validation.min_eigenvalue,
            "completeness_residual": validation.completeness_residual,
            "passed": validation.passed,
        },
    }
    if cfg.get("compare_to"):
        ideal = load_povm(cfg["compare_to"])
        doc["fidelity_vs_reference"] = {
            label: float(povm_fidelity(cand, ref))
            for label, cand, ref in zip(result.povm.labels,
                                        result.povm.elements, ideal.elements)}
    return {"reconstructed_povm.json": povm_to_json(result.povm),
            "tomography_report.json": serialize.dumps_json(doc)}


def _cmd_conjecture_search(cfg, out):
    family = ProbeFamily.two_phase(copies=2)
    result = random_collective_search(family, cfg["trials"], cfg["seed"],
                                      at=(cfg["phi_y"], cfg["phi_z"]),
                                      xi_budget=cfg["xi_budget"])
    doc = {
        "trials": result.trials,
        "seed": result.seed,
        "at": {"phi_y": result.at[0], "phi_z": result.at[1]},
        "max_kappa": float(result.max_kappa),
        "argmax": {
            "trial_index": result.trial_index,
            "xi": float(result.xi),
            "per_parameter": [float(v) for v in result.per_parameter],
            "basis": _matrix_doc(result.basis),
        },
    }
    return {"conjecture_search.json": serialize.dumps_json(doc)}


def _cmd_gate_model(cfg, out):
    model = GateModel(t_h=cfg["t_h"], t_v=cfg["t_v"],
                      visibility=cfg["visibility"],
                      compensated=cfg["compensated"])
    povm, success = cs_gate_povm(model)
    validation = validate_povm(povm)
    ideal = bell_povm()
    doc = {
        "t_h": model.t_h,
        "t_v": model.t_v,
        "visibility": model.visibility,
        "compensated": model.compensated,
        "amplitudes": {k: float(v) for k, v in cs_gate_amplitudes(model).items()},
        "success_probabilities": {k: float(v) for k, v in success.items()},
        "max_abs_difference_vs_bell": float(
            np.abs(povm.elements - ideal.elements).max()),
        "validation": {
            "hermiticity_defect": validation.hermiticity_defect,
            "min_eigenvalue": validation.min_eigenvalue,
            "completeness_residual": validation.completeness_residual,
            "passed": validation.passed,
        },
    }
    return {"gate_povm.json": povm_to_json(povm),
            "gate_report.json": serialize.dumps_json(doc)}


_RUNNERS = {
    "qfi": _cmd_qfi,
    "weak-comm": _cmd_weak_comm,
    "kappa-scan": _cmd_kappa_scan,
    "optimize": _cmd_optimize,
    "tomography": _cmd_tomography,
    "simulate-counts": _cmd_simulate_counts,
    "conjecture-search": _cmd_conjecture_search,
    "gate-model": _cmd_gate_model,
}

_INPUT_PATH_KEYS = ("counts", "povm", "compare_to")


def run(command: str, cfg: dict) -> list[str]:
    """Execute a validated config; returns the artifact paths written."""
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    artifacts = _RUNNERS[command](cfg, out_dir)
    inputs = {os.path.abspath(cfg[k]) for k in _INPUT_PATH_KEYS
              if cfg.get(k)}
    manifest = {
        "command": command,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "seed": cfg["seed"],
        "versions": {
            "qmetro": __version__,
            "numpy": np.__version__,
        },
        "artifacts": sorted(artifacts),
    }
    written = []
    for name, text in artifacts.items():
        path = os.path.join(out_dir, name)
        if os.path.abspath(path) in inputs:
            raise RuntimeError(f"refusing to overwrite input file {path}")
        serialize.atomic_write_text(path, text)
        written.append(path)
    manifest_path = os.path.join(out_dir, "manifest.json")
    serialize.atomic_write_text(manifest_path, serialize.dumps_json(manifest))
    written.append(manifest_path)
    elapsed = time.perf_counter() - start
    serialize.atomic_write_text(os.path.join(out_dir, "run.log"),
                                f"wall_time_s={elapsed:.3f}\n")
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetro",
        description="Multiparameter qubit estimation workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="INI config file")
        for key, (typ, default) in SCHEMAS[command].items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, default=None,
                           metavar=key.upper(), type=str)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    raw: dict[str, str] = {}
    try:
        if args.config:
            raw.update(read_config_file(args.config, command))
        for key in SCHEMAS[command]:
            override = getattr(args, key, None)
            if override is not None:
                raw[key] = override
        cfg = parse_config(command, raw)
    except ConfigError as exc:
        print(serialize.dumps_json({"status": "error", "command": command,
                                    "errors": exc.errors}), end="")
        return 2
    except OSError as exc:
        print(serialize.dumps_json({"status": "error", "command": command,
                                    "errors": [str(exc)]}), end="")
        return 2
    try:
        written = run(command, cfg)
    except (ConfigError, RuntimeError, ValueError, OSError) as exc:
        errors = exc.errors if isinstance(exc, ConfigError) else [str(exc)]
        print(serialize.dumps_json({"status": "error", "command": command,
                                    "errors": errors}), end="")
        return 1
    print(serialize.dumps_json({"status": "ok", "command": command,
                                "artifacts": sorted(written)}), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
