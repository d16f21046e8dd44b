"""Command-line entry point: ``qmetro COMMAND --key value ...``.

Commands: qfi, weak-comm, kappa-scan, optimize, tomography, simulate-counts,
conjecture-search, gate-model. Flags are the config keys of ``SCHEMAS``
(``--key value`` or ``--key=value``, ``-`` read as ``_``) and win over an INI
``--config`` file (section [run], plus one named after the command);
``--help`` lists them. ``parse_config`` refuses every config mistake before
anything is written (a JSON status line, exit 2); it checks the inputs a
command names with the scenario's own ``scenarios.input_problems``, where
copy j's phase is its ``xi_j`` if that is set, free or swept, and ``xi``
otherwise. A run that fails (a JSON status line, exit 1) writes nothing;
every other run writes its artifacts atomically into the output
directory along with a deterministic manifest.json; wall time goes to
run.log so that reruns with the same config and seed are byte-identical.
The searches add their work to run.log as key=value lines: ``evaluations``
(κ rows scored), ``kernel_calls`` and ``refine_iterations`` (Nelder-Mead
iterations summed over the refined points or trials); tomography adds
``iterations`` (MLE iterations) and ``mle_s`` (seconds in the
reconstruction), and writes the log-likelihood at the start and after each
iteration to ll_trace.csv.
"""

from __future__ import annotations

import configparser
import difflib
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, serialize
from .fisher import qfi_matrix, weak_commutativity, weak_commutativity_root
from .povm import (BALANCED_T_V, GateModel, bell_povm, cs_gate_amplitudes,
                   cs_gate_povm, load_povm, povm_to_json,
                   product_projective_povm, validate_povm)
from .scenarios import (DEFAULT_BUDGET, DEFAULT_SEARCH_AT, DEFAULT_XI_BUDGET,
                        Scenario, input_problems, kappa_scan, optimize_kappa,
                        phase_names, random_collective_search)
from .states import (PHASE_DEPHASING, TWO_PHASE, ProbeFamily,
                     probe_with_derivatives)
from .tomography import (DEFAULT_MAX_ITERS, DEFAULT_TOL, counts_to_csv,
                         load_counts, mle_reconstruct, povm_fidelity,
                         reference_states, simulate_counts)


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

_GATE_KEYS = {
    "visibility": (float, 1.0),
    "compensated": (_bool, True),
    "t_h": (float, 1.0),
    "t_v": (float, BALANCED_T_V),
}

_MEASUREMENT_KEYS = {
    "measurement": (str, "bell"),
    **_GATE_KEYS,
    "theta_1": (float, 0.0),
    "eta_1": (float, 0.0),
    "theta_2": (float, 0.0),
    "eta_2": (float, 0.0),
    "povm": (str, None),
}

#: each measurement: the keys it reads, in the order its builder takes them
_MEASUREMENTS = {
    "bell": ((), bell_povm),
    "gate": (("t_h", "t_v", "visibility", "compensated"),
             lambda *model: cs_gate_povm(GateModel(*model))[0]),
    "product-projective": (("theta_1", "eta_1", "theta_2", "eta_2"),
                           lambda *angles: product_projective_povm(angles)),
    "file": (("povm",), load_povm),
}

SCHEMAS: dict[str, dict] = {
    "qfi": {**_COMMON, **_FAMILY_KEYS},
    "weak-comm": {**_COMMON, **_FAMILY_KEYS, "find_root": (_bool, False)},
    "kappa-scan": {
        **_COMMON, **_FAMILY_KEYS, "copies": (int, 2), **_MEASUREMENT_KEYS,
        "free_inputs": (str, None),
        "budget": (int, DEFAULT_BUDGET),
        "sweep": (str, None),
        "sweep_min": (float, 0.02),
        "sweep_max": (float, 3.0),
        "sweep_points": (int, 40),
        "sweep_spacing": (str, "log"),
    },
    "optimize": {
        **_COMMON, **_FAMILY_KEYS, "copies": (int, 2), **_MEASUREMENT_KEYS,
        "free_inputs": (str, None),
        "budget": (int, DEFAULT_BUDGET),
    },
    "tomography": {
        **_COMMON,
        "counts": (str, REQUIRED),
        "max_iters": (int, DEFAULT_MAX_ITERS),
        "tol": (float, DEFAULT_TOL),
        "compare_to": (str, None),
    },
    "simulate-counts": {
        **_COMMON, **_MEASUREMENT_KEYS,
        "exposure": (float, REQUIRED),
    },
    "conjecture-search": {
        **_COMMON,
        "trials": (int, 1000),
        "phi_y": (float, DEFAULT_SEARCH_AT[0]),
        "phi_z": (float, DEFAULT_SEARCH_AT[1]),
        "xi_budget": (int, DEFAULT_XI_BUDGET),
    },
    "gate-model": {**_COMMON, **_GATE_KEYS},
}
COMMANDS = tuple(SCHEMAS)

_VALIDATORS = {
    "visibility": lambda v: 0.0 <= v <= 1.0 or "visibility must lie in [0, 1]",
    "t_h": lambda v: 0.0 <= v <= 1.0 or "t_h must lie in [0, 1]",
    "t_v": lambda v: 0.0 <= v <= 1.0 or "t_v must lie in [0, 1]",
    "copies": lambda v: v >= 1 or "copies must be >= 1",
    # nan passes here, to be named as not finite below
    "delta": lambda v: not v < 0 or "delta must be >= 0",
    "budget": lambda v: v >= 1 or "budget must be >= 1",
    "trials": lambda v: v >= 1 or "trials must be >= 1",
    "xi_budget": lambda v: v >= 1 or "xi_budget must be >= 1",
    "max_iters": lambda v: v >= 1 or "max_iters must be >= 1",
    "tol": lambda v: v >= 0 or "tol must be >= 0",
    "exposure": lambda v: v > 0 or "exposure must be positive",
    "sweep_points": lambda v: v >= 1 or "sweep_points must be >= 1",
    "family": lambda v: v in (PHASE_DEPHASING, TWO_PHASE)
        or f"family must be one of {PHASE_DEPHASING!r}, {TWO_PHASE!r}",
    "measurement": lambda v: v in _MEASUREMENTS
        or "measurement must be bell, gate, product-projective or file",
    "sweep_spacing": lambda v: v in ("log", "linear")
        or "sweep_spacing must be log or linear",
}

#: checks on settings that must agree: the keys each reads, the commands it
#: applies to, and the check, as in ``_VALIDATORS``
_AGREEMENTS = (
    (("sweep_min", "sweep_spacing"), ("kappa-scan",),
     lambda c: c["sweep_spacing"] != "log" or c["sweep_min"] > 0
     or "sweep_min must be positive for log spacing"),
    (("sweep_min", "sweep_max", "sweep_points"), ("kappa-scan",),
     lambda c: c["sweep_points"] == 1 or c["sweep_min"] < c["sweep_max"]
     or f"sweep_min ({c['sweep_min']!r}) must be less than sweep_max "
        f"({c['sweep_max']!r}) when sweep_points > 1"),
    (("measurement", "povm"), ("kappa-scan", "optimize", "simulate-counts"),
     lambda c: c["measurement"] != "file" or bool(c["povm"])
     or "measurement=file requires key 'povm'"),
    (("copies", "measurement"), ("kappa-scan", "optimize"),
     lambda c: c["copies"] == 2 or c["measurement"] == "file"
     or f"measurement={c['measurement']} acts on two qubits, which needs "
        f"copies = 2, got {c['copies']}"),
    (("find_root", "family"), ("weak-comm",),
     lambda c: not c["find_root"] or c["family"] == TWO_PHASE
     or "find_root applies to the two-phase family only"),
)


#: the artifacts each command writes into ``out``, beside manifest.json and
#: run.log
_ARTIFACTS = {
    "qfi": ("qfi.json",),
    "weak-comm": ("weak_comm.json",),
    "kappa-scan": ("kappa_scan.csv", "kappa_scan_report.json"),
    "optimize": ("optimize.json",),
    "tomography": ("reconstructed_povm.json", "tomography_report.json",
                   "ll_trace.csv"),
    "simulate-counts": ("counts.csv",),
    "conjecture-search": ("conjecture_search.json",),
    "gate-model": ("gate_povm.json", "gate_report.json"),
}
_INPUT_PATH_KEYS = ("counts", "povm", "compare_to")

#: the keys that set an input of a probe: each family's point and the phases
_PROBE_KEYS = {key for key in _FAMILY_KEYS if key not in ("family", "copies")}


def parse_config(command: str, raw: dict[str, str]) -> dict:
    """Validate raw string settings against the command schema.

    Reports every problem at once: unknown keys (with the nearest valid key),
    type errors, missing required keys, non-finite numbers, range
    violations, settings that must agree, such as a rising sweep range,
    measurement keys that the measurement does not read, an input file
    that the run would overwrite, and the scenario's ``input_problems``,
    where a probe key set is a fixed input.
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
    # the keys that have their own error; first those that did not parse
    flagged = set(raw) - set(config)
    for key, (typ, default) in schema.items():
        if key in config:
            continue
        if default is REQUIRED:
            errors.append(f"command {command!r} requires key {key!r}")
        else:
            config[key] = default
    for key, value in config.items():
        check = _VALIDATORS.get(key)
        verdict = True if value is None or check is None else check(value)
        # float() accepts nan and inf; a key gets one message
        if verdict is True and isinstance(value, float) \
                and not math.isfinite(value):
            verdict = f"{key} must be finite, got {value!r}"
        if isinstance(verdict, str):
            errors.append(verdict)
            flagged.add(key)
    for keys, commands, check in _AGREEMENTS:
        # a key that has its message gets no second one
        if command in commands and flagged.isdisjoint(keys) \
                and isinstance(verdict := check(config), str):
            errors.append(verdict)
    kind = config.get("measurement")
    if kind in _MEASUREMENTS:
        unread = (_MEASUREMENT_KEYS.keys() - flagged
                  - {"measurement", *_MEASUREMENTS[kind][0]})
        errors += [f"key {key!r} is not read by measurement={kind}"
                   for key in raw if key in unread]
        flagged |= unread
    writes = {os.path.abspath(os.path.join(config["out"], name)) for name
              in (*_ARTIFACTS[command], "manifest.json", "run.log")}
    errors += [f"refusing to overwrite input file {config[key]} ({key}) "
               f"with an artifact of this run" for key in _INPUT_PATH_KEYS
               if key not in flagged and config.get(key)
               and os.path.abspath(config[key]) in writes]
    if "family" in schema and flagged.isdisjoint(("family", "copies")):
        sweep = _swept(config)
        family, free, fixed = _inputs(config, sweep)
        fixed = {*fixed, *_PROBE_KEYS & set(raw) - flagged}
        errors += input_problems(family, free, fixed, sweep)
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

def _measurement_from_config(cfg):
    keys, build = _MEASUREMENTS[cfg["measurement"]]
    return build(*(cfg[key] for key in keys))


def _swept(cfg) -> str | None:
    """The input that ``kappa-scan`` sweeps: ``sweep``, by default the
    family's second parameter; None for the other commands."""
    if "sweep" not in cfg:
        return None
    return cfg["sweep"] or ProbeFamily(cfg["family"]).parameter_names[1]


def _inputs(cfg, sweep: str | None):
    """The probe family of ``cfg``, its free inputs and its fixed inputs:
    each input that the scenario reads and that is neither free nor
    ``sweep``, from its key. Copy j's phase is ``xi_j`` where that is free,
    swept or set, and ``xi`` otherwise (``phase_names``). Without
    ``free_inputs`` a search frees the two-phase ``xi``, or ``phi`` and
    every copy's ``xi_j``; a command without the key frees nothing."""
    family = ProbeFamily(cfg["family"], cfg["copies"])
    free = ()
    if "free_inputs" in cfg:
        default = ("xi",) if family.kind == TWO_PHASE else (
            "phi", *(f"xi_{j}" for j in range(1, family.copies + 1)))
        text = cfg["free_inputs"] or ",".join(default)
        free = tuple(s.strip() for s in text.split(",") if s.strip())
    named = {*free, sweep, *(k for k in _PROBE_KEYS if cfg[k] is not None)}
    reads = dict.fromkeys((*family.parameter_names,
                           *phase_names(family, named)))
    fixed = {n: cfg[n] for n in reads if n not in free and n != sweep}
    return family, free, fixed


def _probe_point(cfg):
    """The probe that ``qfi`` and ``weak-comm`` evaluate: its JSON header
    and its state with derivatives."""
    family, _, fixed = _inputs(cfg, None)
    params = tuple(fixed[n] for n in family.parameter_names)
    phases = tuple(fixed[n] for n in phase_names(family, fixed))
    doc = {
        "family": cfg["family"],
        "copies": cfg["copies"],
        "parameter_names": list(family.parameter_names),
        "params": [float(p) for p in params],
        "input_phases": [float(x) for x in phases],
    }
    return doc, probe_with_derivatives(family, params, phases)


def _cmd_qfi(cfg, log):
    doc, swd = _probe_point(cfg)
    H = qfi_matrix(swd)
    doc["qfi_matrix"] = [[float(x) for x in row] for row in H]
    doc["det"] = float(np.linalg.det(H))
    return {"qfi.json": serialize.dumps_json(doc)}


def _cmd_weak_comm(cfg, log):
    doc, swd = _probe_point(cfg)
    doc["value"] = float(weak_commutativity(swd))
    if cfg["find_root"]:
        xi_bar = weak_commutativity_root(cfg["phi_y"], cfg["phi_z"])
        root_swd = probe_with_derivatives(
            ProbeFamily.two_phase(), (cfg["phi_y"], cfg["phi_z"]), (xi_bar,))
        doc["xi_bar"] = float(xi_bar)
        doc["qfi_det_at_root"] = float(np.linalg.det(qfi_matrix(root_swd)))
    return {"weak_comm.json": serialize.dumps_json(doc)}


def _scenario_from_config(cfg) -> Scenario:
    """The scenario of ``kappa-scan`` or ``optimize``. ``optimize`` sweeps
    the family's second parameter, the point it optimizes at, unless that
    is free."""
    sweep = _swept(cfg)
    family, free, fixed = _inputs(cfg, sweep)
    point = family.parameter_names[1]
    if "sweep" not in cfg and point in fixed:
        sweep = point
        del fixed[point]
    return Scenario(family=family, measurement=_measurement_from_config(cfg),
                    free_inputs=free, fixed_inputs=fixed, sweep=sweep)


def _sweep_grid(cfg):
    space = np.geomspace if cfg["sweep_spacing"] == "log" else np.linspace
    return space(cfg["sweep_min"], cfg["sweep_max"], cfg["sweep_points"])


def _cmd_kappa_scan(cfg, log):
    scenario = _scenario_from_config(cfg)
    curve = kappa_scan(scenario, _sweep_grid(cfg), budget=cfg["budget"])
    log.update(asdict(curve.work))
    header, rows = curve.rows()
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            "nan" if v != v else serialize.format_float(v) for v in row))
    report = {
        "points": int(curve.grid.size),
        "failed": [{curve.sweep: float(x), "reason": reason}
                   for x, reason in zip(curve.grid, curve.failed)
                   if reason is not None],
    }
    return {"kappa_scan.csv": "\n".join(lines) + "\n",
            "kappa_scan_report.json": serialize.dumps_json(report)}


def _cmd_optimize(cfg, log):
    scenario = _scenario_from_config(cfg)
    sweep = scenario.sweep
    at = None if sweep is None else cfg[sweep]
    outcome = optimize_kappa(scenario, at, budget=cfg["budget"])
    log.update(asdict(outcome.work))
    doc = {
        "family": cfg["family"],
        "sweep": sweep,
        "at": at,
        "kappa": float(outcome.result.kappa),
        "per_parameter": {
            name: float(v) for name, v in
            zip(scenario.family.parameter_names, outcome.result.per_parameter)},
        "settings": {k: float(v) for k, v in sorted(outcome.settings.items())},
        "evaluations": outcome.work.evaluations,
        "excluded_parameters": list(outcome.result.excluded),
    }
    return {"optimize.json": serialize.dumps_json(doc)}


def _cmd_simulate_counts(cfg, log):
    povm = _measurement_from_config(cfg)
    refs = reference_states()
    counts = simulate_counts(povm, refs, cfg["exposure"], cfg["seed"])
    return {"counts.csv": counts_to_csv(counts)}


def _cmd_tomography(cfg, log):
    counts = load_counts(cfg["counts"])
    refs = reference_states()
    start = time.perf_counter()
    result = mle_reconstruct(counts, refs, max_iters=cfg["max_iters"],
                             tol=cfg["tol"])
    log["iterations"] = result.iterations
    log["mle_s"] = f"{time.perf_counter() - start:.3f}"
    doc = {
        "converged": result.converged,
        "stop": result.stop,
        "iterations": result.iterations,
        "log_likelihood": float(result.log_likelihood),
        "floored_events": result.floored_events,
        "validation": asdict(validate_povm(result.povm)),
    }
    if cfg.get("compare_to"):
        ideal = load_povm(cfg["compare_to"])
        doc["fidelity_vs_reference"] = {
            label: float(povm_fidelity(cand, ref))
            for label, cand, ref in zip(result.povm.labels,
                                        result.povm.elements, ideal.elements)}
    trace = "".join(f"{i},{serialize.format_float(v)}\n"
                    for i, v in enumerate(result.ll_trace))
    return {"reconstructed_povm.json": povm_to_json(result.povm),
            "tomography_report.json": serialize.dumps_json(doc),
            "ll_trace.csv": "iteration,log_likelihood\n" + trace}


def _cmd_conjecture_search(cfg, log):
    result = random_collective_search(cfg["trials"], cfg["seed"],
                                      at=(cfg["phi_y"], cfg["phi_z"]),
                                      xi_budget=cfg["xi_budget"])
    log.update(asdict(result.work))
    doc = {
        "trials": result.trials,
        "seed": result.seed,
        "at": {"phi_y": result.at[0], "phi_z": result.at[1]},
        "max_kappa": float(result.max_kappa),
        "argmax": {
            "trial_index": result.trial_index,
            "xi": float(result.xi),
            "per_parameter": [float(v) for v in result.per_parameter],
            "basis": serialize.complex_matrix_doc(result.basis),
        },
    }
    return {"conjecture_search.json": serialize.dumps_json(doc)}


def _cmd_gate_model(cfg, log):
    model = GateModel(*(cfg[key] for key in _MEASUREMENTS["gate"][0]))
    povm, success = cs_gate_povm(model)
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
        "validation": asdict(validate_povm(povm)),
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


def run(command: str, cfg: dict) -> list[str]:
    """Execute a validated config; returns the artifact paths written."""
    out_dir = cfg["out"]
    start = time.perf_counter()
    log: dict[str, object] = {}
    artifacts = _RUNNERS[command](cfg, log)
    os.makedirs(out_dir, exist_ok=True)
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
        serialize.atomic_write_text(path, text)
        written.append(path)
    manifest_path = os.path.join(out_dir, "manifest.json")
    serialize.atomic_write_text(manifest_path, serialize.dumps_json(manifest))
    written.append(manifest_path)
    elapsed = time.perf_counter() - start
    serialize.atomic_write_text(
        os.path.join(out_dir, "run.log"),
        "".join(f"{k}={v}\n" for k, v in
                {"wall_time_s": f"{elapsed:.3f}", **log}.items()))
    return written


def read_command_line(argv: list[str]) -> dict[str, str]:
    """The raw settings of ``COMMAND --key value ...``, as
    ``read_config_file`` gives them: ``--key value`` and ``--key=value`` set
    ``key``, with ``-`` read as ``_``, over the keys of a ``--config`` file."""
    if not argv or argv[0].startswith("-"):
        raise ConfigError([f"missing command; valid: {', '.join(COMMANDS)}"])
    raw, errors = {}, []
    tokens = argv[1:]
    while tokens:
        token = tokens.pop(0)
        key, eq, value = token.partition("=")
        if not token.startswith("--"):
            errors.append(f"unexpected argument {token!r}; settings are "
                          "written --key value")
        elif not eq and (not tokens or tokens[0].startswith("--")):
            errors.append(f"flag {token!r} has no value")
        else:
            raw[key[2:].replace("-", "_")] = value if eq else tokens.pop(0)
    if errors:
        raise ConfigError(errors)
    path = raw.pop("config", None)
    return raw if path is None else {**read_config_file(path, argv[0]), **raw}


def _failed(command, exc, code: int) -> int:
    """Print the JSON error status line of ``exc``; return ``code``."""
    errors = exc.errors if isinstance(exc, ConfigError) else [str(exc)]
    print(serialize.dumps_json({"status": "error", "command": command,
                                "errors": errors}), end="")
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and not argv[0].startswith("-") else None
    if command in SCHEMAS and ("-h" in argv or "--help" in argv):
        print(f"usage: qmetro {command} [--config FILE] [--key value ...]")
        for key, (_, default) in SCHEMAS[command].items():
            print(f"  --{key.replace('_', '-'):<15} "
                  f"{'required' if default is REQUIRED else default}")
        return 0
    try:
        cfg = parse_config(command, read_command_line(argv))
    except (ConfigError, OSError, configparser.Error) as exc:
        return _failed(command, exc, 2)
    try:
        written = run(command, cfg)
    except (RuntimeError, ValueError, OSError) as exc:
        return _failed(command, exc, 1)
    print(serialize.dumps_json({"status": "ok", "command": command,
                                "artifacts": sorted(written)}), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
