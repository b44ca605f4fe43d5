"""Command-line workbench: scenario ingestion, dispatch, artifact export.

Scenario JSON schema (all powers may be given in dBm or watts; angles are
radians; rates in bits/s/Hz or nats/s/Hz)::

    {
      "arrays": {"n_tx": 8, "n_rx": 12, "n_user": 6,
                 "n_rf_tx": 3, "n_rf_rx": 6,
                 "rx_architecture": "partially_connected"},
      "angle_prior": [{"weight": 0.31, "mean": -0.74, "variance": 3.16e-3}, ...],
      "reflection_gamma": 2e-12,
      "channel": {"type": "rician", "theta_user": 0.36, "distance_m": 400.0,
                  "rician_factor_db": -8.0, "reference_gain_db": -30.0,
                  "path_exponent": 3.5}
                 | {"type": "wideband", "taps": 8, "distance_m": 400.0,
                    "reference_gain_db": -30.0, "path_exponent": 2.8}
                 | {"type": "explicit", "h": [[[re, im], ...], ...]},
      "power_dbm": 30.0,            # or "power_w"
      "noise_comm_dbm": -90.0,      # or "noise_comm_w"
      "noise_sense_dbm": -90.0,     # or "noise_sense_w"
      "symbols": 64,
      "rate_target_bits": 4.5,      # or "rate_target_nats"
      "subcarriers": 1,
      "quadrature_points": 2048,
      "seed": 2025                  # non-negative integer
    }

Design JSON stores complex entries as [re, im] pairs::

    {"v_rf": [[[re, im], ...], ...] | null,
     "r_bb": [per-subcarrier matrix, ...],
     "rx": {"type": "phases", "d": [[re, im], ...]}
           | {"type": "dft", "q": [0, 3, ...]}
           | {"type": "identity"}}

Exit codes: 0 success, 1 infeasible scenario (diagnostic JSON emitted),
2 configuration or solver error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bench import (
    Scheme,
    SchemeError,
    SweepSpec,
    SweepRow,
    pattern_mass_near_prior,
    power_pattern,
    run_scheme,
    scheme_row,
    sweep,
)
from .cvxkit import RateInfeasibleError, SolverError
from .designs import HybridDesign, RxDft, RxIdentity, RxPhases
from .isac_opt import ao_p0, ao_p1, ao_p2
from .model import (
    ArrayConfig,
    GmmAnglePrior,
    ModelError,
    NarrowbandChannel,
    ReflectionPrior,
    RicianChannelSpec,
    RxArchitecture,
    Scenario,
    WidebandChannelSpec,
    realize_channel,
)
from .pcrb import PcrbEngine, assemble_pfim, pcrb_theta
from .scenarios import channel_seed, db_to_linear, dbm_to_watt

LN2 = math.log(2.0)

CSV_COLUMNS = [
    "sweep_var",
    "value",
    "scheme",
    "trial",
    "pcrb_theta",
    "rate_nats",
    "rate_bits",
    "iterations",
    "feasible",
    "wall_ms",
]


class ConfigError(ValueError):
    """Scenario/config file violates the documented schema."""


@dataclass
class RunConfig:
    command: str
    scenario_path: str
    out_path: Optional[str] = None
    out_format: str = "csv"
    overrides: tuple = ()
    seed: Optional[int] = None
    trials: int = 1
    design_path: Optional[str] = None
    scheme: Optional[str] = None
    schemes: Optional[tuple] = None     # None: the command's default schemes
    sweep_var: Optional[str] = None
    values: tuple = ()
    rf_budget: int = 0
    timings: bool = False


# ---------------------------------------------------------------------------
# scenario ingestion
# ---------------------------------------------------------------------------

_ARRAY_ALIASES = {"n_tx", "n_rx", "n_user", "n_rf_tx", "n_rf_rx", "rx_architecture"}
_CHANNEL_ALIASES = {"theta_user", "distance_m", "rician_factor_db", "reference_gain_db",
                    "path_exponent", "taps"}


def _require(doc: dict, key: str, kind, context: str = ""):
    where = f"{context}.{key}" if context else key
    if key not in doc:
        raise ConfigError(f"missing required key '{where}'")
    val = doc[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError(f"key '{where}' must be a number, got {val!r}")
        return float(val)
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise ConfigError(f"key '{where}' must be an integer, got {val!r}")
        return val
    if not isinstance(val, kind):
        raise ConfigError(f"key '{where}' has wrong type {type(val).__name__}")
    return val


def _power_field(doc: dict, base: str) -> float:
    if f"{base}_w" in doc:
        return _require(doc, f"{base}_w", float)
    if f"{base}_dbm" in doc:
        return dbm_to_watt(_require(doc, f"{base}_dbm", float))
    raise ConfigError(f"missing '{base}_dbm' or '{base}_w'")


def _complex_matrix(data, context: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{context}' is not a numeric nested list") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ConfigError(f"'{context}' must be a matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _matrix_to_json(m: np.ndarray):
    return np.stack([m.real, m.imag], axis=-1).tolist()


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a scenario document and build the domain object."""
    arrays_doc = _require(doc, "arrays", dict)
    try:
        arch = RxArchitecture(arrays_doc.get("rx_architecture", "partially_connected"))
    except ValueError as exc:
        raise ConfigError(
            f"arrays.rx_architecture must be one of "
            f"{[a.value for a in RxArchitecture]}"
        ) from exc
    try:
        arrays = ArrayConfig(
            n_tx=_require(arrays_doc, "n_tx", int, "arrays"),
            n_rx=_require(arrays_doc, "n_rx", int, "arrays"),
            n_user=_require(arrays_doc, "n_user", int, "arrays"),
            n_rf_tx=_require(arrays_doc, "n_rf_tx", int, "arrays"),
            n_rf_rx=_require(arrays_doc, "n_rf_rx", int, "arrays"),
            rx_architecture=arch,
        )
    except ModelError as exc:
        raise ConfigError(f"arrays: {exc}") from exc

    prior_doc = _require(doc, "angle_prior", list)
    comps = []
    for i, comp in enumerate(prior_doc):
        if not isinstance(comp, dict):
            raise ConfigError(f"angle_prior[{i}] must be an object")
        comps.append(
            (
                _require(comp, "weight", float, f"angle_prior[{i}]"),
                _require(comp, "mean", float, f"angle_prior[{i}]"),
                _require(comp, "variance", float, f"angle_prior[{i}]"),
            )
        )
    try:
        prior = GmmAnglePrior.from_components(comps)
        reflection = ReflectionPrior(_require(doc, "reflection_gamma", float))
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc

    subcarriers = doc.get("subcarriers", 1)
    if not isinstance(subcarriers, int) or subcarriers < 1:
        raise ConfigError("subcarriers must be a positive integer")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")

    chan_doc = _require(doc, "channel", dict)
    kind = _require(chan_doc, "type", str, "channel")
    channel_spec = None
    if kind == "rician":
        if subcarriers != 1:
            raise ConfigError("rician channel requires subcarriers == 1")
        channel_spec = RicianChannelSpec(
            theta_user=_require(chan_doc, "theta_user", float, "channel"),
            distance_m=_require(chan_doc, "distance_m", float, "channel"),
            rician_factor=db_to_linear(_require(chan_doc, "rician_factor_db", float, "channel")),
            reference_gain=db_to_linear(_require(chan_doc, "reference_gain_db", float, "channel")),
            path_exponent=_require(chan_doc, "path_exponent", float, "channel"),
        )
        channel = realize_channel(arrays, channel_spec, 1, channel_seed(seed))
    elif kind == "wideband":
        channel_spec = WidebandChannelSpec(
            n_taps=_require(chan_doc, "taps", int, "channel"),
            distance_m=_require(chan_doc, "distance_m", float, "channel"),
            reference_gain=db_to_linear(_require(chan_doc, "reference_gain_db", float, "channel")),
            path_exponent=_require(chan_doc, "path_exponent", float, "channel"),
        )
        try:
            channel = realize_channel(arrays, channel_spec, subcarriers, channel_seed(seed))
        except ModelError as exc:
            raise ConfigError(f"channel: {exc}") from exc
    elif kind == "explicit":
        h = _complex_matrix(_require(chan_doc, "h", list, "channel"), "channel.h")
        channel = NarrowbandChannel(h)
        if subcarriers != 1:
            raise ConfigError("explicit channel supports subcarriers == 1 only")
    else:
        raise ConfigError(f"channel.type '{kind}' not one of rician/wideband/explicit")

    if "rate_target_nats" in doc:
        rate_target = _require(doc, "rate_target_nats", float)
    elif "rate_target_bits" in doc:
        rate_target = _require(doc, "rate_target_bits", float) * LN2
    else:
        raise ConfigError("missing 'rate_target_bits' or 'rate_target_nats'")

    quad_points = doc.get("quadrature_points", 2048)
    if not isinstance(quad_points, int) or quad_points < 1:
        raise ConfigError("quadrature_points must be a positive integer")

    try:
        return Scenario(
            arrays=arrays,
            angle_prior=prior,
            reflection=reflection,
            channel=channel,
            power=_power_field(doc, "power"),
            noise_comm=_power_field(doc, "noise_comm"),
            noise_sense=_power_field(doc, "noise_sense"),
            symbols=_require(doc, "symbols", int),
            rate_target=rate_target,
            subcarriers=subcarriers,
            quadrature_points=quad_points,
            seed=seed,
            channel_spec=channel_spec,
        )
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_override(text: str) -> tuple[list[str], object]:
    key, sep, raw = text.partition("=")
    if not sep:
        raise ConfigError(f"override '{text}' is not of the form key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    key = key.strip()
    if "." in key:
        path = key.split(".")
    elif key in _ARRAY_ALIASES:
        path = ["arrays", key]
    elif key in _CHANNEL_ALIASES:
        path = ["channel", key]
    else:
        path = [key]
    return path, value


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply key=value overrides; only keys already present may be set."""
    doc = json.loads(json.dumps(doc))  # deep copy
    for text in overrides:
        path, value = _parse_override(text)
        node = doc
        for part in path[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"override path '{'.'.join(path)}' not in the scenario")
            node = node[part]
        leaf = path[-1]
        known_aliases = {
            "power_dbm", "power_w", "noise_comm_dbm", "noise_comm_w",
            "noise_sense_dbm", "noise_sense_w", "rate_target_bits", "rate_target_nats",
        }
        if leaf not in node and leaf not in known_aliases:
            raise ConfigError(f"override key '{'.'.join(path)}' not in the scenario")
        if leaf in known_aliases:
            # power/rate units are interchangeable; drop the sibling spelling
            base = leaf.rsplit("_", 1)[0]
            for other in list(node):
                if other.startswith(base + "_"):
                    del node[other]
        node[leaf] = value
    return doc


def load_scenario(path: str, overrides=()) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from exc
    if overrides:
        doc = apply_overrides(doc, overrides)
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# design serialization
# ---------------------------------------------------------------------------

def design_to_dict(design: HybridDesign) -> dict:
    if isinstance(design.rx, RxIdentity):
        rx = {"type": "identity"}
    elif isinstance(design.rx, RxDft):
        rx = {"type": "dft", "q": [int(i) for i in design.rx.q]}
    else:
        rx = {"type": "phases", "d": _matrix_to_json(design.rx.d.reshape(-1, 1))}
    return {
        "v_rf": None if design.v_rf is None else _matrix_to_json(design.v_rf),
        "r_bb": [_matrix_to_json(np.asarray(r)) for r in design.r_bb],
        "rx": rx,
    }


def design_from_dict(doc: dict) -> HybridDesign:
    rx_doc = _require(doc, "rx", dict, "design")
    kind = _require(rx_doc, "type", str, "design.rx")
    if kind == "identity":
        rx = RxIdentity()
    elif kind == "dft":
        rx = RxDft(np.asarray(_require(rx_doc, "q", list, "design.rx"), dtype=int))
    elif kind == "phases":
        d = _complex_matrix(_require(rx_doc, "d", list, "design.rx"), "design.rx.d")
        rx = RxPhases(d.reshape(-1))
    else:
        raise ConfigError(f"design.rx.type '{kind}' unknown")
    v_doc = doc.get("v_rf")
    v_rf = None if v_doc is None else _complex_matrix(v_doc, "design.v_rf")
    r_doc = _require(doc, "r_bb", list, "design")
    r_bb = [_complex_matrix(r, "design.r_bb") for r in r_doc]
    try:
        return HybridDesign.create(v_rf, r_bb, rx)
    except ModelError as exc:
        raise ConfigError(f"design: {exc}") from exc


def load_design(path: str) -> HybridDesign:
    try:
        with open(path) as fh:
            return design_from_dict(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read design file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"design file is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value)) if isinstance(value, np.integer) else str(value)


def export(rows: list[SweepRow], path: str, fmt: str) -> None:
    """Write sweep rows; floats round-trip exactly (shortest repr)."""
    if not rows:
        raise ValueError("nothing to export")
    def norm(v):
        if isinstance(v, (bool, np.bool_)):
            return bool(v)
        if isinstance(v, (float, np.floating)):
            return float(v)
        if isinstance(v, (int, np.integer)):
            return int(v)
        return v

    records = [
        {col: norm(getattr(r, col)) for col in CSV_COLUMNS}
        for r in rows
    ]
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for rec in records:
                writer.writerow([_fmt(rec[col]) for col in CSV_COLUMNS])
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _emit_json(doc: dict, path: Optional[str]) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _report_doc(scenario: Scenario, rep) -> dict:
    return {
        "pcrb_theta": rep.final_pcrb,
        "rate_nats": rep.final_rate,
        "rate_bits": rep.final_rate / LN2,
        "rate_target_nats": scenario.rate_target,
        "power_used_w": rep.power_used,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "feasible": rep.feasible,
        "objective_trace": list(rep.trace),
        "design": design_to_dict(rep.design),
    }


def _cmd_pcrb(cfg: RunConfig, scenario: Scenario) -> int:
    if not cfg.design_path:
        raise ConfigError("the pcrb command needs --design")
    design = load_design(cfg.design_path)
    engine = PcrbEngine(scenario)
    pfim = assemble_pfim(scenario, design, engine)
    doc = {
        "pcrb_theta": pcrb_theta(pfim),
        "j_theta_theta": pfim.j_theta_theta,
        "j_theta_alpha": list(pfim.j_theta_alpha),
        "j_alpha_alpha": pfim.j_alpha_alpha.tolist(),
        "f_p_theta": pfim.f_p_theta,
        "f_p_alpha": pfim.f_p_alpha.tolist(),
    }
    _emit_json(doc, cfg.out_path)
    return 0


def _cmd_optimize(cfg: RunConfig, scenario: Scenario) -> int:
    engine = PcrbEngine(scenario)
    if cfg.command == "optimize-sensing":
        rep = ao_p0(scenario, engine)
    elif cfg.command == "optimize-isac":
        if scenario.subcarriers != 1:
            raise ConfigError("optimize-isac needs a narrowband scenario")
        rep = ao_p1(scenario, engine)
    else:
        rep = ao_p2(scenario, engine)
    _emit_json(_report_doc(scenario, rep), cfg.out_path)
    return 0


def _given_schemes(cfg: RunConfig) -> Optional[tuple]:
    """The --schemes labels, None when not given; given, they name at least one."""
    if cfg.schemes == ():
        raise ConfigError("--schemes names no scheme")
    return cfg.schemes


def _cmd_sweep(cfg: RunConfig, scenario: Scenario) -> int:
    if not cfg.out_path:
        raise ConfigError("sweep needs --out")
    if not cfg.sweep_var or not cfg.values:
        raise ConfigError("sweep needs --var and --values")
    schemes = tuple(Scheme.parse(s) for s in (_given_schemes(cfg) or ("proposed",)))
    try:
        spec = SweepSpec(
            scenario=scenario,
            variable=cfg.sweep_var,
            values=tuple(float(v) for v in cfg.values),
            schemes=schemes,
            trials=cfg.trials,
            seed=cfg.seed if cfg.seed is not None else scenario.seed,
            rf_budget=cfg.rf_budget,
            record_timings=cfg.timings,
        )
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    rows = sweep(spec)
    export(rows, cfg.out_path, cfg.out_format)
    return 0


def _cmd_benchmark(cfg: RunConfig, scenario: Scenario) -> int:
    if not cfg.out_path:
        raise ConfigError("benchmark needs --out")
    schemes = _given_schemes(cfg) or (
        "fully_digital",
        "fd_receive",
        "fd_transmit",
        "random_phase:100",
        "direction_align",
        "partial_prior",
        "proposed",
    )
    rows = [
        scheme_row(Scheme.parse(label), scenario, "scheme", 0.0, 0, cfg.timings)
        for label in schemes
    ]
    export(rows, cfg.out_path, cfg.out_format)
    return 0


def _cmd_pattern(cfg: RunConfig, scenario: Scenario) -> int:
    if not cfg.out_path:
        raise ConfigError("pattern needs --out")
    if cfg.design_path:
        design = load_design(cfg.design_path)
    else:
        scheme = Scheme.parse(cfg.scheme or "proposed")
        design = run_scheme(scheme, scenario).design
    thetas, power = power_pattern(scenario, design)
    mass = pattern_mass_near_prior(thetas, power, scenario.angle_prior)
    with open(cfg.out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theta_rad", "power_w", "prior_pdf"])
        pdf = scenario.angle_prior.pdf(thetas)
        for t, p, q in zip(thetas, power, pdf):
            writer.writerow([repr(float(t)), repr(float(p)), repr(float(q))])
    _emit_json({"pattern_mass_within_3sigma": mass}, None)
    return 0


def execute(cfg: RunConfig) -> int:
    """Dispatch a command; never exits 0 with constraint-violating output."""
    try:
        scenario = load_scenario(cfg.scenario_path, cfg.overrides)
        if cfg.seed is not None:
            if cfg.seed < 0:
                raise ConfigError("--seed must be a non-negative integer")
            scenario = scenario.replace(seed=cfg.seed)
            if scenario.channel_spec is not None:
                scenario = scenario.replace(
                    channel=realize_channel(
                        scenario.arrays,
                        scenario.channel_spec,
                        scenario.subcarriers,
                        channel_seed(cfg.seed),
                    )
                )
        if cfg.command == "pcrb":
            return _cmd_pcrb(cfg, scenario)
        if cfg.command in ("optimize-sensing", "optimize-isac", "optimize-ofdm"):
            return _cmd_optimize(cfg, scenario)
        if cfg.command == "sweep":
            return _cmd_sweep(cfg, scenario)
        if cfg.command == "benchmark":
            return _cmd_benchmark(cfg, scenario)
        if cfg.command == "pattern":
            return _cmd_pattern(cfg, scenario)
        raise ConfigError(f"unknown command {cfg.command!r}")
    except RateInfeasibleError as exc:
        _emit_json(
            {
                "error": "rate_infeasible",
                "rate_target_nats": exc.rate_target,
                "rate_target_bits": exc.rate_target / LN2,
                "max_rate_nats": exc.max_rate,
                "max_rate_bits": exc.max_rate / LN2,
            },
            cfg.out_path,
        )
        return 1
    except (ConfigError, ModelError, SchemeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is reserved for an infeasible rate; any other failure is a
        # configuration or solver error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isac-beamkit",
        description="Posterior-CRB evaluation and hybrid beamforming optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario JSON path")
    common.add_argument("--out", help="output artifact path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario key (repeatable)",
    )
    common.add_argument("--seed", type=int, help="override the scenario seed")
    common.add_argument("--trials", type=int, default=1)
    common.add_argument(
        "--timings",
        action="store_true",
        help="record wall-clock times in artifacts (breaks byte reproducibility)",
    )

    sub.add_parser("optimize-sensing", parents=[common])
    sub.add_parser("optimize-isac", parents=[common])
    sub.add_parser("optimize-ofdm", parents=[common])

    p = sub.add_parser("pcrb", parents=[common])
    p.add_argument("--design", required=True, help="design JSON path")

    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--var", required=True, choices=("power_dbm", "rate_target_bits", "n_rf_tx"))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--schemes", default="proposed", help="comma-separated scheme names")
    p.add_argument("--budget", type=int, default=0, help="total RF chains for n_rf_tx sweeps")

    p = sub.add_parser("benchmark", parents=[common])
    p.add_argument("--schemes", help="comma-separated scheme names")

    p = sub.add_parser("pattern", parents=[common])
    p.add_argument("--design", help="design JSON path")
    p.add_argument("--scheme", help="optimize with this scheme first")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    values: tuple = ()
    if getattr(args, "values", None):
        values = tuple(args.values.split(","))  # parsed and checked by the sweep command
    schemes: Optional[tuple] = None
    if getattr(args, "schemes", None) is not None:
        schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    cfg = RunConfig(
        command=args.command,
        scenario_path=args.scenario,
        out_path=args.out,
        out_format=args.format,
        overrides=tuple(args.set),
        seed=args.seed,
        trials=args.trials,
        design_path=getattr(args, "design", None),
        scheme=getattr(args, "scheme", None),
        schemes=schemes,
        sweep_var=getattr(args, "var", None),
        values=values,
        rf_budget=getattr(args, "budget", 0),
        timings=args.timings,
    )
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
