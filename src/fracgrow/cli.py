"""Command-line front end.

Subcommands: ``predict``, ``fit``, ``special``, ``caputo``, ``series``.
Exit codes: 0 on success, 1 on domain/model errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, TextIO

from . import abalone
from .errors import DomainError, FracgrowError, ParseError, ValidationError
from .fractional import (
    FracOrder,
    QuadratureSpec,
    caputo_exp_exact,
    caputo_exp_paper_rule,
    caputo_numeric,
)
from .growth import (
    Convention,
    EtaMode,
    EtaSchedule,
    GrowthParams,
    ObservationSeries,
    PredictionGrid,
    _best_order,
    decreasing_steps,
    estimate_eta,
    mae,
    predict_table,
    series_terms,
)
from .special import MLParams, gamma, mittag_leffler, mittag_leffler2

SERIES_DEPTH_ENV = "FRACGROW_SERIES_DEPTH"
DEFAULT_ORDERS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def float_list(text: str) -> List[float]:
    """Comma-separated floats, e.g. ``0.5, 0.7, 1.0``."""
    return [float(v) for v in text.split(",") if v.strip()]


def _setting(default, parse, commands=(), flag=None, env=None, help=None):
    """A run setting: ``parse`` reads its config-file, environment and flag
    text; ``commands`` are the subcommands that take its flag and variable."""
    meta = {"parse": parse, "commands": commands, "flag": flag, "env": env, "help": help}
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Effective run configuration after file, env, and flag resolution.

    Each field is a config-file key; its metadata declares the flag and
    environment variable that set it and the subcommands that take them.
    """

    r: float = _setting(abalone.INITIAL_GROWTH_RATE, float, ("predict", "fit", "series"),
                        help="initial growth rate (default 0.04305)")
    orders: Sequence[float] = _setting(DEFAULT_ORDERS, float_list, ("predict", "fit"),
                                       help="comma-separated fractional orders")
    convention: Convention = _setting(Convention.CUMULATIVE, Convention, ("predict", "fit"),
                                      help="one of " + ", ".join(c.value for c in Convention))
    eta_mode: EtaMode = _setting(EtaMode.ABSOLUTE, EtaMode, ("predict", "fit"),
                                 help="one of " + ", ".join(m.value for m in EtaMode))
    series_depth: int = _setting(25, int, ("series",), flag="--depth", env=SERIES_DEPTH_ENV,
                                 help="number of iterates (default 25)")
    month8_override: Optional[float] = _setting(
        None, float, ("predict", "fit"), flag="--correct-month8",
        help="replace the month-8 growth rate (e.g. 0.3800)")
    m0: float = _setting(abalone.INITIAL_LENGTH, float, ("predict", "series"),
                         help="initial length (default 0.5322)")
    etas: Optional[Sequence[float]] = _setting(None, float_list)

    def __post_init__(self):
        for b in self.orders:
            if not 0.0 < b <= 1.0:
                raise ValidationError(f"order {b} outside (0, 1]")
        if self.series_depth < 1:
            raise ValidationError("series_depth must be >= 1")

    def as_dict(self) -> Dict[str, object]:
        return {f.name: _echo(getattr(self, f.name)) for f in fields(self)}


def _echo(value: object) -> object:
    """JSON form of a setting: enums by value, sequences as lists."""
    if isinstance(value, (list, tuple)):
        return list(value)
    return getattr(value, "value", value)


def _parse_setting(f, text: str, source: str) -> object:
    try:
        return f.metadata["parse"](text)
    except ValueError as exc:
        raise ParseError(f"{source}: bad value for {f.name}: {exc}")


def load_config(path: str) -> Dict[str, object]:
    """Parse a ``key = value`` config file into RunConfig field values;
    '#' starts a comment."""
    settings = {f.name: f for f in fields(RunConfig)}
    values: Dict[str, object] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in settings:
                raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_setting(settings[key], value, f"{path}:{lineno}")
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < config file < environment < flags.  The environment and
    flags count only for settings the subcommand takes."""
    cfg = RunConfig()
    if args.config:
        cfg = replace(cfg, **load_config(args.config))
    taken = [f for f in fields(RunConfig) if args.command in f.metadata["commands"]]
    env = {
        f.name: _parse_setting(f, os.environ[f.metadata["env"]], f.metadata["env"])
        for f in taken
        if f.metadata["env"] is not None and f.metadata["env"] in os.environ
    }
    flags = {f.name: getattr(args, f.name) for f in taken if getattr(args, f.name) is not None}
    return replace(replace(cfg, **env), **flags)


def load_observations(path: str) -> ObservationSeries:
    """Read an observation CSV with mandatory ``month,length`` header."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "month,length":
            raise ParseError(f"{path}:1: expected header 'month,length', got {header!r}")
        points = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected two fields, got {len(parts)}")
            try:
                month = int(parts[0])
                length = float(parts[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric value in {line!r}")
            points.append((month, length))
    return ObservationSeries(tuple(points))


@dataclass
class ResultBundle:
    """Grid plus scores plus enough provenance to regenerate any output."""

    config: Dict[str, object]
    grid: Dict[str, object]
    scores: Optional[Dict[str, float]]
    provenance: Dict[str, object]
    observed: Optional[List[float]] = None

    def to_json_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"config": self.config, "grid": self.grid}
        if self.scores is not None:
            out["scores"] = self.scores
        if self.observed is not None:
            out["observed"] = self.observed
        out["provenance"] = self.provenance
        return out

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "ResultBundle":
        return cls(
            config=data["config"],
            grid=data["grid"],
            scores=data.get("scores"),
            provenance=data["provenance"],
            observed=data.get("observed"),
        )


def make_bundle(
    cfg: RunConfig,
    grid: PredictionGrid,
    scores: Optional[Dict[FracOrder, float]] = None,
    observed: Optional[Sequence[float]] = None,
) -> ResultBundle:
    return ResultBundle(
        config=cfg.as_dict(),
        grid={
            "months": list(grid.months),
            "orders": [o.beta for o in grid.orders],
            "values": [list(row) for row in grid.values],
        },
        scores={f"{o.beta:g}": s for o, s in scores.items()} if scores else None,
        observed=list(observed) if observed is not None else None,
        provenance={
            "tool": "fracgrow",
            "config": cfg.as_dict(),
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    )


def write_bundle_json(bundle: ResultBundle, stream: TextIO) -> None:
    json.dump(bundle.to_json_dict(), stream, indent=2)
    stream.write("\n")


def load_bundle(path: str) -> ResultBundle:
    with open(path) as fh:
        return ResultBundle.from_json_dict(json.load(fh))


def _provenance_header(bundle: ResultBundle) -> List[str]:
    lines = [f"# tool = {bundle.provenance['tool']}"]
    for key, value in sorted(bundle.provenance["config"].items()):
        lines.append(f"# {key} = {value}")
    lines.append(f"# generated_at = {bundle.provenance['generated_at']}")
    return lines


def write_grid_csv(bundle: ResultBundle, stream: TextIO) -> None:
    """Wide-format grid CSV: one row per month, one column per order."""
    for line in _provenance_header(bundle):
        stream.write(line + "\n")
    orders = bundle.grid["orders"]
    stream.write("month," + ",".join(f"h_{b:g}" for b in orders) + "\n")
    for month, row in zip(bundle.grid["months"], bundle.grid["values"]):
        stream.write(f"{month}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def write_plot_csv(bundle: ResultBundle, stream: TextIO) -> None:
    """Long-format plot CSV: month, order, predicted, observed (if any)."""
    for line in _provenance_header(bundle):
        stream.write(line + "\n")
    observed = bundle.observed
    header = "month,order,predicted" + (",observed" if observed is not None else "")
    stream.write(header + "\n")
    for i, month in enumerate(bundle.grid["months"]):
        for j, order in enumerate(bundle.grid["orders"]):
            value = bundle.grid["values"][i][j]
            line = f"{month},{order:g},{value:.17g}"
            if observed is not None:
                line += f",{observed[i]:.17g}"
            stream.write(line + "\n")


def _schedule_for_predict(cfg: RunConfig, args: argparse.Namespace):
    """(schedule, M, observed lengths or None) from flags/config, with the
    month-8 override applied whatever the source of the rates."""
    m0, observed = cfg.m0, None
    if args.obs:
        obs = load_observations(args.obs)
        schedule = estimate_eta(obs, cfg.eta_mode)
        observed = obs.lengths
        m0 = observed[0]
    elif getattr(args, "reference", False):
        schedule = abalone.reference_schedule()
    elif cfg.etas is not None:
        schedule = EtaSchedule(tuple(enumerate(cfg.etas, start=1)))
    else:
        raise DomainError(
            "no growth rates: pass --obs, --reference, or an 'etas' config entry"
        )
    if cfg.month8_override is not None:
        schedule = schedule.replaced(abalone.MONTH8_ROW - 1, cfg.month8_override)
    return schedule, m0, observed


def _predict(args: argparse.Namespace):
    """(config, M, grid, observed lengths, MAE per order): the pipeline shared
    by ``predict`` and ``fit``; the last two are None without observations."""
    cfg = build_config(args)
    schedule, m0, observed = _schedule_for_predict(cfg, args)
    orders = [FracOrder(b) for b in cfg.orders]
    grid = predict_table(m0, cfg.r, schedule, orders, cfg.convention)
    scores = None
    if observed is not None:
        scores = {o: mae(grid.column(j), observed) for j, o in enumerate(orders)}
    return cfg, m0, grid, observed, scores


def cmd_predict(args: argparse.Namespace) -> int:
    cfg, m0, grid, observed, scores = _predict(args)
    bundle = make_bundle(cfg, grid, scores, observed)

    print(f"Prediction grid ({cfg.convention.value}), M={m0:g}, r={cfg.r:g}")
    print("month  " + "  ".join(f"h_{o.beta:g}" for o in grid.orders))
    for month, row in zip(grid.months, grid.values):
        print(f"{month:>5}  " + "  ".join(f"{v:.4f}" for v in row))
    if scores:
        print("MAE per order:")
        for o in grid.orders:
            print(f"  beta={o.beta:g}: {scores[o]:.15g}")

    drops = decreasing_steps(grid)
    if drops:
        months = sorted({m for m, _ in drops})
        print(f"warning: predicted length decreases at month(s) {months}")
    else:
        print("all monthly steps increase")

    if args.deviation_report:
        report = abalone.deviation_report(month8_override=cfg.month8_override)
        print("Deviation from the published reference table:")
        for conv, stats in report.items():
            print(
                f"  {conv}: max abs {stats['max_abs_deviation']:.4f}, "
                f"mean abs {stats['mean_abs_deviation']:.4f}"
            )

    _emit_outputs(bundle, args)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg, _, grid, observed, scores = _predict(args)
    best = _best_order(scores, len(observed))
    print("order  mae")
    for o in sorted(scores, key=lambda o: o.beta):
        print(f"{o.beta:<5g}  {scores[o]:.15g}")
    print(f"best order: beta={best.beta:g}")
    _emit_outputs(make_bundle(cfg, grid, scores, observed), args)
    return 0


def _emit_outputs(bundle: ResultBundle, args: argparse.Namespace) -> None:
    writers = (("json", write_bundle_json), ("csv", write_grid_csv), ("plot", write_plot_csv))
    for name, write in writers:
        path = getattr(args, name, None)
        if path:
            with open(path, "w") as fh:
                write(bundle, fh)


def cmd_special(args: argparse.Namespace) -> int:
    if args.function == "gamma":
        value = gamma(args.x)
    elif args.function == "ml":
        value = mittag_leffler(MLParams(alpha=args.alpha), args.z)
    else:  # ml2
        value = mittag_leffler2(MLParams(alpha=args.alpha, beta=args.mlbeta), args.z)
    print(f"{value:.15g}")
    return 0


def _caputo_values(args: argparse.Namespace) -> Dict[str, float]:
    order = FracOrder(args.beta)
    out: Dict[str, float] = {}
    out["paper"] = caputo_exp_paper_rule(order, args.r, args.scale, args.s)
    if args.s > 0 and args.beta < 1.0:
        out["exact"] = args.scale * caputo_exp_exact(order, args.r, args.s)
        spec = QuadratureSpec(nodes=args.nodes, grading=args.grading)
        out["numeric"] = caputo_numeric(
            order, lambda xi: args.scale * args.r * math.exp(args.r * xi), args.s, spec
        )
    elif args.beta == 1.0 and args.s > 0:
        out["exact"] = args.scale * caputo_exp_exact(order, args.r, args.s)
    return out


def cmd_caputo(args: argparse.Namespace) -> int:
    """Caputo derivative of scale * e^{r s} under the selected rule."""
    if args.compare:
        values = _caputo_values(args)
        for rule, value in values.items():
            print(f"{rule}: {value:.15g}")
        if "exact" in values:
            diff = values["paper"] - values["exact"]
            rel = abs(diff) / abs(values["exact"])
            print(f"paper-exact abs diff: {abs(diff):.15g}")
            print(f"paper-exact rel diff: {rel:.15g}")
        if "numeric" in values and "exact" in values:
            print(f"numeric-exact abs diff: {abs(values['numeric'] - values['exact']):.15g}")
        return 0
    order = FracOrder(args.beta)
    if args.rule == "paper":
        value = caputo_exp_paper_rule(order, args.r, args.scale, args.s)
    elif args.rule == "exact":
        value = args.scale * caputo_exp_exact(order, args.r, args.s)
    else:
        spec = QuadratureSpec(nodes=args.nodes, grading=args.grading)
        value = caputo_numeric(
            order, lambda xi: args.scale * args.r * math.exp(args.r * xi), args.s, spec
        )
    print(f"{value:.15g}")
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    params = GrowthParams(cfg.m0, cfg.r, args.eta, FracOrder(args.beta))
    ws = series_terms(params, cfg.series_depth)
    print("n      coeff                   exp_mult  t_power")
    for n, w in enumerate(ws):
        if w.is_zero():
            print(f"{n:<6} 0")
            continue
        for term in w.terms:
            print(f"{n:<6} {term.coeff:<23.15g} {term.exp_mult:<9} {term.t_power}")
    return 0


def _settings_parser(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """Subcommand parser with ``--config`` and the RunConfig flags it takes."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--config", help="path to a key = value config file")
    for f in fields(RunConfig):
        meta = f.metadata
        if name in meta["commands"]:
            flag = meta["flag"] or "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name, type=meta["parse"], help=meta["help"])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracgrow",
        description="Fractional-order growth model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _settings_parser(sub, "predict", cmd_predict, "generate a prediction grid")
    p.add_argument("--obs", help="observation CSV (month,length)")
    p.add_argument("--reference", action="store_true", help="use the built-in reference rate column")
    p.add_argument("--json", help="write the result bundle as JSON")
    p.add_argument("--csv", help="write the prediction grid as CSV")
    p.add_argument("--plot", help="write long-format plot CSV")
    p.add_argument("--deviation-report", action="store_true", help="compare all conventions to the published table")

    p = _settings_parser(sub, "fit", cmd_fit, "select the fractional order by MAE")
    p.add_argument("--obs", required=True, help="observation CSV (month,length)")
    p.add_argument("--json", help="write the result bundle as JSON")
    p.add_argument("--csv", help="write the prediction grid as CSV")

    p = sub.add_parser("special", help="evaluate special functions")
    p.add_argument("function", choices=["gamma", "ml", "ml2"])
    p.add_argument("--x", type=float, help="gamma argument")
    p.add_argument("--alpha", type=float, help="Mittag-Leffler alpha")
    p.add_argument("--mlbeta", type=float, default=1.0, help="Mittag-Leffler second parameter")
    p.add_argument("--z", type=float, help="Mittag-Leffler argument")
    p.set_defaults(func=cmd_special)

    p = sub.add_parser("caputo", help="Caputo derivative of scale * e^{r s}")
    p.add_argument("--rule", choices=["paper", "exact", "numeric"], default="paper")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--grading", type=float, default=2.0)
    p.add_argument("--compare", action="store_true", help="print all applicable rules side by side")
    p.set_defaults(func=cmd_caputo)

    p = _settings_parser(sub, "series", cmd_series, "dump decomposition series terms")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)

    return parser


def _validate_special(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if args.command != "special":
        return
    if args.function == "gamma" and args.x is None:
        parser.error("special gamma requires --x")
    if args.function in ("ml", "ml2") and (args.alpha is None or args.z is None):
        parser.error(f"special {args.function} requires --alpha and --z")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_special(args, parser)
    try:
        return args.func(args)
    except (FracgrowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
