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
from typing import Callable, Dict, List, Optional, Sequence, TextIO

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
    best_order,
    decreasing_steps,
    estimate_eta,
    order_scores,
    predict_table,
    series_terms,
)
from .special import MLParams, gamma, mittag_leffler

SERIES_DEPTH_ENV = "FRACGROW_SERIES_DEPTH"
SOURCE_DATE_ENV = "SOURCE_DATE_EPOCH"
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


def make_bundle(
    cfg: RunConfig,
    grid: PredictionGrid,
    scores: Optional[Dict[FracOrder, float]] = None,
    observed: Optional[Sequence[float]] = None,
) -> Dict[str, object]:
    """The run's JSON document, keys in output order: ``config``, ``grid``,
    ``scores``/``observed`` if given, and ``provenance`` to regenerate it."""
    bundle: Dict[str, object] = {
        "config": cfg.as_dict(),
        "grid": {
            "months": list(grid.months),
            "orders": [o.beta for o in grid.orders],
            "values": [list(row) for row in grid.values],
        },
    }
    if scores:
        bundle["scores"] = {f"{o.beta:g}": s for o, s in scores.items()}
    if observed is not None:
        bundle["observed"] = list(observed)
    bundle["provenance"] = {
        "tool": "fracgrow",
        "config": cfg.as_dict(),
        "generated_at": _generated_at(),
    }
    return bundle


def _generated_at() -> str:
    """UTC ISO timestamp: ``SOURCE_DATE_EPOCH`` (seconds) when it is set, so
    repeated runs write identical files, else the current time."""
    epoch = os.environ.get(SOURCE_DATE_ENV)
    if epoch is None:
        moment = datetime.datetime.now(datetime.timezone.utc)
    else:
        try:
            moment = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
        except (ValueError, OverflowError, OSError):
            raise ParseError(f"{SOURCE_DATE_ENV}: expected whole seconds since 1970, got {epoch!r}")
    return moment.isoformat()


def write_bundle_json(bundle: Dict[str, object], stream: TextIO) -> None:
    """Write exactly the bytes of ``json.dump(bundle, stream, indent=2)``
    followed by a newline, one flat list at a time."""
    _write_json(bundle, stream.write, "\n")
    stream.write("\n")


_JSON_SCALARS = {str, int, float, bool, type(None)}


def _write_json(value: object, write, newline: str) -> None:
    """The ``indent=2`` layout of ``json.dump`` for dicts with string keys,
    lists and scalars.  ``newline`` is a newline plus the enclosing indent.
    A non-empty list of scalars goes through the C encoder in one call, with
    the indented newline as its item separator."""
    pad = newline + "  "
    if isinstance(value, dict) and value:
        sep = "{" + pad
        for key, item in value.items():
            write(sep + json.dumps(key) + ": ")
            _write_json(item, write, pad)
            sep = "," + pad
        write(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) <= _JSON_SCALARS:
            write("[" + pad + json.dumps(value, separators=("," + pad, ": "))[1:-1] + newline + "]")
        else:
            sep = "[" + pad
            for item in value:
                write(sep)
                _write_json(item, write, pad)
                sep = "," + pad
            write(newline + "]")
    else:
        write(json.dumps(value))


def _provenance_header(bundle: Dict[str, object]) -> List[str]:
    lines = [f"# tool = {bundle['provenance']['tool']}"]
    for key, value in sorted(bundle["provenance"]["config"].items()):
        lines.append(f"# {key} = {value}")
    lines.append(f"# generated_at = {bundle['provenance']['generated_at']}")
    return lines


def write_grid_csv(bundle: Dict[str, object], stream: TextIO) -> None:
    """Wide-format grid CSV: one row per month, one column per order.

    Cells print as ``f"{v:.17g}"`` and months as ``f"{month}"``; each row is
    one ``%`` format, which gives the same bytes."""
    for line in _provenance_header(bundle):
        stream.write(line + "\n")
    grid = bundle["grid"]
    stream.write("month," + ",".join(f"h_{b:g}" for b in grid["orders"]) + "\n")
    row_format = "%s" + ",%.17g" * len(grid["orders"]) + "\n"
    for month, row in zip(grid["months"], grid["values"]):
        stream.write(row_format % (month, *row))


def write_plot_csv(bundle: Dict[str, object], stream: TextIO) -> None:
    """Long-format plot CSV: month, order, predicted, observed (if any).

    Lines print as ``f"{month},{order:g},{value:.17g}"`` plus
    ``f",{observed:.17g}"``; each line is one ``%`` format, which gives the
    same bytes."""
    for line in _provenance_header(bundle):
        stream.write(line + "\n")
    grid, observed = bundle["grid"], bundle.get("observed")
    header = "month,order,predicted" + (",observed" if observed is not None else "")
    stream.write(header + "\n")
    labels = [f"{order:g}" for order in grid["orders"]]
    for i, (month, row) in enumerate(zip(grid["months"], grid["values"])):
        tail = ",%.17g" % observed[i] if observed is not None else ""
        for label, value in zip(labels, row):
            stream.write("%s,%s,%.17g%s\n" % (month, label, value, tail))


def _predict(args: argparse.Namespace):
    """(config, grid, observed lengths, MAE per order): the pipeline shared
    by ``predict`` and ``fit``; the last two are None without observations.
    The rates come from ``--obs``, ``--reference`` or the config ``etas``,
    with the month-8 override applied whatever their source.  With
    observations the grid starts at the first observed length, and the
    returned config says so in ``m0``."""
    cfg = build_config(args)
    obs = None
    if args.obs:
        obs = load_observations(args.obs)
        schedule = estimate_eta(obs, cfg.eta_mode)
        cfg = replace(cfg, m0=obs.lengths[0])
    elif getattr(args, "reference", False):
        schedule = abalone.reference_schedule()
    elif cfg.etas is not None:
        schedule = EtaSchedule(tuple(enumerate(cfg.etas, start=1)))
    else:
        raise DomainError(
            "no growth rates: pass --obs, --reference, or an 'etas' config entry"
        )
    schedule = abalone.correct_month8(schedule, cfg.month8_override)
    orders = [FracOrder(b) for b in cfg.orders]
    grid = predict_table(cfg.m0, cfg.r, schedule, orders, cfg.convention)
    if obs is None:
        return cfg, grid, None, None
    observed = obs.lengths
    return cfg, grid, observed, order_scores(grid, observed)


def cmd_predict(args: argparse.Namespace) -> int:
    if args.obs and args.m0 is not None:
        args.usage_error("--m0 is not allowed with --obs: the grid starts at the first observed length")
    if not args.obs and args.eta_mode is not None:
        args.usage_error("--eta-mode needs --obs: it sets how observed lengths become rates")
    cfg, grid, observed, scores = _predict(args)
    bundle = make_bundle(cfg, grid, scores, observed)

    print(f"Prediction grid ({cfg.convention.value}), M={grid.values[0][0]:g}, r={cfg.r:g}")
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
    cfg, grid, observed, scores = _predict(args)
    best = best_order(scores, len(observed))
    bundle = make_bundle(cfg, grid, scores, observed)
    print("order  mae")
    for o in sorted(scores, key=lambda o: o.beta):
        print(f"{o.beta:<5g}  {scores[o]:.15g}")
    print(f"best order: beta={best.beta:g}")
    _emit_outputs(bundle, args)
    return 0


def _emit_outputs(bundle: Dict[str, object], args: argparse.Namespace) -> None:
    writers = (("json", write_bundle_json), ("csv", write_grid_csv), ("plot", write_plot_csv))
    for name, write in writers:
        path = getattr(args, name, None)
        if path:
            with open(path, "w") as fh:
                write(bundle, fh)


def cmd_special(args: argparse.Namespace) -> int:
    if args.function == "gamma":
        value = gamma(args.x)
    else:
        value = mittag_leffler(MLParams(alpha=args.alpha, beta=args.mlbeta), args.z)
    print(f"{value:.15g}")
    return 0


def _caputo_rules(args: argparse.Namespace) -> Dict[str, Callable[[], float]]:
    """Each rule's Caputo derivative of scale * e^{r s}, evaluated on call."""
    order = FracOrder(args.beta)
    r, s, scale = args.r, args.s, args.scale
    spec = QuadratureSpec(nodes=args.nodes, grading=args.grading)
    return {
        "paper": lambda: caputo_exp_paper_rule(order, r, scale, s),
        "exact": lambda: scale * caputo_exp_exact(order, r, s),
        "numeric": lambda: caputo_numeric(order, lambda xi: scale * r * math.exp(r * xi), s, spec),
    }


def cmd_caputo(args: argparse.Namespace) -> int:
    """Caputo derivative of scale * e^{r s} under the selected rule, or
    every rule that applies side by side."""
    rules = _caputo_rules(args)
    if not args.compare:
        print(f"{rules[args.rule]():.15g}")
        return 0
    shown = ["paper"]
    if args.s > 0:
        shown += ["exact", "numeric"] if args.beta < 1.0 else ["exact"]
    values = {rule: rules[rule]() for rule in shown}
    for rule, value in values.items():
        print(f"{rule}: {value:.15g}")
    if "exact" in values:
        diff = values["paper"] - values["exact"]
        rel = abs(diff) / abs(values["exact"])
        print(f"paper-exact abs diff: {abs(diff):.15g}")
        print(f"paper-exact rel diff: {rel:.15g}")
    if "numeric" in values:
        print(f"numeric-exact abs diff: {abs(values['numeric'] - values['exact']):.15g}")
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
    p.set_defaults(usage_error=p.error)
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
    p.set_defaults(func=cmd_special)
    functions = p.add_subparsers(dest="function", required=True)
    q = functions.add_parser("gamma", help="Gamma(x)")
    q.add_argument("--x", type=float, required=True, help="gamma argument")
    q = functions.add_parser("ml", help="Mittag-Leffler E_{alpha,beta}(z)")
    q.add_argument("--alpha", type=float, required=True, help="Mittag-Leffler alpha")
    q.add_argument("--mlbeta", type=float, default=1.0, help="Mittag-Leffler beta (default 1)")
    q.add_argument("--z", type=float, required=True, help="Mittag-Leffler argument")

    p = sub.add_parser("caputo", help="Caputo derivative of scale * e^{r s}")
    rule = p.add_mutually_exclusive_group()
    rule.add_argument("--rule", choices=["paper", "exact", "numeric"], default="paper")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--grading", type=float, default=2.0)
    rule.add_argument("--compare", action="store_true", help="print all applicable rules side by side")
    p.set_defaults(func=cmd_caputo)

    p = _settings_parser(sub, "series", cmd_series, "dump decomposition series terms")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FracgrowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
