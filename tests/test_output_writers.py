"""The output writers print exactly the bytes of their plain reference forms:
``json.dump(..., indent=2)`` for the bundle and the per-cell f-strings for
the CSVs; the prediction grid is bit-identical to stepping one monthly
factor at a time."""

import io
import json
import math
import random

import pytest

from fracgrow.cli import (
    RunConfig,
    _provenance_header,
    main,
    make_bundle,
    write_bundle_json,
    write_grid_csv,
    write_plot_csv,
)
from fracgrow.fractional import FracOrder
from fracgrow.growth import (
    Convention,
    EtaSchedule,
    PredictionGrid,
    order_scores,
    predict_table,
)

from synthetic import self_consistent_series


def _grid(n_months, betas, seed=0):
    rng = random.Random(seed)
    etas = EtaSchedule(tuple((i, rng.uniform(-0.2, 0.6)) for i in range(1, n_months)))
    return predict_table(1.7, 0.3, etas, [FracOrder(b) for b in betas])


def _bundle(grid, observed=None, cfg=None):
    scores = order_scores(grid, observed) if observed is not None else None
    return make_bundle(cfg or RunConfig(), grid, scores, observed)


def _raw_bundle(values, months=None, orders=None, observed=None):
    months = months if months is not None else list(range(1, len(values) + 1))
    orders = orders if orders is not None else [0.5 + 0.1 * j for j in range(len(values[0]))]
    cfg = RunConfig().as_dict()
    bundle = {"config": cfg, "grid": {"months": months, "orders": orders, "values": values}}
    if observed is not None:
        bundle["observed"] = observed
    bundle["provenance"] = {"tool": "fracgrow", "config": cfg,
                            "generated_at": "2024-01-01T00:00:00+00:00"}
    return bundle


def _json_text(bundle):
    out = io.StringIO()
    write_bundle_json(bundle, out)
    return out.getvalue()


def _reference_json(bundle):
    return json.dumps(bundle, indent=2) + "\n"


def _reference_grid_csv(bundle):
    """The per-cell f-string form of the wide grid CSV."""
    out = io.StringIO()
    for line in _provenance_header(bundle):
        out.write(line + "\n")
    orders = bundle["grid"]["orders"]
    out.write("month," + ",".join(f"h_{b:g}" for b in orders) + "\n")
    for month, row in zip(bundle["grid"]["months"], bundle["grid"]["values"]):
        out.write(f"{month}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return out.getvalue()


def _reference_plot_csv(bundle):
    """The per-cell f-string form of the long plot CSV."""
    out = io.StringIO()
    for line in _provenance_header(bundle):
        out.write(line + "\n")
    observed = bundle.get("observed")
    out.write("month,order,predicted" + (",observed" if observed is not None else "") + "\n")
    for i, month in enumerate(bundle["grid"]["months"]):
        for j, order in enumerate(bundle["grid"]["orders"]):
            line = f"{month},{order:g},{bundle['grid']['values'][i][j]:.17g}"
            if observed is not None:
                line += f",{observed[i]:.17g}"
            out.write(line + "\n")
    return out.getvalue()


def _bundles():
    grid = _grid(40, (0.5, 0.65, 0.8, 1.0))
    observed = [2.0 + 0.01 * i for i in range(40)]
    one_order = _grid(12, (0.7,))
    with_etas = RunConfig(etas=(0.1, 0.2), month8_override=0.38)
    return {
        "scores_observed": _bundle(grid, observed),
        "plain": _bundle(grid),
        "one_order": _bundle(one_order, [1.7] * 12),
        "one_row": _raw_bundle([[1.5, 2.5, 3.5]]),
        "config_lists": _bundle(one_order, cfg=with_etas),
        "inf_and_nan": _raw_bundle([[1.0, math.inf], [-math.inf, math.nan], [-0.0, 5e-324]],
                                   observed=[1.0, math.inf, 2.0]),
        "ints_and_empty": _raw_bundle([[1, 2], [3, 4]], observed=[]),
    }


@pytest.mark.parametrize("name", sorted(_bundles()))
def test_bundle_json_matches_indented_dump(name):
    bundle = _bundles()[name]
    assert _json_text(bundle) == _reference_json(bundle)


def test_bundle_json_prints_infinity():
    text = _json_text(_bundles()["inf_and_nan"])
    assert "Infinity" in text and "-Infinity" in text and "NaN" in text
    assert json.loads(text)["grid"]["values"][0][1] == math.inf


def test_bundle_json_nested_values():
    # Mixed lists, empty containers, strings that need escaping and nested
    # dicts take the general path; flat lists the C encoder.
    bundle = _raw_bundle([[1.0]])
    bundle["config"] = {
        "mixed": [1, [2.5, "x"], {"k": []}, None, True],
        "empty_list": [],
        "empty_dict": {},
        "text": "café \"quoted\"\n\t",
        "deep": {"a": {"b": [[[]], [[1, 2]]]}},
    }
    bundle["scores"] = {"0.5": 0.25, "1": math.inf}
    assert _json_text(bundle) == _reference_json(bundle)


@pytest.mark.parametrize("name", sorted(_bundles()))
def test_grid_csv_matches_fstring_form(name):
    bundle = _bundles()[name]
    out = io.StringIO()
    write_grid_csv(bundle, out)
    assert out.getvalue() == _reference_grid_csv(bundle)


@pytest.mark.parametrize("name", sorted(_bundles()))
def test_plot_csv_matches_fstring_form(name):
    bundle = _bundles()[name]
    if bundle.get("observed") is not None and len(bundle["observed"]) < len(bundle["grid"]["months"]):
        del bundle["observed"]
    out = io.StringIO()
    write_plot_csv(bundle, out)
    assert out.getvalue() == _reference_plot_csv(bundle)


@pytest.mark.parametrize("convention", [Convention.CUMULATIVE, Convention.CUMULATIVE_NO_AGE])
def test_predict_table_rows_bit_identical_to_monthly_steps(convention):
    rng = random.Random(7)
    for _ in range(20):
        r = rng.uniform(0.01, 0.99)
        orders = [FracOrder(rng.uniform(0.05, 1.0)) for _ in range(rng.randint(1, 8))] + [FracOrder(1.0)]
        etas = [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 60))]
        M = rng.uniform(0.1, 5.0)
        aging = convention is Convention.CUMULATIVE
        grid = predict_table(M, r, EtaSchedule(tuple(enumerate(etas, start=1))), orders, convention)
        prev = [M] * len(orders)
        assert [v.hex() for v in grid.values[0]] == [v.hex() for v in prev]
        for eta, row in zip(etas, grid.values[1:]):
            prev = [p * math.exp((r + eta if aging else eta) - r ** o.beta) for p, o in zip(prev, orders)]
            assert [v.hex() for v in row] == [v.hex() for v in prev]


def test_order_scores_are_column_maes():
    grid = _grid(30, (0.5, 0.75, 1.0))
    observed = [1.7 + 0.02 * i for i in range(30)]
    scores = order_scores(grid, observed)
    assert list(scores) == list(grid.orders)
    for j, order in enumerate(grid.orders):
        column = [row[j] for row in grid.values]
        assert scores[order] == math.fsum(abs(p - o) for p, o in zip(column, observed)) / 30


def test_one_row_grid_scores():
    grid = PredictionGrid((1,), (FracOrder(0.5), FracOrder(1.0)), ((2.0, 2.0),))
    assert order_scores(grid, [1.5]) == {FracOrder(0.5): 0.5, FracOrder(1.0): 0.5}


class TestSourceDateEpoch:
    def _fit(self, tmp_path, tag):
        obs = tmp_path / "obs.csv"
        lengths = self_consistent_series(0.5322, 0.04305, 0.7, 12)
        obs.write_text("month,length\n" + "".join(f"{i + 1},{h!r}\n" for i, h in enumerate(lengths)))
        paths = (tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv")
        argv = ["fit", "--obs", str(obs), "--orders", "0.5,0.7,1.0",
                "--json", str(paths[0]), "--csv", str(paths[1])]
        assert main(argv) == 0
        return [p.read_bytes() for p in paths]

    def test_two_runs_write_identical_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        first = self._fit(tmp_path, "a")
        second = self._fit(tmp_path, "b")
        assert first == second
        assert json.loads(first[0])["provenance"]["generated_at"] == "2023-11-14T22:13:20+00:00"
        assert b"# generated_at = 2023-11-14T22:13:20+00:00\n" in first[1]

    def test_malformed_value_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "yesterday")
        obs = tmp_path / "obs.csv"
        obs.write_text("month,length\n1,1.0\n2,1.1\n3,1.2\n")
        assert main(["fit", "--obs", str(obs), "--json", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SOURCE_DATE_EPOCH") and len(err.splitlines()) == 1
        assert not (tmp_path / "out.json").exists()
