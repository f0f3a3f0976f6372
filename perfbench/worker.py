"""Workload process of the fracgrow benchmark.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It reads
one JSON request per line on stdin and answers one JSON line on the protocol
channel (the original stdout); the program's own stdout is captured per
operation, so nothing it prints can corrupt the protocol.

Each ``op`` request runs one operation and reports its latency, measured here
around the calls into fracgrow and nothing else, and the calibration blocks
(``calibrate.py``) timed after it.  Outputs are serialized after
the clock stops.  ``trace_on`` installs the span recorder of ``tracing.py``;
``sweeps`` and ``ml_probe`` run the traced-run extras.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time

import fracgrow
from fracgrow import cli, fractional, growth, special, terms

import calibrate
import tracing

_clock = time.perf_counter_ns


def _adm_args(op):
    nl = terms.PolynomialNonlinearity.from_dict({int(j): c for j, c in op["nl"]})
    w0 = terms.TermSum.single(op["M"], exp_mult=1, t_power=0)
    return w0, fractional.FracOrder(op["beta"]), op["r"], op["eta"], nl


def run_adm(op, tracer):
    w0, order, r, eta, nl = _adm_args(op)
    t0 = _clock()
    ws = terms.adm_iterate(w0, order, r, eta, nl=nl, n_iterations=op["depth"])
    t1 = _clock()
    out = [[[t.exp_mult, t.t_power, t.coeff] for t in w.terms] for w in ws]
    return t1 - t0, out


def _solve(q, op, tracer):
    """Caputo derivative of scale*e^{rs}: quadrature with the node count
    doubled until two successive values agree to op["tol"], then the exact
    and paper-rule closed forms."""
    order = fractional.FracOrder(q["beta"])
    r, s, scale = q["r"], q["s"], q["scale"]
    f_prime = lambda xi: scale * r * math.exp(r * xi)  # noqa: E731
    if tracer is not None:
        f_prime = tracer.counted("fractional.f_evals", f_prime)
    nodes, prev, value, refinements = op["nodes0"], None, None, 0
    while nodes <= op["max_nodes"]:
        value = fractional.caputo_numeric(order, f_prime, s, fractional.QuadratureSpec(nodes=nodes))
        refinements += 1
        if prev is not None and abs(value - prev) <= op["tol"] * abs(value):
            break
        prev, nodes = value, 2 * nodes
    if tracer is not None:
        tracer.add("fractional.refinements", refinements)
        tracer.add("fractional.solves")
    return {"numeric": value, "converged": nodes <= op["max_nodes"],
            "exact": scale * fractional.caputo_exp_exact(order, r, s),
            "paper": fractional.caputo_exp_paper_rule(order, r, scale, s)}


def run_caputo(op, tracer):
    t0 = _clock()
    out = [_solve(q, op, tracer) for q in op["solves"]]
    return _clock() - t0, out


def run_ml(op, tracer):
    t0 = _clock()
    values = [special.mittag_leffler(special.MLParams(alpha=a), z) for a, z in op["points"]]
    t1 = _clock()
    return t1 - t0, values


def run_cli(op, tracer):
    argv = [a.replace("{tmp}", op["tmp"]) for a in op["argv"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = _clock()
        code = cli.main(argv)
        t1 = _clock()
    return t1 - t0, {"code": code, "stdout": buf.getvalue()}


RUNNERS = {"adm": run_adm, "caputo": run_caputo, "ml": run_ml, "fit": run_cli,
           "predict_cf": run_cli, "reference": run_cli, "series": run_cli}


def _slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def _best_time(fn, reps):
    best = None
    for _ in range(reps):
        t0 = _clock()
        fn()
        dt = _clock() - t0
        best = dt if best is None else min(best, dt)
    return best


def sweeps(req):
    """Scaling sweeps: ADM iterations 4->32, quadrature nodes 256->8192,
    grid months 24->10^4.  Each point is the best of a few repetitions."""
    w0, order, r, eta, nl = _adm_args(req["adm"])
    depths = [4, 8, 16, 32]
    adm_t = [_best_time(lambda d=d: terms.adm_iterate(w0, order, r, eta, nl=nl, n_iterations=d),
                        reps) for d, reps in zip(depths, (5, 3, 1, 1))]

    q = req["caputo"]
    qorder = fractional.FracOrder(q["beta"])
    exact = q["scale"] * fractional.caputo_exp_exact(qorder, q["r"], q["s"])
    f_prime = lambda xi: q["scale"] * q["r"] * math.exp(q["r"] * xi)  # noqa: E731
    nodes = [256 * 2 ** i for i in range(6)]
    errs = [abs(fractional.caputo_numeric(qorder, f_prime, q["s"], fractional.QuadratureSpec(nodes=n))
                - exact) / abs(exact) for n in nodes]

    g = req["growth"]
    orders = [fractional.FracOrder(b) for b in g["orders"]]
    months = [24, 100, 1000, 10000]
    grid_t = []
    for m in months:
        sched = growth.EtaSchedule(tuple((i + 1, g["etas"][i % len(g["etas"])]) for i in range(m - 1)))
        grid_t.append(_best_time(lambda s=sched: growth.predict_table(g["M"], g["r"], s, orders), 3))
    return {"adm_iter_exponent": _slope(depths, adm_t),
            "adm_sweep_ms": dict(zip(map(str, depths), (t / 1e6 for t in adm_t))),
            "nodes_error_slope": _slope(nodes, errs),
            "nodes_sweep_err": dict(zip(map(str, nodes), errs)),
            "month_exponent": _slope(months, grid_t),
            "month_sweep_ms": dict(zip(map(str, months), (t / 1e6 for t in grid_t)))}


def ml_probe(req):
    out = []
    for a, z in req["points"]:
        try:
            out.append(special.mittag_leffler(special.MLParams(alpha=a), z))
        except Exception as exc:  # the probe records whatever the program raises
            out.append(type(exc).__name__)
    return out


def peak_rss_kb():
    """High-water resident set of this process since its exec.  (getrusage's
    ru_maxrss also counts the parent's pages it was spawned from.)"""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    src = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    if not os.path.realpath(fracgrow.__file__).startswith(src + os.sep):
        sys.exit(f"fracgrow imported from {fracgrow.__file__}, not from {src}")
    proto = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr
    tracer = None
    for line in sys.stdin:
        req = json.loads(line)
        cmd = req["cmd"]
        if cmd == "op":
            op = req["op"]
            before = calibrate.samples(2)
            try:
                ns, out = RUNNERS[op["kind"]](op, tracer)
                reply = {"ns": ns, "cal_ns": before + calibrate.samples_after(ns), "out": out}
            except Exception as exc:  # a raising op is counted as failed by run.py
                reply = {"ns": None, "error": f"{type(exc).__name__}: {exc}"}
        elif cmd == "trace_on":
            tracer = tracing.Tracer()
            tracer.install(req["modules"])
            reply = {}
        elif cmd == "counters":
            reply = {"counters": tracer.snapshot()}
        elif cmd == "dump_spans":
            tracer.dump(req["path"])
            reply = {}
        elif cmd == "sweeps":
            reply = sweeps(req)
        elif cmd == "ml_probe":
            reply = {"values": ml_probe(req)}
        elif cmd == "peak_rss":
            reply = {"kb": peak_rss_kb()}
        else:
            reply = {"error": f"unknown command {cmd!r}"}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
