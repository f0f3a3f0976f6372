"""fracgrow benchmark: closed-loop workloads with output checks and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload adm_cubic --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0
    python3 perfbench/run.py --self-check

One client sends one operation at a time to a single workload process
(``worker.py``, one thread) and waits for its reply.  This process makes the
inputs from the seed, computes each operation's oracle while the workload
process is idle, and checks every output.  With ``--trace 0`` the run reports
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it reports the
per-layer metrics, from a second pass over the same operations with the span
recorder of ``tracing.py`` installed.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAYERS = ("special", "fractional", "terms", "growth", "abalone", "cli")
SETUP_REPS = 15
WALL_LIMIT_S = 90.0
ML_PROBE_POINTS = 400
GAP_PROBES = 4
LONG_CLOSED_FORM_PROBES = 2


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under the checkout for input and output files."""
    root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(root)


# The program from the checkout's sources, and the benchmark's own modules.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))


def measure_setup():
    """Medians over fresh interpreters of: spawn -> interpreter ready (code
    starts), interpreter ready -> ``import fracgrow.cli`` returned, and their
    sum.  Each interpreter then times calibration blocks, after its clock
    readings, and each start is scaled to reference speed by its own blocks."""
    code = ("import time; c = time.CLOCK_MONOTONIC; t0 = time.clock_gettime_ns(c); "
            "import fracgrow.cli; t1 = time.clock_gettime_ns(c); import calibrate; "
            "print(t0, t1, *(calibrate.sample_ns() for _ in range(5)))")
    interp, imp, total = [], [], []
    for _ in range(SETUP_REPS):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, "-c", code], env=ENV, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60).stdout
        t0, t1, *cal = map(int, out.split())
        factor = calibrate.scale(cal) / 1e9
        interp.append((t0 - start) * factor)
        imp.append((t1 - t0) * factor)
        total.append((t1 - start) * factor)
    return statistics.median(total), statistics.median(interp), statistics.median(imp)


class Worker:
    """The workload process and its line-oriented JSON protocol."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=ENV, text=True)

    def call(self, cmd, **req):
        req["cmd"] = cmd
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"workload process exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


class Session:
    """Sends operations to a worker and checks every reply."""

    def __init__(self, wl, seed, worker, tmp, label="op"):
        self.wl, self.seed, self.worker, self.tmp, self.label = wl, seed, worker, tmp, label
        self.latencies_ns = []
        self.latencies_ms = []
        self.digits = []
        self.failed = []
        self.bytes_written = []
        self.digest = hashlib.sha256()
        self.first = None

    def run_op(self, index, op=None, perturb=False):
        op = op if op is not None else self.wl.op(self.seed, index)
        self.digest.update(json.dumps(op, sort_keys=True).encode())
        ref = self.wl.oracle(op)
        for name, text in op.get("files", {}).items():
            with open(os.path.join(self.tmp, name), "w") as fh:
                fh.write(text)
        rep = self.worker.call("op", op=dict(op, tmp=self.tmp))
        out, written, files = rep.get("out"), 0, {}
        for name in sorted(os.listdir(self.tmp)):
            path = os.path.join(self.tmp, name)
            if name not in op.get("files", {}):
                with open(path) as fh:
                    files[name] = fh.read()
                written += os.path.getsize(path)
            os.remove(path)
        if isinstance(out, dict) and "stdout" in out:
            written += len(out["stdout"].encode())
            out["files"] = files
        if rep["ns"] is None:
            ok, dig, why = False, None, rep["error"]
        else:
            if perturb:
                out = self.wl.perturb(op, out)
            ok, dig, why = self.wl.check(op, ref, out)
            self.latencies_ns.append(rep["ns"])
            self.latencies_ms.append(rep["ns"] * calibrate.scale(rep["cal_ns"]) / 1e6)
        if self.first is None and ok:
            self.first = (op, ref, out)
        if ok:
            self.digits.append(dig)
        else:
            self.failed.append((index, why))
            print(f"# {self.wl.name} {self.label} {index} ({op['kind']}) FAILED: {why}", file=sys.stderr)
        self.bytes_written.append(written)
        return ok

    def run_cycles(self, seconds, min_ops, max_ops=None, on_op=None):
        """Whole cycles until the workload process has been busy ``seconds``
        and at least ``min_ops`` ran (or ``max_ops`` ran, or the wall limit)."""
        cycle = len(self.wl.shapes)
        start, index = time.monotonic(), 0
        while True:
            if index % cycle == 0 and index > 0:
                done = sum(self.latencies_ns) >= seconds * 1e9 and index >= min_ops
                if done or time.monotonic() - start > WALL_LIMIT_S:
                    break
            if max_ops is not None and index >= max_ops:
                break
            self.run_op(index)
            index += 1
            if on_op is not None:
                on_op(index)
        return index

    def perturbation_rejected(self):
        if self.first is None:
            return False
        op, ref, out = self.first
        return not self.wl.check(op, ref, self.wl.perturb(op, out))[0]


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = pct / 100 * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def inputs_digest(wl, seed, count):
    h = hashlib.sha256()
    for i in range(count):
        h.update(json.dumps(wl.op(seed, i), sort_keys=True).encode())
    return h.hexdigest()


def min_ops_for(wl):
    """Operations needed for ten samples beyond the tail percentile, in whole cycles."""
    need = math.ceil(10 / (1 - wl.tail_pct / 100) - 1e-9)
    cycle = len(wl.shapes)
    return cycle * math.ceil(need / cycle)


def declared(section):
    """{metric name: unit} of one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def with_units(section, values):
    units = declared(section)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def end_to_end(wl, seed, seconds, tmp):
    setup_s, _, _ = measure_setup()
    worker = Worker()
    try:
        warm_up = Session(wl, seed, worker, tmp)
        warm_up.run_op(0)  # first parser build, first-use paths; checked, not timed
        session = Session(wl, seed, worker, tmp)
        n = session.run_cycles(seconds, min_ops_for(wl))
        rss_kb = worker.call("peak_rss")["kb"]
    finally:
        worker.close()
    if not session.latencies_ns:
        raise RuntimeError("no operation completed")
    lat_ms = session.latencies_ms
    raw_ms = [ns / 1e6 for ns in session.latencies_ns]
    beyond = sum(1 for x in lat_ms if x > percentile(lat_ms, wl.tail_pct))
    metrics = with_units("end_to_end", {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_p50_ms": percentile(lat_ms, 50),
        "op_tail_ms": percentile(lat_ms, wl.tail_pct),
        "accuracy_digits": min(session.digits) if session.digits else 0.0,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": setup_s,
    })
    print(f"# {wl.name}: tail percentile p{wl.tail_pct:g}, {n} ops, {beyond} samples beyond it")
    print(f"# {wl.name}: unscaled ops_per_s {len(raw_ms) / (sum(raw_ms) / 1e3):.4g}, p50 {percentile(raw_ms, 50):.4g} ms, "
          f"p{wl.tail_pct:g} {percentile(raw_ms, wl.tail_pct):.4g} ms")
    print(f"# {wl.name}: fail_ratio {len(session.failed)}/{n}, inputs sha256 {session.digest.hexdigest()[:16]}, "
          f"shared-input share {wl.shared_input_share:.0%}")
    print(f"# {wl.name}: tolerance: {wl.tolerance}")
    ok = _common_checks(wl, seed, session, n) and not warm_up.failed
    return ok, n + 1, len(session.failed) + len(warm_up.failed), metrics


def _common_checks(wl, seed, session, n):
    """Perturbed output rejected; inputs regenerate byte-identically."""
    perturbed = session.perturbation_rejected()
    again = inputs_digest(wl, seed, n) == session.digest.hexdigest()
    print(f"# {wl.name}: perturbed output rejected={perturbed}, inputs reproducible={again}")
    return perturbed and again and not session.failed


def _span_analysis(names, spans):
    """Per-layer self time, per-name total duration and call count."""
    child = [0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_ns = {layer: 0 for layer in LAYERS}
    total_ns, calls = {}, {}
    for (nid, t0, t1, _), kids in zip(spans, child):
        name = names[nid]
        self_ns[name.split(".", 1)[0]] += t1 - t0 - kids
        total_ns[name] = total_ns.get(name, 0) + t1 - t0
        calls[name] = calls.get(name, 0) + 1
    return self_ns, total_ns, calls


def _probe_ml(worker, seed):
    """Mittag-Leffler over the advertised |z| <= 50, every alpha kind."""
    from workloads import ml_reference, rel, CaputoQuad
    rng = random.Random(f"{seed}/ml_probe")
    kinds = [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (0.75, 1.75)]
    points = []
    for i in range(ML_PROBE_POINTS):
        lo, hi = kinds[i % 4]
        points.append([lo if lo == hi else rng.uniform(lo, hi), rng.uniform(-50.0, 50.0)])
    values = worker.call("ml_probe", points=points)["values"]
    failed = raised = 0
    for (a, z), v in zip(points, values):
        if isinstance(v, str):
            failed += 1
            raised += 1
        elif not rel(v, float(ml_reference(a, z))) <= CaputoQuad.TOL_ML:
            failed += 1
    print(f"# ml probe: {failed}/{len(points)} failed, {raised} of those raised")
    return failed / len(points)


def _probe_cli(worker, seed, tmp, make, count):
    """Failure ratio of ``count`` cli_session operations built by ``make``."""
    from workloads import WORKLOADS
    session = Session(WORKLOADS["cli_session"], seed, worker, tmp, label=make.__name__)
    for i in range(count):
        session.run_op(i, op=make(random.Random(f"{seed}/{make.__name__}/{i}")))
    print(f"# {make.__name__} probe: {len(session.failed)}/{count} failed")
    return len(session.failed) / count


def traced(wl, seed, seconds, tmp):
    from workloads import WORKLOADS
    _, interp_s, import_s = measure_setup()
    worker = Worker()
    try:
        warm_up = Session(wl, seed, worker, tmp)
        warm_up.run_op(0)
        untraced = Session(wl, seed, worker, tmp)
        n = untraced.run_cycles(seconds / 2, len(wl.shapes))

        adm, cap = WORKLOADS["adm_cubic"], WORKLOADS["caputo_quad"]
        rng = random.Random(f"{seed}/sweeps")
        sw = worker.call("sweeps", adm=adm.make(rng, ("cubic", 4)), caputo=cap.make(rng, "caputo")["solves"][0],
                         growth={"M": 0.5322, "r": 0.04305, "orders": [0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
                                 "etas": [rng.uniform(0.1, 0.5) for _ in range(24)]})
        print(f"# sweeps: adm ms {sw['adm_sweep_ms']}, grid ms {sw['month_sweep_ms']}")
        ml_fail = _probe_ml(worker, seed)
        cli = WORKLOADS["cli_session"]
        gap_fail = _probe_cli(worker, seed, tmp, cli.gap_op, GAP_PROBES)
        long_fail = _probe_cli(worker, seed, tmp, cli.long_closed_form_op, LONG_CLOSED_FORM_PROBES)

        worker.call("trace_on", modules=list(LAYERS))
        session = Session(wl, seed, worker, tmp)
        cycle = len(wl.shapes)
        counts = {}

        def snapshot(done):
            if done == cycle:
                counts.update(worker.call("counters")["counters"])

        traced_n = session.run_cycles(math.inf, 0, max_ops=n, on_op=snapshot)
        span_path = os.path.join(tmp, "spans.json")
        worker.call("dump_spans", path=span_path)
        with open(span_path) as fh:
            dump = json.load(fh)
        os.remove(span_path)
    finally:
        worker.close()

    ops = len(session.latencies_ns)
    busy_ns = sum(session.latencies_ns)
    factor = sum(session.latencies_ms) / busy_ns  # ns -> ms at reference speed, time-weighted
    self_ns, total_ns, calls = _span_analysis(dump["names"], dump["spans"])

    def mean_ms(*names):
        c = sum(calls.get(x, 0) for x in names)
        return sum(total_ns.get(x, 0) for x in names) / c * factor if c else 0.0

    solves = counts.get("fractional.solves", 0)
    ml_float = ("special.mittag_leffler[float]", "special.mittag_leffler2[float]")
    ml_exact = ("special.mittag_leffler[exact]", "special.mittag_leffler2[exact]")
    adm_total = total_ns.get("terms.adm_iterate", 0)
    m = {
        "terms.adm_iterate_ms": mean_ms("terms.adm_iterate"),
        "terms.adomian_share": total_ns.get("terms.adomian_polynomials", 0) / adm_total if adm_total else 0.0,
        "terms.term_multiply_calls": counts.get("terms.term_multiply", 0),
        "terms.term_pairs": counts.get("terms.term_pairs", 0),
        "terms.adm_iter_exponent": sw["adm_iter_exponent"],
        "fractional.caputo_numeric_ms": mean_ms("fractional.caputo_numeric"),
        "fractional.caputo_exp_exact_ms": mean_ms("fractional.caputo_exp_exact"),
        "fractional.f_evals_per_op": counts.get("fractional.f_evals", 0) / solves if solves else 0.0,
        "fractional.refinements_per_op": counts.get("fractional.refinements", 0) / solves if solves else 0.0,
        "fractional.nodes_error_slope": sw["nodes_error_slope"],
        "special.ml_float_us": mean_ms(*ml_float) * 1e3,
        "special.ml_exact_us": mean_ms(*ml_exact) * 1e3,
        "special.ml_calls": counts.get("special.mittag_leffler", 0) + counts.get("special.mittag_leffler2", 0),
        "special.gamma_calls": counts.get("special.gamma", 0),
        "special.ml_probe_fail_ratio": ml_fail,
        "growth.predict_table_ms": mean_ms("growth.predict_table"),
        "growth.predict_table_calls": counts.get("growth.predict_table", 0),
        "growth.cells": counts.get("growth.cells", 0),
        "growth.fit_order_ms": mean_ms("growth.fit_order"),
        "growth.estimate_eta_ms": mean_ms("growth.estimate_eta"),
        "growth.series_terms_ms": mean_ms("growth.series_terms"),
        "growth.month_exponent": sw["month_exponent"],
        "growth.month_gap_fail_ratio": gap_fail,
        "growth.long_closed_form_fail_ratio": long_fail,
        "abalone.deviation_report_ms": mean_ms("abalone.deviation_report"),
        "cli.load_observations_ms": mean_ms("cli.load_observations"),
        "cli.bytes_written": sum(session.bytes_written[:cycle]),
        "cli.interpreter_s": interp_s,
        "cli.import_s": import_s,
        "trace.overhead_ratio": sum(untraced.latencies_ms) / sum(session.latencies_ms),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ns[layer] / ops * factor
    share = {layer: self_ns[layer] / busy_ns for layer in LAYERS} if busy_ns else {}
    dominant = sum(share.get(x, 0) for x in wl.dominant)
    others = max((v for k, v in share.items() if k not in wl.dominant), default=0.0)
    print(f"# {wl.name}: self-time share " + ", ".join(f"{k} {v:.3f}" for k, v in share.items())
          + f"; dominant {'+'.join(wl.dominant)} {dominant:.3f} vs largest other {others:.3f}")
    print(f"# {wl.name}: count cycle of {cycle} ops: " + json.dumps(counts, sort_keys=True))
    ok = _common_checks(wl, seed, untraced, n) and not session.failed and not warm_up.failed
    failed = len(warm_up.failed) + len(untraced.failed) + len(session.failed)
    return ok, 1 + n + traced_n, failed, with_units("per_layer", m)


def self_check(names, seed):
    """Input determinism, perturbation counted as a failure, exact counters."""
    from workloads import WORKLOADS

    good = True
    for name in names:
        wl = WORKLOADS[name]
        cycle = len(wl.shapes)
        same = inputs_digest(wl, seed, cycle) == inputs_digest(wl, seed, cycle)
        differs = inputs_digest(wl, seed, cycle) != inputs_digest(wl, seed + 1, cycle)
        with scratch_dir() as tmp:
            worker = Worker()
            try:
                session = Session(wl, seed, worker, tmp)
                for i in range(cycle):
                    session.run_op(i, perturb=(i == 2))
                fail_ratio = len(session.failed) / cycle
                counted = [i for i, _ in session.failed] == [2]
                worker.call("trace_on", modules=list(LAYERS))
                passes = []
                for _ in range(2):
                    before = worker.call("counters")["counters"]
                    again = Session(wl, seed, worker, tmp)
                    for i in range(cycle):
                        again.run_op(i)
                    after = worker.call("counters")["counters"]
                    passes.append(({k: after[k] - before.get(k, 0) for k in after}, again.bytes_written))
                repeat = passes[0] == passes[1]
            finally:
                worker.close()
        ok = same and differs and counted and repeat
        good &= ok
        print(f"{name}: inputs byte-identical for one seed={same}, differ across seeds={differs}; "
              f"perturbed op 2 counted: fail_ratio={fail_ratio:.4f} ({counted}); "
              f"counters repeat exactly={repeat} {json.dumps(passes[0][0], sort_keys=True)}")
    print("self-check", "passed" if good else "FAILED")
    return good


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check input determinism, oracle rejection and counter repeatability")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fracgrow", "__init__.py")):
        print(f"error: no fracgrow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload is None and not args.self_check:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload in (None, "all") else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    if args.self_check:
        return 0 if self_check(names, args.seed) else 1

    run = traced if args.trace else end_to_end
    results = {}
    for name in names:
        with scratch_dir() as tmp:
            results[name] = run(WORKLOADS[name], args.seed, args.seconds, tmp)
    for name, (_, _, _, metrics) in results.items():
        for metric_name, m in metrics.items():
            print(f"{name} {metric_name} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        ok, attempted, failed, metrics = results[names[0]]
    else:
        ok = all(r[0] for r in results.values())
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        metrics = {f"{name}.{k}": v for name, r in results.items() for k, v in r[3].items()}
    print(json.dumps({"correct": bool(ok), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
