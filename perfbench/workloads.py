"""Seeded inputs, independent oracles and output checks for each workload.

Every operation is a pure function of (seed, workload, index).  A workload is
a cycle of operation *shapes* (depth, grid size, ...); each cycle visits every
shape once in a seeded order, and the seed draws the values inside a shape.
Runs stop at a cycle boundary, so two runs sample the same mix of shapes
however long each lasted.  Where shapes differ in cost, the cycle places a
block of equal-cost shapes where the median and the tail percentile fall
(sorted positions 10-14 and 21-23 of 25), so neither percentile sits on the
boundary between two kinds of operation.

Oracles never call fracgrow: they are computed in this process while the
workload process is idle, outside every timed region.
"""

from __future__ import annotations

import json
import math
import random
import mpmath

DIGITS_CAP = 16.0


def digits(rel_err):
    """Correct significant digits implied by a relative error (capped)."""
    return DIGITS_CAP if rel_err <= 0 else min(DIGITS_CAP, -math.log10(rel_err))


def rel(a, b):
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


class Workload:
    name = ""
    dominant = ()
    tail_pct = 90.0
    shapes = ()
    tolerance = ""
    shared_input_share = 0.0

    def cycle_order(self, seed, cycle):
        order = list(range(len(self.shapes)))
        random.Random(f"{seed}/{self.name}/cycle{cycle}").shuffle(order)
        return order

    def op(self, seed, index):
        cycle, pos = divmod(index, len(self.shapes))
        shape = self.shapes[self.cycle_order(seed, cycle)[pos]]
        return self.make(random.Random(f"{seed}/{self.name}/op{index}"), shape)

    def make(self, rng, shape):
        raise NotImplementedError

    def oracle(self, op):
        raise NotImplementedError

    def check(self, op, ref, out):
        """(ok, digits or None, reason) for one operation's output."""
        raise NotImplementedError

    def perturb(self, op, out):
        """A copy of ``out`` with one number changed by a relative 1e-6 or 1e-5."""
        raise NotImplementedError


# ---------------------------------------------------------------- adm_cubic

def _dyadic(x):
    """Float x as (N, e) with x == N / 2**e exactly."""
    n, d = float(x).as_integer_ratio()
    return n, d.bit_length() - 1


def _poly_mul(a, b):
    (da, ea), (db, eb) = a, b
    out = {}
    for k1, c1 in da.items():
        for k2, c2 in db.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out, ea + eb


def _poly_acc(acc, poly, factor=1):
    """acc += factor * poly, exactly, for acc = [coeffs, exponent]."""
    d, e = poly
    if e > acc[1]:
        shift = e - acc[1]
        acc[0] = {k: c << shift for k, c in acc[0].items()}
        acc[1] = e
    shift = acc[1] - e
    coeffs = acc[0]
    for k, c in d.items():
        coeffs[k] = coeffs.get(k, 0) + ((factor * c) << shift)


def adm_exact(M, beta, r, eta, nl, depth):
    """Exact-rational ADM iterates for w_0 = M e^{rs}.

    Writes w = sum_n P_n(x) t^n/n! with x = e^{rs}.  The Adomian polynomial
    A_n of c_j w^j is t^n/n! times c_j [t^n/n!] W^j, and the powers W^j are
    extended one order per step by binomial convolution -- a different
    algorithm from the program's composition sums.  Every coefficient is
    carried exactly as an integer over a power of two.  The factors
    (k r)^beta enter as the doubles ``(k * r) ** beta``.
    """
    m_num, m_exp = _dyadic(M)
    P = [({1: m_num}, m_exp)]
    powers = {1: P}
    top = max(j for j, _ in nl)
    for j in range(2, top + 1):
        powers[j] = []
    eta_d = _dyadic(eta)
    coef = {j: _dyadic(c) for j, c in nl}
    ls = {}
    for n in range(depth):
        for j in range(2, top + 1):
            acc = [{}, 0]
            for i in range(n + 1):
                _poly_acc(acc, _poly_mul(P[i], powers[j - 1][n - i]), math.comb(n, i))
            powers[j].append((acc[0], acc[1]))
        d, e = P[n]
        acc = [{}, 0]
        _poly_acc(acc, ({k: eta_d[0] * c for k, c in d.items()}, e + eta_d[1]))
        for k, c in d.items():
            if k not in ls:
                ls[k] = _dyadic((k * r) ** beta)
            _poly_acc(acc, ({k: -ls[k][0] * c}, e + ls[k][1]))
        for j, _ in nl:
            cj, ej = coef[j]
            dj, e2 = powers[j][n]
            _poly_acc(acc, ({k: -cj * c for k, c in dj.items()}, e2 + ej))
        P.append(({k: c for k, c in acc[0].items() if c}, acc[1]))
    return [{k: c / (1 << e) for k, c in d.items()} for d, e in P]


class AdmCubic(Workload):
    name = "adm_cubic"
    dominant = ("terms",)
    shapes = (tuple(("quadcubic", d) for d in range(9, 14)) + tuple(("cubic", d) for d in range(12, 17))
              + (("cubic", 18),) * 5
              + (("cubic", 19), ("quadcubic", 16), ("cubic", 20), ("cubic", 21), ("quadcubic", 17),
                 ("cubic", 22))
              + (("cubic", 24),) * 3 + (("quadcubic", 20),))
    tolerance = "per iterate, max |coefficient error| / max |exact coefficient| <= 1e-11"
    TOL = 1e-11

    def make(self, rng, shape):
        kind, depth = shape
        nl = [[3, -rng.uniform(0.05, 0.3)]]
        if kind == "quadcubic":
            nl.insert(0, [2, rng.uniform(0.02, 0.2)])
        return {"kind": "adm", "M": rng.uniform(0.5, 1.5), "r": rng.uniform(0.05, 0.5),
                "eta": rng.uniform(0.1, 0.6), "beta": rng.uniform(0.3, 0.95), "nl": nl,
                "depth": depth}

    def oracle(self, op):
        return adm_exact(op["M"], op["beta"], op["r"], op["eta"],
                         [tuple(x) for x in op["nl"]], op["depth"])

    def check(self, op, ref, out):
        if len(out) != len(ref):
            return False, None, f"{len(out)} iterates, expected {len(ref)}"
        worst = 0.0
        for n, (terms, exact) in enumerate(zip(out, ref)):
            got = {}
            for k, t_power, c in terms:
                if t_power != n:
                    return False, None, f"iterate {n} has a t^{t_power} term"
                got[k] = c
            scale = max(abs(c) for c in exact.values())
            err = max(abs(got.get(k, 0.0) - exact.get(k, 0.0)) for k in set(got) | set(exact))
            worst = max(worst, err / scale)
        if worst > self.TOL:
            return False, digits(worst), f"normwise error {worst:.3g}"
        return True, digits(worst), ""

    def perturb(self, op, out):
        out = json.loads(json.dumps(out))
        max(out[-1], key=lambda term: abs(term[2]))[2] *= 1 + 1e-6
        return out


# ------------------------------------------------------------- caputo_quad

def ml_reference(alpha, z):
    """E_alpha(z) from closed forms or an mpmath series at ample precision."""
    z = mpmath.mpf(z)
    with mpmath.workdps(40):
        if alpha == 0.5:
            return mpmath.exp(z * z) * mpmath.erfc(-z)
        if alpha == 1:
            return mpmath.exp(z)
        if alpha == 2:
            return mpmath.cosh(mpmath.sqrt(z)) if z >= 0 else mpmath.cos(mpmath.sqrt(-z))
    # Terms peak near exp(|z|^(1/alpha)); carry that many extra digits.
    dps = 40 + int(abs(z) ** (1 / alpha) / math.log(10))
    with mpmath.workdps(dps):
        total, m, eps = mpmath.mpf(0), 0, mpmath.mpf(10) ** (30 - dps)
        while True:
            term = z ** m * mpmath.rgamma(alpha * m + 1)
            total += term
            m += 1
            if alpha * m > abs(z) ** (1 / alpha) + 10 and abs(term) <= eps * abs(total):
                return +total


def caputo_reference(beta, r, s, scale):
    """Strict Caputo derivative of scale*e^{rs}: r s^{1-b} 1F1(1; 2-b; rs)/Gamma(2-b)."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        exact = scale * r * mpmath.power(s, 1 - b) * mpmath.hyp1f1(1, 2 - b, r * s) / mpmath.gamma(2 - b)
        paper = scale * mpmath.power(r, b) * mpmath.exp(mpmath.mpf(r) * s)
        return float(exact), float(paper)


class CaputoQuad(Workload):
    name = "caputo_quad"
    dominant = ("fractional", "special")
    tail_pct = 95.0
    # Seven quadrature ops (four solves each, so the median does not sit on a
    # step of the doubling schedule) and three Mittag-Leffler batches.  The
    # exact path's cost grows steeply with -z, so each batch takes one alpha = 1
    # argument from each sixth of [-50, 50] and the batches cost alike.
    shapes = ("caputo",) * 7 + ("ml",) * 3
    SOLVES = 4
    REFINE_TOL = 1e-7
    TOL_QUAD = 1e-6
    TOL_CLOSED = 1e-12
    TOL_ML = 1e-9
    tolerance = ("quadrature refined by doubling from 256 nodes until successive values agree to "
                 "1e-7, then rel. error <= 1e-6; caputo_exp_exact <= 1e-12; paper rule <= 1e-12; "
                 "Mittag-Leffler <= 1e-9")
    # Timed Mittag-Leffler domains: alpha 1 and 2 over the advertised |z| <= 50;
    # alpha 0.5 and non-integer alpha where the series meets TOL_ML.  The rest
    # of |z| <= 50 is covered by the untimed probe in run.py, which reports
    # its failure ratio as special.ml_probe_fail_ratio.
    ML_DOMAINS = (((0.5, 0.5), (-3.0, 10.0)), ((1.0, 1.0), (-50.0, 50.0)),
                  ((2.0, 2.0), (-50.0, 50.0)), ((0.75, 1.75), (-5.0, 50.0)))

    def make(self, rng, shape):
        if shape == "caputo":
            # Latin hypercube over (beta, r, s): each solve takes its own quarter
            # of each range, so every op spans the range and ops cost alike.
            ranges = {"beta": (0.1, 0.9), "r": (0.05, 1.0), "s": (0.2, 4.0)}
            strata = {k: rng.sample(range(self.SOLVES), self.SOLVES) for k in ranges}
            solves = []
            for i in range(self.SOLVES):
                q = {k: rng.uniform(lo + (hi - lo) * strata[k][i] / self.SOLVES,
                                    lo + (hi - lo) * (strata[k][i] + 1) / self.SOLVES)
                     for k, (lo, hi) in ranges.items()}
                solves.append(dict(q, scale=rng.uniform(0.5, 2.0)))
            return {"kind": "caputo", "solves": solves, "tol": self.REFINE_TOL, "nodes0": 256,
                    "max_nodes": 1 << 16}
        points = []
        for (a_lo, a_hi), (z_lo, z_hi) in self.ML_DOMAINS:
            alpha = a_lo if a_lo == a_hi else rng.uniform(a_lo, a_hi)
            parts = 6 if alpha == 1.0 else 1
            width = (z_hi - z_lo) / parts
            points += [[alpha, rng.uniform(z_lo + i * width, z_lo + (i + 1) * width)] for i in range(parts)]
        return {"kind": "ml", "points": points}

    def oracle(self, op):
        if op["kind"] == "caputo":
            return [caputo_reference(q["beta"], q["r"], q["s"], q["scale"]) for q in op["solves"]]
        return [float(ml_reference(a, z)) for a, z in op["points"]]

    def check(self, op, ref, out):
        if op["kind"] == "caputo":
            worst, bad = DIGITS_CAP, []
            for i, (got, (exact, paper)) in enumerate(zip(out, ref)):
                if not got["converged"]:
                    bad.append(f"solve {i}: quadrature did not reach the refinement tolerance")
                    continue
                errs = (rel(got["numeric"], exact), rel(got["exact"], exact), rel(got["paper"], paper))
                worst = min([worst] + [digits(e) for e in errs])
                bad += [f"solve {i}: {lbl} rel err {e:.3g}" for lbl, e, t in
                        zip(("numeric", "exact", "paper"), errs,
                            (self.TOL_QUAD, self.TOL_CLOSED, self.TOL_CLOSED)) if e > t]
            if len(out) != len(ref):
                bad.append(f"{len(out)} results for {len(ref)} solves")
            return not bad, worst, "; ".join(bad)
        errs = [rel(v, r) for v, r in zip(out, ref)]
        worst = max(errs)
        if worst > self.TOL_ML or len(out) != len(ref):
            return False, digits(worst), f"Mittag-Leffler rel err {worst:.3g}"
        return True, digits(worst), ""

    def perturb(self, op, out):
        out = json.loads(json.dumps(out))
        if op["kind"] == "caputo":
            out[0]["numeric"] *= 1 + 1e-5
        else:
            out[0] *= 1 + 1e-6
        return out


# ------------------------------------------------------------- cli_session

def self_consistent_lengths(h1, r, beta, months):
    """Lengths on consecutive months that the cumulative convention with
    absolute rates reproduces exactly at order ``beta``:
    h_{m+1} = h_m exp(r - r^beta + h_{m+1} - h_m), solved by Newton's method
    from above, which converges to the growing root for h > 1."""
    d = r - r ** beta
    out = [h1]
    for _ in range(months - 1):
        h = out[-1]
        x = h + 1.0
        for _ in range(100):
            g = h * math.exp(d + x - h)
            step = (g - x) / (g - 1.0)
            x -= step
            if abs(step) <= 1e-15 * x:
                break
        out.append(x)
    return out


def obs_csv(months, lengths):
    return "month,length\n" + "".join(f"{m},{h!r}\n" for m, h in zip(months, lengths))


def parse_obs(text):
    rows = [line.split(",") for line in text.splitlines()[1:] if line]
    return [int(m) for m, _ in rows], [float(h) for _, h in rows]


def cumulative_oracle(months, lengths, r, orders):
    """Grid keyed by the observed months under the cumulative convention.

    With per-month rates eta_i = dh/dt over each gap, the log of the
    predicted length telescopes to (m - m_1)(r - r^beta) + h_m - h_1.
    """
    m1, h1 = months[0], lengths[0]
    return [[h1 * math.exp((m - m1) * (r - r ** b) + (h - h1)) for b in orders]
            for m, h in zip(months, lengths)]


def closed_form_oracle(months, lengths, r, orders):
    """Grid of the closed_form_per_row convention: M e^{(r + eta_t - r^b) t}."""
    M = lengths[0]
    rows = [[M] * len(orders)]
    for t in range(1, len(months)):
        eta = (lengths[t] - lengths[t - 1]) / (months[t] - months[t - 1])
        rows.append([M * math.exp(t * (r + eta - r ** b)) for b in orders])
    return rows


def _parse_grid_csv(text):
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",")
    orders = [float(h[2:]) for h in header[1:]]
    body = [line.split(",") for line in rows[1:]]
    return [int(r[0]) for r in body], orders, [[float(v) for v in r[1:]] for r in body]


def _grid_err(values, oracle):
    if len(values) != len(oracle) or any(len(a) != len(b) for a, b in zip(values, oracle)):
        return math.inf
    return max(rel(v, o) for row, orow in zip(values, oracle) for v, o in zip(row, orow))


class CliSession(Workload):
    name = "cli_session"
    dominant = ("growth", "abalone", "cli")
    shapes = ((("series", 10), ("series", 35), ("series", 60)) + (("reference",),) * 3
              + (("predict_cf", 100, 10), ("predict_cf", 200, 20), ("predict_cf", 400, 10),
                 ("predict_cf", 300, 30))
              + (("fit", 1000, 20),) * 5
              + (("fit", 500, 50), ("fit", 700, 40), ("fit", 1000, 30), ("fit", 1500, 20),
                 ("fit", 2000, 15), ("fit", 3000, 10))
              + (("fit", 500, 80),) * 3 + (("fit", 5000, 10),))
    shared_input_share = 3 / 25
    TOL = 1e-9
    tolerance = ("grid cells, MAE scores and series coefficients rel. error <= 1e-9 against "
                 "oracles keyed by the observed months; fit recovers the generating order; "
                 "printed 4-decimal deviations within 5e-5")

    def _orders_around(self, rng, beta_star, k):
        """k orders spaced 0.005 apart, one of them beta_star, all in (0.05, 1]."""
        step = 0.005
        lo_idx = max(0, k - 1 - int((1.0 - beta_star) / step))
        hi_idx = min(k - 1, int((beta_star - 0.05) / step))
        j = rng.randint(lo_idx, hi_idx)
        return [round(beta_star + (i - j) * step, 6) for i in range(k)]

    def _series_op(self, rng, kind, months, k, gaps=False):
        r = round(rng.uniform(0.15, 0.45), 6)
        beta_star = round(rng.uniform(0.55, 0.85), 6)
        h1 = rng.uniform(1.5, 3.0)
        total = months * 2 if gaps else months
        lengths = self_consistent_lengths(h1, r, beta_star, total)
        month_list = list(range(1, total + 1))
        if gaps:
            keep = [0] + sorted(rng.sample(range(1, total), months - 1))
            month_list = [month_list[i] for i in keep]
            lengths = [lengths[i] for i in keep]
        orders = self._orders_around(rng, beta_star, k)
        order_arg = ",".join(f"{b:g}" for b in orders)
        if kind == "fit":
            argv = ["fit", "--obs", "{tmp}/obs.csv", "--orders", order_arg, "--r", f"{r:g}",
                    "--json", "{tmp}/out.json", "--csv", "{tmp}/out.csv"]
        else:
            argv = ["predict", "--obs", "{tmp}/obs.csv", "--orders", order_arg, "--r", f"{r:g}",
                    "--convention", "closed_form_per_row", "--plot", "{tmp}/plot.csv"]
        return {"kind": kind, "argv": argv, "files": {"obs.csv": obs_csv(month_list, lengths)},
                "r": r, "orders": orders, "beta_star": beta_star}

    def make(self, rng, shape):
        if shape[0] in ("fit", "predict_cf"):
            return self._series_op(rng, shape[0], shape[1], shape[2])
        if shape[0] == "reference":
            return {"kind": "reference", "files": {},
                    "argv": ["predict", "--reference", "--deviation-report", "--json", "{tmp}/out.json"]}
        m0, r = rng.uniform(0.3, 2.0), rng.uniform(0.02, 0.06)
        eta, beta = rng.uniform(0.4, 0.6), rng.uniform(0.5, 1.0)
        return {"kind": "series", "files": {}, "m0": m0, "r": r, "eta": eta, "beta": beta,
                "depth": shape[1],
                "argv": ["series", "--eta", repr(eta), "--beta", repr(beta), "--depth", str(shape[1]),
                         "--m0", repr(m0), "--r", repr(r)]}

    def gap_op(self, rng):
        """A fit on observations with irregular month gaps (ROADMAP item 4)."""
        return self._series_op(rng, "fit", 200, 10, gaps=True)

    def long_closed_form_op(self, rng):
        """A closed-form predict over 5000 months, where e^{r t} leaves double range."""
        return self._series_op(rng, "predict_cf", 5000, 10)

    def oracle(self, op):
        kind = op["kind"]
        if kind == "series":
            with mpmath.workdps(40):
                x = mpmath.mpf(op["eta"]) - mpmath.power(op["r"], op["beta"])
                return [float(op["m0"] * x ** n) for n in range(op["depth"] + 1)]
        if kind == "reference":
            return _reference_oracle()
        months, lengths = parse_obs(op["files"]["obs.csv"])
        if kind == "fit":
            grid = cumulative_oracle(months, lengths, op["r"], op["orders"])
            maes = [math.fsum(abs(grid[i][j] - h) for i, h in enumerate(lengths)) / len(lengths)
                    for j in range(len(op["orders"]))]
            return {"months": months, "lengths": lengths, "grid": grid, "mae": maes}
        return {"months": months, "lengths": lengths,
                "grid": closed_form_oracle(months, lengths, op["r"], op["orders"])}

    def check(self, op, ref, out):
        if out.get("code") != 0:
            return False, None, f"exit code {out.get('code')}"
        kind = op["kind"]
        try:
            if kind == "series":
                return self._check_series(ref, out)
            if kind == "reference":
                return self._check_reference(ref, out)
            if kind == "fit":
                return self._check_fit(op, ref, out)
            return self._check_plot(op, ref, out)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            return False, None, f"unparseable output: {type(exc).__name__}: {exc}"

    def _check_series(self, ref, out):
        lines = out["stdout"].splitlines()[1:]
        if len(lines) != len(ref):
            return False, None, f"{len(lines)} series rows, expected {len(ref)}"
        worst = 0.0
        for n, (line, exact) in enumerate(zip(lines, ref)):
            idx, coeff, exp_mult, t_power = line.split()
            if (int(idx), int(exp_mult), int(t_power)) != (n, 1, n):
                return False, None, f"bad series row {line!r}"
            worst = max(worst, rel(float(coeff), exact))
        return worst <= self.TOL, digits(worst), "" if worst <= self.TOL else f"coeff rel err {worst:.3g}"

    def _check_reference(self, ref, out):
        bundle = json.loads(out["files"]["out.json"])
        if bundle["grid"]["months"] != list(range(1, len(ref["grid"]) + 1)):
            return False, None, "reference grid months"
        err = _grid_err(bundle["grid"]["values"], ref["grid"])
        printed = {}
        for line in out["stdout"].splitlines():
            parts = line.strip().split()
            if len(parts) == 7 and parts[1:3] == ["max", "abs"]:
                printed[parts[0].rstrip(":")] = (float(parts[3].rstrip(",")), float(parts[6]))
        dev_ok = printed.keys() == ref["deviation"].keys() and all(
            abs(p - e) <= 5e-5 + 1e-9
            for conv, exp in ref["deviation"].items() for p, e in zip(printed[conv], exp))
        ok = err <= self.TOL and dev_ok
        return ok, digits(err), "" if ok else f"grid rel err {err:.3g}, deviation report ok={dev_ok}"

    def _check_fit(self, op, ref, out):
        bundle = json.loads(out["files"]["out.json"])
        grid = bundle["grid"]
        problems = []
        if grid["months"] != ref["months"]:
            problems.append("grid months differ from the observed months")
        if grid["orders"] != op["orders"] or bundle["observed"] != ref["lengths"]:
            problems.append("orders or observed series differ")
        err = _grid_err(grid["values"], ref["grid"])
        csv_months, csv_orders, csv_values = _parse_grid_csv(out["files"]["out.csv"])
        if csv_months != grid["months"] or csv_orders != grid["orders"] or csv_values != grid["values"]:
            problems.append("CSV grid does not parse back to the JSON grid")
        mean_h = sum(ref["lengths"]) / len(ref["lengths"])
        scores = bundle["scores"]
        score_err = max(abs(scores[f"{b:g}"] - m) / (m + mean_h) for b, m in zip(op["orders"], ref["mae"]))
        best = out["stdout"].rsplit("best order: beta=", 1)[-1].split()[0]
        if float(best) != op["beta_star"]:
            problems.append(f"fit chose beta={best}, generating order {op['beta_star']:g}")
        worst = max(err, score_err)
        if worst > self.TOL:
            problems.append(f"grid/score rel err {worst:.3g}")
        return not problems, digits(worst), "; ".join(problems)

    def _check_plot(self, op, ref, out):
        rows = [line.split(",") for line in out["files"]["plot.csv"].splitlines()
                if line and not line.startswith("#")][1:]
        k = len(op["orders"])
        if len(rows) != len(ref["months"]) * k:
            return False, None, f"{len(rows)} plot rows, expected {len(ref['months']) * k}"
        worst = 0.0
        for idx, (month, order, predicted, observed) in enumerate(rows):
            i, j = divmod(idx, k)
            if int(month) != ref["months"][i] or float(order) != op["orders"][j] \
                    or float(observed) != ref["lengths"][i]:
                return False, None, f"plot row {idx} keyed {month},{order}"
            worst = max(worst, rel(float(predicted), ref["grid"][i][j]))
        return worst <= self.TOL, digits(worst), "" if worst <= self.TOL else f"plot rel err {worst:.3g}"

    def perturb(self, op, out):
        out = json.loads(json.dumps(out))
        if op["kind"] == "series":
            lines = out["stdout"].splitlines()
            parts = lines[-1].split()
            parts[1] = repr(float(parts[1]) * (1 + 1e-6))
            out["stdout"] = "\n".join(lines[:-1] + [" ".join(parts)]) + "\n"
            return out
        name = "plot.csv" if op["kind"] == "predict_cf" else "out.json"
        text = out["files"][name]
        if name == "out.json":
            bundle = json.loads(text)
            bundle["grid"]["values"][-1][0] *= 1 + 1e-6
            out["files"][name] = json.dumps(bundle)
        else:
            lines = text.splitlines()
            fields = lines[-1].split(",")
            fields[2] = repr(float(fields[2]) * (1 + 1e-6))
            out["files"][name] = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
        return out


_REFERENCE = None


def _reference_oracle():
    """Cumulative grid of the built-in rate column and its printed deviations."""
    global _REFERENCE
    if _REFERENCE is None:
        from fracgrow import abalone  # published constants only; no computation
        M, r, etas = abalone.INITIAL_LENGTH, abalone.INITIAL_GROWTH_RATE, abalone.REFERENCE_ETAS
        orders = abalone.REFERENCE_ORDERS

        def grid(age, closed):
            rows = [[M] * len(orders)]
            for t in range(1, len(etas) + 1):
                if closed:
                    rows.append([M * math.exp(t * (r + etas[t - 1] - r ** b)) for b in orders])
                else:
                    rows.append([M * math.exp(math.fsum(etas[:t]) + t * (age * r - r ** b))
                                 for b in orders])
            return rows

        deviation = {}
        for conv, g in (("closed_form_per_row", grid(1, True)), ("cumulative", grid(1, False)),
                        ("cumulative_no_age", grid(0, False))):
            devs = [abs(v - p) for row, prow in zip(g, abalone.REFERENCE_TABLE) for v, p in zip(row, prow)]
            deviation[conv] = (max(devs), sum(devs) / len(devs))
        _REFERENCE = {"grid": grid(1, False), "deviation": deviation}
    return _REFERENCE


WORKLOADS = {w.name: w for w in (AdmCubic(), CaputoQuad(), CliSession())}
