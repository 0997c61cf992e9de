"""Batch experiment driver.

Subcommands: gridinfo (budget/cardinality audit), recover (L_q convergence
sweep), integrate (cubature convergence sweep), compare (anisotropic vs
Smolyak vs full-grid budgets at matched accuracy targets), export-rule
(cubature weights as CSV), dump-grid (level-set text dump).

Configuration comes from an INI file ([problem]/[sweep]/[output]) plus
repeatable --set section.key=value overrides; explicit flags win over both.
Runs are deterministic for a fixed config and every emitted row carries a
short hash of the resolved config.  Exit codes: 0 ok, 2 bad config, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys

import numpy as np

try:  # CPython's builtin SHA-256: hashlib would map OpenSSL's libcrypto
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # before Python 3.12
    except ImportError:  # built without it, as some FIPS interpreters are
        from hashlib import sha256

from . import analysis, cubature, grids, recovery


class ConfigError(Exception):
    pass


_DEFAULTS = {
    "problem": {},
    "sweep": {"seed": "7", "corpus": "poly,sinprod,kink", "offset": "false",
              "method": "auto", "resolution": "auto"},
    "output": {"format": "csv", "path": "-"},
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(prog="sgqi", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("gridinfo", "recover", "integrate", "compare",
                 "export-rule", "dump-grid"):
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", help="INI config file")
        p.add_argument("--set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", dest="overrides")
        p.add_argument("-o", "--output", help="output path (- for stdout)")
        p.add_argument("--format", choices=("csv", "jsonl"))
    return ap.parse_args(argv)


def _load_config(args) -> dict:
    cfg = {sec: dict(kv) for sec, kv in _DEFAULTS.items()}
    if args.config:
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise ConfigError(f"cannot read config file {args.config!r}")
        for sec in parser.sections():
            if sec not in cfg:
                raise ConfigError(f"unknown config section [{sec}]")
            cfg[sec].update(parser[sec])
    for item in args.overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not section.key=value")
        target, value = item.split("=", 1)
        sec, key = target.split(".", 1)
        if sec not in cfg:
            raise ConfigError(f"unknown config section [{sec}]")
        cfg[sec][key.strip()] = value.strip()
    if args.output:
        cfg["output"]["path"] = args.output
    if args.format:
        cfg["output"]["format"] = args.format
    return cfg


def _config_hash(cfg: dict) -> str:
    # provenance covers what was computed, not where it was written
    experiment = {sec: cfg[sec] for sec in ("problem", "sweep")}
    canon = json.dumps(experiment, sort_keys=True)
    return sha256(canon.encode()).hexdigest()[:12]


def _need(cfg, sec, key):
    try:
        return cfg[sec][key]
    except KeyError:
        raise ConfigError(f"missing required config key {sec}.{key}")


def _as_float(raw, what):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{what}: not a number: {raw!r}")


def _as_int(raw, what):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{what}: not an integer: {raw!r}")


def _float_list(raw, what):
    return tuple(_as_float(tok, what) for tok in raw.split(",") if tok.strip())


def _finite_xi(raw):
    xi = _as_float(raw, "sweep.xi")
    if not (math.isfinite(xi) and xi >= 0):
        raise ConfigError(f"sweep.xi must be finite and nonnegative: {raw!r}")
    return xi


def _experiment(cfg) -> tuple:
    """(spec, family, make_delta) of the [problem] section: make_delta maps
    xi to the family's level set."""
    prob = cfg["problem"]
    family = _need(cfg, "problem", "family")
    if family not in ("mixed", "hybrid", "energy"):
        raise ConfigError(f"unknown family {family!r}")
    d = _as_int(_need(cfg, "problem", "d"), "problem.d")
    r = _as_int(_need(cfg, "problem", "r"), "problem.r")
    p = _as_float(_need(cfg, "problem", "p"), "problem.p")
    theta = _as_float(_need(cfg, "problem", "theta"), "problem.theta")
    q = _as_float(_need(cfg, "problem", "q"), "problem.q")
    eps = prob.get("epsilon")
    eps = None if eps in (None, "", "auto") else _as_float(eps, "epsilon")
    kw = dict(d=d, r=r, p=p, theta=theta, q=q, epsilon=eps)
    if family == "mixed":
        a = _float_list(_need(cfg, "problem", "a"), "problem.a")
        if len(a) != d:
            raise ConfigError("problem.a length must equal problem.d")
        spec = grids.SmoothnessSpec(kind="mixed", a=a, **kw)
    else:
        alpha = _as_float(_need(cfg, "problem", "alpha"), "problem.alpha")
        beta = _as_float(prob.get("beta", "0"), "problem.beta")
        gamma = prob.get("gamma")
        gamma = None if gamma in (None, "") else _as_float(gamma, "gamma")
        if family == "energy" and gamma is None:
            raise ConfigError("energy family needs problem.gamma")
        spec = grids.SmoothnessSpec(kind="hybrid", alpha=alpha, beta=beta,
                                    gamma=gamma, **kw)
    tau = _as_float(prob.get("tau", prob.get("q", "2")), "problem.tau")
    flag = grids.theta_le_taustar(spec.theta, tau)
    make = lambda xi: grids.delta_for_family(
        xi, spec, family, theta_le_taustar_flag=flag)
    try:
        spec.validate(strict=False)
        make(0.0)  # surface epsilon/monotonicity problems as config errors
    except ValueError as e:
        raise ConfigError(str(e))
    return spec, family, make


def _budgets(cfg):
    budgets = [_as_int(tok, "sweep.budgets") for tok in
               _need(cfg, "sweep", "budgets").split(",") if tok.strip()]
    if not budgets or any(b <= 0 for b in budgets):
        raise ConfigError("sweep.budgets must be positive integers")
    return budgets


def _budget_sweep(cfg, make_delta):
    out = []
    for n in _budgets(cfg):
        xi = grids.xi_for_budget(n, make_delta)
        out.append((n, xi, make_delta(xi)))
    return out


def _corpus_selection(cfg, spec):
    funcs = analysis.corpus(spec.d, spec.r, spec)
    wanted = [tok.strip() for tok in cfg["sweep"]["corpus"].split(",")
              if tok.strip()]
    if not wanted:
        raise ConfigError("sweep.corpus names no function")
    by_label = {tf.label: tf for tf in funcs}
    sel = []
    for label in wanted:
        if label not in by_label:
            raise ConfigError(f"unknown corpus function {label!r}")
        sel.append(by_label[label])
    return sel


def _error_kwargs(cfg, spec):
    """discrete_lq_error's keywords from [sweep], checked here so that a bad
    setting is a config error before anything is built."""
    sw = cfg["sweep"]
    q_norm = _as_float(sw.get("lq", "") or str(spec.q), "sweep.lq")
    if not q_norm > 0:
        raise ConfigError(f"sweep.lq must be positive: {q_norm!r}")
    res = sw["resolution"].strip()
    resolution = None
    if res != "auto":
        vals = [_as_int(tok, "sweep.resolution") for tok in res.split(",")
                if tok.strip()]
        if len(vals) not in (1, spec.d) or min(vals) < 2:
            raise ConfigError(f"sweep.resolution: {res!r} is not 1 or "
                              f"{spec.d} integers of at least 2")
        resolution = vals[0] if len(vals) == 1 else tuple(vals)
    method = sw["method"].strip()
    if method not in ("auto", "lattice", "halton", "mc"):
        raise ConfigError(f"unknown sweep.method {method!r}")
    method = None if method == "auto" else method
    points = sw.get("points")
    points = None if points in (None, "", "auto") else \
        _as_int(points, "sweep.points")
    if points is not None and points < 1:
        raise ConfigError("sweep.points must be at least 1")
    offset = sw["offset"].strip().lower()
    if offset not in ("true", "false", "yes", "no", "1", "0"):
        raise ConfigError(f"sweep.offset is not true or false: {offset!r}")
    seed = _as_int(sw.get("seed", "7"), "sweep.seed")
    if seed < 0:
        raise ConfigError(f"sweep.seed must be non-negative: {seed}")
    return dict(q_norm=q_norm, resolution=resolution, method=method,
                offset=offset in ("true", "yes", "1"), points=points,
                seed=seed)


# ---------------------------------------------------------------------------
# commands (each returns header, rows, dat-file map)

def cmd_gridinfo(cfg):
    spec, family, make_delta = _experiment(cfg)
    nu = grids.nu_exponent(spec, family)
    h = _config_hash(cfg)
    rows = []
    for n, xi, delta in _budget_sweep(cfg, make_delta):
        scale = 2.0 ** (-xi / nu)
        rows.append([delta.family, spec.d, spec.r, n, xi, len(delta),
                     delta.budget(), delta.distinct_points(),
                     delta.budget() * scale, delta.distinct_points() * scale,
                     h])
    header = ["family", "d", "r", "n_target", "xi", "n_levels", "n_declared",
              "n_distinct", "ratio_declared", "ratio_distinct", "config_hash"]
    return header, rows, {}


def _sweep_command(cfg, integrate: bool):
    spec, family, make_delta = _experiment(cfg)
    nu = grids.nu_exponent(spec, family, integration=integrate)
    predicted = -nu
    h = _config_hash(cfg)
    ekw = _error_kwargs(cfg, spec)
    funcs = _corpus_selection(cfg, spec)
    sweep = _budget_sweep(cfg, make_delta)
    rows = []
    dats = {}
    rules = {}
    if integrate:
        for n, xi, delta in sweep:
            rules[xi] = cubature.assemble_weights(delta, spec.r)
    for tf in funcs:
        pts = []
        for n, xi, delta in sweep:
            if integrate:
                approx = cubature.apply_rule(rules[xi], tf.handle)
                err = abs(approx - tf.exact_integral)
                n_samples = delta.distinct_points()
            else:
                rec = recovery.build(tf.handle, delta, spec.r)
                err = analysis.discrete_lq_error(tf.handle, rec, **ekw)
                n_samples = rec.sample_budget
            pts.append((n_samples, err))
            slope = ""
            if tf.label != "poly":  # exact: its errors are rounding noise
                try:  # too few points, a zero error or a plateau: left empty
                    slope = analysis.fit_rate(pts).slope
                except ValueError:
                    pass
            rows.append([delta.family, tf.label, n, xi, delta.budget(),
                         n_samples, err, slope, predicted, h])
        dats[tf.label] = pts
    header = ["family", "label", "n_target", "xi", "n_declared", "n_distinct",
              "error", "slope_so_far", "predicted_slope", "config_hash"]
    return header, rows, dats


def cmd_compare(cfg):
    spec, family, make_delta = _experiment(cfg)
    nu = grids.nu_exponent(spec, family)
    h = _config_hash(cfg)
    xis = [_finite_xi(tok) for tok in _need(cfg, "sweep", "xi").split(",")
           if tok.strip()]
    if not xis:
        raise ConfigError("sweep.xi names no value")
    rows = []
    for xi in xis:
        aniso = make_delta(xi)
        smol = grids.comparison_sets(xi, nu, "smolyak", spec.d)
        full = grids.comparison_sets(xi, nu, "fullgrid", spec.d)
        if not (aniso.issubset(smol) and smol.issubset(full)):
            raise ValueError("comparison sets failed the containment check")
        na, ns, nf = aniso.budget(), smol.budget(), full.budget()
        rows.append([aniso.family, spec.d, spec.r, xi, na, ns, nf,
                     ns / na, nf / na, h])
    header = ["family", "d", "r", "xi", "n_aniso", "n_smolyak", "n_fullgrid",
              "ratio_smolyak", "ratio_fullgrid", "config_hash"]
    return header, rows, {}


def _single_xi(cfg, make_delta):
    sw = cfg["sweep"]
    if sw.get("xi"):
        return _finite_xi(sw["xi"])
    if sw.get("budgets"):
        return grids.xi_for_budget(_budgets(cfg)[0], make_delta)
    raise ConfigError("need sweep.xi or sweep.budgets")


def cmd_export_rule(cfg):
    spec, family, make_delta = _experiment(cfg)
    xi = _single_xi(cfg, make_delta)
    rule = cubature.assemble_weights(make_delta(xi), spec.r)
    return lambda fh: cubature.export_csv(rule, fh)


def cmd_dump_grid(cfg):
    prob = cfg["problem"]
    family = _need(cfg, "problem", "family")
    if family in ("fullgrid", "smolyak"):
        d = _as_int(_need(cfg, "problem", "d"), "problem.d")
        lam = _as_float(prob.get("lam", "1"), "problem.lam")
        xi = _finite_xi(_need(cfg, "sweep", "xi"))
        try:
            delta = grids.comparison_sets(xi, lam, family, d)
        except ValueError as e:
            raise ConfigError(f"problem.d or problem.lam: {e}")
    else:
        spec, family, make_delta = _experiment(cfg)
        delta = make_delta(_single_xi(cfg, make_delta))
    text = delta.to_text()
    return lambda fh: fh.write(text)


# ---------------------------------------------------------------------------
# output plumbing

def _format_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(cfg, header, rows, dats):
    fmt = cfg["output"]["format"]
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown output format {fmt!r}")
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_format_cell(v) for v in row) for row in rows]
    else:
        lines = [json.dumps(dict(zip(header, row)), sort_keys=True)
                 for row in rows]
    text = "\n".join(lines) + "\n"
    dat_dir = cfg["output"].get("dat_dir")
    targets = {os.path.join(dat_dir, f"{label}.dat"): pts
               for label, pts in dats.items()} if dat_dir else {}
    # first: a target that cannot be written keeps every file as it was
    for path in targets:
        if os.path.isdir(path) or (os.path.exists(path)
                                   and not os.access(path, os.W_OK)):
            raise ConfigError(f"output.dat_dir: cannot write {path}")
    if dat_dir:
        try:
            os.makedirs(dat_dir, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"output.dat_dir: {e}") from e
    _write(cfg["output"]["path"], lambda fh: fh.write(text))
    for path, pts in targets.items():
        _write(path, lambda fh: fh.write(
            "".join(f"{n} {repr(float(e))}\n" for n, e in pts)))


def _write(path, write) -> None:
    """write(fh) to stdout for path "-", else to the file at path; called
    after all that can fail, so a failing run leaves the file as it was."""
    if path == "-":
        write(sys.stdout)
        return
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as e:
        raise ConfigError(f"output: {e}") from e


_TABLE_COMMANDS = {
    "gridinfo": cmd_gridinfo,
    "recover": lambda cfg: _sweep_command(cfg, integrate=False),
    "integrate": lambda cfg: _sweep_command(cfg, integrate=True),
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        if args.command in _TABLE_COMMANDS:
            _emit(cfg, *_TABLE_COMMANDS[args.command](cfg))
        else:
            run = cmd_export_rule if args.command == "export-rule" \
                else cmd_dump_grid
            _write(cfg["output"]["path"], run(cfg))
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
