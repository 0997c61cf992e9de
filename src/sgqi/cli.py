"""Batch experiment driver.

Subcommands: gridinfo (budget/cardinality audit), recover (L_q convergence
sweep), integrate (cubature convergence sweep), compare (anisotropic vs
Smolyak vs full-grid budgets at matched accuracy targets), export-rule
(cubature weights as CSV), dump-grid (level-set text dump).

Configuration comes from an INI file ([problem]/[sweep]/[output]) plus
repeatable --set section.key=value overrides; explicit flags win over both.
Every key is read through one accessor, which parses and checks it, and
every command runs from one table; a bad key (output.format as soon as the
config is read) fails before anything is built or written.  Runs are
deterministic for a fixed config and every emitted row carries a short
hash of the resolved config.  Exit codes: 0 ok, 1 stdout closed by its
reader, 2 bad config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys

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
    for name in _COMMANDS:
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
        try:
            _check(parser.read(args.config),
                   f"cannot read config file {args.config!r}")
        except (configparser.Error, UnicodeDecodeError) as e:
            raise ConfigError(f"config file {args.config!r}: {e}") from None
        for sec in parser.sections():
            _check(sec in cfg, f"unknown config section [{sec}]")
            cfg[sec].update(parser[sec])
    for item in args.overrides:
        _check("=" in item and "." in item.split("=", 1)[0],
               f"override {item!r} is not section.key=value")
        target, value = item.split("=", 1)
        sec, key = target.split(".", 1)
        _check(sec in cfg, f"unknown config section [{sec}]")
        cfg[sec][key.strip()] = value.strip()
    if args.output:
        cfg["output"]["path"] = args.output
    if args.format:
        cfg["output"]["format"] = args.format
    fmt = _get(cfg, "output.format")
    _check(fmt in ("csv", "jsonl"), f"unknown output format {fmt!r}")
    _check(fmt == "csv" or args.command not in ("export-rule", "dump-grid"),
           f"{args.command} has no {fmt} output")
    return cfg


def _config_hash(cfg: dict) -> str:
    # provenance covers what was computed, not where it was written
    experiment = {sec: cfg[sec] for sec in ("problem", "sweep")}
    canon = json.dumps(experiment, sort_keys=True)
    return sha256(canon.encode()).hexdigest()[:12]


def _check(ok, message):
    if not ok:
        raise ConfigError(message)


def _get(cfg, key, parse=str, default=None, many=False):
    """parse(raw) of config key "section.key", or with many a tuple of
    parse(token) over its nonblank comma-separated tokens; default where
    the key is unset, which without a default is an error."""
    sec, name = key.split(".")
    raw = cfg[sec].get(name)
    if raw is None:
        _check(default is not None, f"missing required config key {key}")
        return default
    tokens = [tok for tok in raw.split(",") if tok.strip()] if many else [raw]
    out = []
    for tok in tokens:
        try:
            out.append(parse(tok))
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise ConfigError(f"{key}: not {kind}: {tok!r}") from None
    return tuple(out) if many else out[0]


def _auto(cfg, key, parse):
    """key's value, or None where it is unset, empty or auto."""
    sec, name = key.split(".")
    raw = cfg[sec].get(name)
    return None if raw in (None, "", "auto") else _get(cfg, key, parse)


def _xi(raw):
    xi = float(raw)
    _check(math.isfinite(xi) and xi >= 0,
           f"sweep.xi must be finite and nonnegative: {raw!r}")
    return xi


def _experiment(cfg) -> tuple:
    """(spec, family, make_delta) of the [problem] section: make_delta maps
    xi to the family's level set."""
    family = _get(cfg, "problem.family")
    _check(family in ("mixed", "hybrid", "energy"),
           f"unknown family {family!r}")
    d, r = (_get(cfg, f"problem.{key}", int) for key in ("d", "r"))
    p, theta, q = (_get(cfg, f"problem.{key}", float)
                   for key in ("p", "theta", "q"))
    kw = dict(d=d, r=r, p=p, theta=theta, q=q,
              epsilon=_auto(cfg, "problem.epsilon", float))
    if family == "mixed":
        a = _get(cfg, "problem.a", float, many=True)
        _check(len(a) == d, "problem.a length must equal problem.d")
        spec = grids.SmoothnessSpec(kind="mixed", a=a, **kw)
    else:
        alpha = _get(cfg, "problem.alpha", float)
        beta = _get(cfg, "problem.beta", float, 0.0)
        gamma = _get(cfg, "problem.gamma", float) \
            if cfg["problem"].get("gamma") else None
        _check(family != "energy" or gamma is not None,
               "energy family needs problem.gamma")
        spec = grids.SmoothnessSpec(kind="hybrid", alpha=alpha, beta=beta,
                                    gamma=gamma, **kw)
    tau = _get(cfg, "problem.tau", float, q)
    # an unset tau is q, which the spec checks below
    _check(tau > 0 or "tau" not in cfg["problem"],
           f"problem.tau must be positive: {tau!r}")
    flag = grids.theta_le_taustar(spec.theta, tau)
    make = lambda xi: grids.delta_for_family(
        xi, spec, family, theta_le_taustar_flag=flag)
    try:
        make(0.0)  # validates the spec; its ValueErrors are config errors
    except ValueError as e:
        raise ConfigError(str(e))
    return spec, family, make


def _budgets(cfg):
    budgets = _get(cfg, "sweep.budgets", int, many=True)
    _check(budgets and min(budgets) > 0,
           "sweep.budgets must be positive integers")
    return budgets


def _budget_sweep(cfg, make_delta):
    out = []
    for n in _budgets(cfg):
        xi = grids.xi_for_budget(n, make_delta)
        out.append((n, xi, make_delta(xi)))
    return out


def _corpus_selection(cfg, spec):
    by_label = {tf.label: tf for tf in analysis.corpus(spec.d, spec.r, spec)}
    wanted = _get(cfg, "sweep.corpus", str.strip, many=True)
    _check(wanted, "sweep.corpus names no function")
    for label in wanted:
        _check(label in by_label, f"unknown corpus function {label!r}")
    return [by_label[label] for label in wanted]


def _error_kwargs(cfg, spec):
    """discrete_lq_error's keywords from [sweep], checked here so that a bad
    setting is a config error before anything is built."""
    q_norm = _get(cfg, "sweep.lq", float) if cfg["sweep"].get("lq") \
        else spec.q
    _check(q_norm > 0, f"sweep.lq must be positive: {q_norm!r}")
    res = _get(cfg, "sweep.resolution", str.strip)
    resolution = None
    if res != "auto":
        vals = _get(cfg, "sweep.resolution", int, many=True)
        _check(len(vals) in (1, spec.d) and min(vals) >= 2,
               f"sweep.resolution: {res!r} is not 1 or {spec.d} integers "
               f"of at least 2")
        resolution = vals[0] if len(vals) == 1 else vals
    method = _get(cfg, "sweep.method", str.strip)
    _check(method in ("auto", "lattice", "halton", "mc"),
           f"unknown sweep.method {method!r}")
    points = _auto(cfg, "sweep.points", int)
    _check(points is None or points >= 1, "sweep.points must be at least 1")
    offset = _get(cfg, "sweep.offset", str.strip).lower()
    _check(offset in ("true", "false", "yes", "no", "1", "0"),
           f"sweep.offset is not true or false: {offset!r}")
    seed = _get(cfg, "sweep.seed", int, 7)
    _check(seed >= 0, f"sweep.seed must be non-negative: {seed}")
    return dict(q_norm=q_norm, resolution=resolution,
                method=None if method == "auto" else method,
                offset=offset in ("true", "yes", "1"), points=points,
                seed=seed)


# ---------------------------------------------------------------------------
# commands (each returns a writer of the output and a dat-file map, None
# for a command that writes no dat files)

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
    return _table(cfg, header, rows), None


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
            pts.append((n_samples, err))  # equal n: one set, one error
            slope = ""
            if tf.label != "poly":  # exact: its errors are rounding noise
                try:  # too few points or a zero error: left empty
                    slope = analysis.fit_rate(sorted(dict(pts).items())).slope
                except ValueError:
                    pass
            rows.append([delta.family, tf.label, n, xi, delta.budget(),
                         n_samples, err, slope, predicted, h])
        dats[tf.label] = pts
    header = ["family", "label", "n_target", "xi", "n_declared", "n_distinct",
              "error", "slope_so_far", "predicted_slope", "config_hash"]
    return _table(cfg, header, rows), dats


def cmd_compare(cfg):
    spec, family, make_delta = _experiment(cfg)
    nu = grids.nu_exponent(spec, family)
    h = _config_hash(cfg)
    xis = _get(cfg, "sweep.xi", _xi, many=True)
    _check(xis, "sweep.xi names no value")
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
    return _table(cfg, header, rows), None


def _single_xi(cfg, make_delta):
    if cfg["sweep"].get("xi"):
        return _get(cfg, "sweep.xi", _xi)
    _check(cfg["sweep"].get("budgets"), "need sweep.xi or sweep.budgets")
    return grids.xi_for_budget(_budgets(cfg)[0], make_delta)


def cmd_export_rule(cfg):
    spec, family, make_delta = _experiment(cfg)
    xi = _single_xi(cfg, make_delta)
    rule = cubature.assemble_weights(make_delta(xi), spec.r)
    return lambda fh: cubature.export_csv(rule, fh), None


def cmd_dump_grid(cfg):
    family = _get(cfg, "problem.family")
    if family in ("fullgrid", "smolyak"):
        d = _get(cfg, "problem.d", int)
        lam = _get(cfg, "problem.lam", float, 1.0)
        xi = _get(cfg, "sweep.xi", _xi)
        try:
            delta = grids.comparison_sets(xi, lam, family, d)
        except ValueError as e:
            raise ConfigError(f"problem.d or problem.lam: {e}")
    else:
        spec, family, make_delta = _experiment(cfg)
        delta = make_delta(_single_xi(cfg, make_delta))
    text = delta.to_text()
    return lambda fh: fh.write(text), None


# ---------------------------------------------------------------------------
# output plumbing

def _format_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _table(cfg, header, rows):
    """A writer of rows under header in output.format."""
    if _get(cfg, "output.format") == "csv":
        lines = [",".join(header)]
        lines += [",".join(_format_cell(v) for v in row) for row in rows]
    else:
        lines = [json.dumps(dict(zip(header, row)), sort_keys=True)
                 for row in rows]
    text = "\n".join(lines) + "\n"
    return lambda fh: fh.write(text)


def _emit(cfg, write, dats):
    dat_dir = dats is not None and _get(cfg, "output.dat_dir", default="")
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
    _write(_get(cfg, "output.path"), write)
    for path, pts in targets.items():
        _write(path, lambda fh: fh.write(
            "".join(f"{n} {repr(float(e))}\n" for n, e in pts)))


def _write(path, write) -> None:
    """write(fh) to stdout for path "-", else to the file at path; called
    after all that can fail, so a failing run leaves the file as it was."""
    if path == "-":
        write(sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as e:
        raise ConfigError(f"output: {e}") from e


_COMMANDS = {
    "gridinfo": cmd_gridinfo,
    "recover": lambda cfg: _sweep_command(cfg, integrate=False),
    "integrate": lambda cfg: _sweep_command(cfg, integrate=True),
    "compare": cmd_compare,
    "export-rule": cmd_export_rule,
    "dump-grid": cmd_dump_grid,
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg = _load_config(args)
        _emit(cfg, *_COMMANDS[args.command](cfg))
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout early
        # so that the interpreter's last flush of stdout does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError) as e:  # LinAlgError is a ValueError
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
