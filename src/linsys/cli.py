"""Command-line interface: config ingestion, dispatch, artifact output.

JSON in, JSON/CSV out.  Subcommands map one-to-one onto the verification
surface (`simulate`, `green`, `criterion`, `oracle-two-point`, `fk3`,
`verify-martingale`, `verify-clt`, `verify-cov`, `verify-overlap`,
`validate-kernel`).  Every artifact embeds the fully resolved config and
a format-version string; with an output directory, `simulate` and
`verify-martingale` also write `diagnostics.json` beside their artifacts.
Exit codes: 0 success, 1 check failure,
2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

import numpy as np

from . import engine, feynman_kac as fk, stats, walk as walk_mod
from .kernel import Kernel, KernelError, validate_kernel

FORMAT_VERSION = "linsys-cli-1"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The config table.  A check takes (value, path, ctx) and returns the value,
# parsed, or raises a ConfigError naming the path and its config key; ctx
# holds the kernel's dimension "d", the "command" and the "values" so far.


def _error(path, message):
    key = re.match(r"[a-z_]+", path)[0]
    return ConfigError(f"{message} (config key {key!r})")


def _rule(want, ok):
    def check(v, path, ctx):
        if not ok(v):
            raise _error(path, f"{path} must be {want}, got {v!r}")
        return v
    return check


def _finite(v):
    # never a bool; the bound fails on NaN, infinities and too large ints
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


_COUNT = _rule("an integer >= 1", lambda v: type(v) is int and v >= 1)
_NONNEGATIVE = _rule("a finite number >= 0", lambda v: _finite(v) and v >= 0)
_POSITIVE = _rule("a finite number > 0", lambda v: _finite(v) and v > 0)
_BOOL = _rule("true or false", lambda v: type(v) is bool)
_WINDOW = _rule("a pair [lo, hi] of finite numbers, lo < hi",
                lambda v: isinstance(v, list) and len(v) == 2
                and all(map(_finite, v)) and v[0] < v[1])


def _choice(*options):
    return _rule("one of " + ", ".join(map(repr, options)),
                 lambda v: v in options)


def _times(least, op):
    return _rule(f"a list of at least {least} finite times {op} 0, "
                 "strictly increasing",
                 lambda v: isinstance(v, list) and len(v) >= least
                 and all(map(_finite, v))
                 and (v[0] > 0 if op == ">" else v[0] >= 0)
                 and all(a < b for a, b in zip(v, v[1:])))


def _site(v, path, ctx):
    return _rule(f"a list of {ctx['d']} integers, one per dimension",
                 lambda v: isinstance(v, list) and len(v) == ctx["d"]
                 and all(type(c) is int for c in v))(v, path, ctx)


def _resolution(v, path, ctx):
    quadrature = (ctx["command"] in ("criterion", "verify-cov")
                  or ctx["command"] == "green"
                  and ctx["values"]["method"] == "fourier_quadrature")
    want = ", a multiple of 8 for the quadrature" if quadrature else ""
    return _rule("null or an integer >= 1" + want,
                 lambda v: v is None or type(v) is int and v >= 1
                 and not (quadrature and v % 8))(v, path, ctx)


def _list_of(item, nonempty=False):
    def check(v, path, ctx):
        if not (isinstance(v, list) and (v or not nonempty)):
            raise _error(path, f"{path} must be a "
                               f"{'non-empty ' * nonempty}list, got {v!r}")
        return [item(x, f"{path}[{i}]", ctx) for i, x in enumerate(v)]
    return check


def _object(fields, required=()):
    def check(v, path, ctx):
        if not isinstance(v, dict):
            raise _error(path, f"{path} must be an object, got {v!r}")
        unknown = [key for key in v if key not in fields]
        missing = [key for key in required if key not in v]
        if unknown or missing:
            raise _error(path, f"unknown {path} key {unknown[0]!r}" if unknown
                         else f"{path} needs key {missing[0]!r}")
        for key, field in fields.items():
            if key in v:
                field(v[key], f"{path}.{key}", ctx)
        return v
    return check


_BCPP = _object({"d": _COUNT, "lambda": _POSITIVE}, required=("d", "lambda"))
_ATOMS = _object({"d": _COUNT, "atoms": _list_of(_object(
    {"p": _NONNEGATIVE, "v": _list_of(_object(
        {"x": _site, "val": _NONNEGATIVE}, required=("x", "val")))},
    required=("p",)))}, required=("d", "atoms"))
_INITIAL = _list_of(_object({"x": _site, "mass": _POSITIVE},
                            required=("x",)), nonempty=True)


def _kernel(v, path, ctx):
    if isinstance(v, dict) and "bcpp" in v:  # {"kernel": {"bcpp": {...}}}
        return _object({"bcpp": _BCPP})(v, path, ctx)
    # the atoms' sites have the dimension the spec states, checked first
    return _ATOMS(v, path, {"d": v.get("d") if isinstance(v, dict) else 0})


def _initial(v, path, ctx):
    return [(tuple(e["x"]), float(e.get("mass", 1.0)))
            for e in _INITIAL(v, path, ctx)]


_TEST_FUNCTIONS = {"one": fk.f_one, "delta0": fk.f_delta0}
_TOLERANCES = {"rel_bounded": _NONNEGATIVE, "rel_quadratic": _NONNEGATIVE,
               "rel_cov": _NONNEGATIVE, "slack": _NONNEGATIVE,
               "slope_window": _WINDOW, "k": _NONNEGATIVE}


# Every config key: (check, default, echo), checked in this order (so
# "method" before "resolution").  A callable default takes the kernel's
# dimension; defaults pass the checks too.  The artifacts echo a key
# "always", only when the config "set"s it, or "never".
_CONFIG = {
    # the kernel: exactly one of the two; the echo holds its atoms instead
    "bcpp": (_BCPP, None, "never"),
    "kernel": (_kernel, None, "never"),
    "initial": (_initial, lambda d: [{"x": [0] * d}], "always"),
    "t": (_NONNEGATIVE, 10.0, "always"),
    "t_grid": (_times(1, ">="), [1.0, 5.0, 10.0], "always"),
    "t_grid_overlap": (_times(2, ">"), [5, 10, 20, 40], "set"),
    "replicas": (_COUNT, 1000, "always"),
    "samples": (_COUNT, 100_000, "always"),
    "seed": (_rule("an integer", lambda v: type(v) is int), 0, "always"),
    "dual": (_BOOL, False, "always"),
    "battery": (_BOOL, False, "always"),
    "max_occupied": (_COUNT, 5_000_000, "always"),
    "f": (_choice(*_TEST_FUNCTIONS), "one", "always"),
    "method": (_choice("fourier_quadrature", "truncated_solve"),
               "fourier_quadrature", "always"),
    "resolution": (_resolution, None, "always"),
    "offsets": (_list_of(_site), [], "always"),
    "a": (_site, lambda d: [0] * d, "set"),
    "b": (_site, lambda d: [0] * d, "set"),
    "box_radius": (_COUNT, 6, "always"),
    "tolerances": (_object(_TOLERANCES), {}, "always"),
    # environmental, not semantic: keeping them out of the echo makes
    # artifacts byte-identical across worker counts and working directories
    "threads": (_COUNT, 1, "never"),
    "output_dir": (_rule("a string or null",
                         lambda v: v is None or type(v) is str),
                   None, "never"),
}


@dataclasses.dataclass
class RunConfig:
    kernel: Kernel
    values: dict
    echo: dict  # the values the artifacts echo

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name)

    def resolved(self):
        return {**self.echo, "kernel": self.kernel.to_dict(),
                "format_version": FORMAT_VERSION}


def parse_config(source, command=None, overrides=None) -> RunConfig:
    """Load and check a config from a file path, inline JSON text or a
    dict, for the subcommand ``command`` (the resolution rule depends on
    it); ``overrides`` are checked like the config's keys and win."""
    obj = source
    if not isinstance(source, dict):
        if os.path.exists(source):
            with open(source) as fh:
                source = fh.read()
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    overrides = overrides or {}
    for key in (*obj, *overrides):
        if key not in _CONFIG:
            raise ConfigError(f"unknown config key {key!r}")
    if ("bcpp" in obj) == ("kernel" in obj):
        raise ConfigError("config needs exactly one of a 'kernel' object "
                          "and the 'bcpp' shorthand")
    key = "bcpp" if "bcpp" in obj else "kernel"
    _CONFIG[key][0](obj[key], key, {})
    try:
        kernel = Kernel.from_dict(obj.get("kernel", obj))
    except KernelError as e:
        # the checks leave only the atom probabilities to the kernel
        raise ConfigError(f"{key}: atoms[*].p invalid: {e}")
    ctx = {"d": kernel.d, "command": command, "values": {}}
    values, echo = ctx["values"], {}
    for key, (check, default, echoed) in _CONFIG.items():
        if key in ("bcpp", "kernel"):
            continue
        given = [src[key] for src in (obj, overrides) if key in src]
        if callable(default):
            default = default(kernel.d)
        for value in given or [default]:
            values[key] = check(value, key, ctx)
        if echoed == "always" or echoed == "set" and given:
            echo[key] = values[key]
    return RunConfig(kernel=kernel, values=values, echo=echo)


def _emit(obj, path=None):
    text = json.dumps(stats._jsonable(obj), indent=2, sort_keys=True,
                      allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _out_path(cfg, name):
    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        return os.path.join(cfg.output_dir, name)


def _emit_diagnostics(cfg, summary):
    """diagnostics.json beside the artifacts: what the ensemble pass did and
    the library versions its streams depend on; no wall time, so its bytes
    are as deterministic as the payload's."""
    path = _out_path(cfg, "diagnostics.json")
    if path:
        import scipy  # the top level only: no submodule loads
        _emit({"events": summary.diagnostics["events"],
               "truncated": summary.truncated,
               "numpy": np.__version__, "scipy": scipy.__version__}, path)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate_kernel(cfg):
    rep = validate_kernel(cfg.kernel)
    _emit({"config": cfg.resolved(), "report": {
        **dataclasses.asdict(rep),
        "violations": [list(map(str, v)) for v in rep.violations]}},
          _out_path(cfg, "validate_kernel.json"))
    return 0


def _cmd_criterion(cfg):
    value, ok = walk_mod.survival_criterion(cfg.kernel, resolution=cfg.resolution)
    _emit({"config": cfg.resolved(), "criterion": value, "satisfied": ok},
          _out_path(cfg, "criterion.json"))
    return 0


def _cmd_green(cfg):
    tab = walk_mod.green(walk_mod.walk_from_kernel(cfg.kernel), cfg.offsets,
                         cfg.method, cfg.resolution)
    _emit({"config": cfg.resolved(),
           "g": {str(list(x)): v for x, v in tab.values.items()},
           "pi_d": tab.pi_d, "criterion": tab.criterion_value,
           "h": {str(list(x)): v for x, v in tab.h_values.items()},
           "error_estimate": tab.error_estimate, "method": tab.method,
           "resolution": tab.resolution},
          _out_path(cfg, "green.json"))
    return 0


def _ensemble(cfg, battery=None):
    return engine.run_ensemble(
        cfg.kernel, cfg.initial, cfg.t_grid, cfg.replicas, cfg.seed,
        dual=cfg.dual, threads=cfg.threads, max_occupied=cfg.max_occupied,
        battery=battery)


def _cmd_simulate(cfg):
    summary = _ensemble(cfg, stats.default_battery if cfg.battery else None)
    _emit({**summary.to_dict(), "config": cfg.resolved()},
          _out_path(cfg, "summary.json"))
    _emit_diagnostics(cfg, summary)
    csv_path = _out_path(cfg, "trajectories.csv")
    if csv_path:
        d = cfg.kernel.d
        cols = (["replica", "t", "normalized_total", "rho_star", "overlap",
                 "occupied", "extinct"]
                + [f"m1_{i + 1}" for i in range(d)]
                + [f"m2_{i + 1}{j + 1}" for i in range(d) for j in range(d)])
        rows = summary.rows
        col = rows.names.index
        head = [col(n) for n in ("normalized_total", "rho_star", "overlap")]
        occupied = col("occupied")
        moments = ([col(f"m1_{i}") for i in range(d)]
                   + [col(f"m2_{i}{j}") for i in range(d) for j in range(d)])
        with open(csv_path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for r, n in enumerate(rows.recorded):
                for j in range(n):
                    v = rows.values[r, j]
                    # plain Python numbers: repr() of a numpy scalar is not a number
                    row = ([r, float(rows.t[r, j])] + [float(v[i]) for i in head]
                           + [int(v[occupied]), int(v[occupied] == 0)]
                           + [float(v[i]) for i in moments])
                    fh.write(",".join(repr(x) for x in row) + "\n")
    return 0


def _cmd_oracle_two_point(cfg):
    sol = fk.oracle_two_point(cfg.kernel, cfg.initial, cfg.t, cfg.box_radius)
    _emit({"config": cfg.resolved(), "t": cfg.t, "radius": sol.radius,
           "sites": [list(s) for s in sol.sites],
           "u": sol.u[-1].tolist(), "boundary_leak": sol.boundary_leak},
          _out_path(cfg, "oracle_two_point.json"))
    return 0


def _hill_index_theory(kernel):
    """2/(kappa_2 G(0)), the plain weight's Pareto tail index in theory,
    from one G(0)-only quadrature; None for d <= 2 (G(0) diverges) and for
    a walk that never jumps (no tail), which covers kappa_2 = 0: only
    K = delta_0 has it."""
    if kernel.d <= 2:
        return None
    try:
        walk = walk_mod.walk_from_kernel(kernel)
    except walk_mod.DegenerateWalkError:
        return None
    return 2.0 / (walk.kappa2 * walk_mod.green(walk).g0)


def _cmd_fk3(cfg):
    res = fk.fk3_estimate(cfg.kernel, cfg.initial, cfg.t,
                          _TEST_FUNCTIONS[cfg.f], cfg.samples, cfg.seed)
    _emit({"config": cfg.resolved(), "value": res.value,
           "standard_error": res.standard_error, "samples": res.samples,
           "hill_index": res.metadata["hill_index"],
           "hill_index_theory": _hill_index_theory(cfg.kernel)},
          _out_path(cfg, "fk3.json"))
    return 0


def _report(cfg, name, results):
    results = results if isinstance(results, list) else [results]
    _emit({"config": cfg.resolved(),
           "checks": [r.to_dict() for r in results]},
          _out_path(cfg, f"{name}.json"))
    return int(any(not r.passed and not r.skipped for r in results))


def _cmd_verify_martingale(cfg):
    summary = _ensemble(cfg)
    _emit_diagnostics(cfg, summary)
    return _report(cfg, "verify_martingale", stats.martingale_check(
        summary, **_tolerances(cfg, k="k")))


def _tolerances(cfg, **args):
    """The tolerances the config sets, keyed by the check's argument names;
    the others keep the check's own defaults."""
    return {arg: cfg.tolerances[key] for key, arg in args.items()
            if key in cfg.tolerances}


def _cmd_verify_clt(cfg):
    results = stats.clt_check(
        _ensemble(cfg, stats.default_battery), cfg.kernel, **_tolerances(
            cfg, rel_bounded="rel_tol_bounded",
            rel_quadratic="rel_tol_quadratic", k="k"))
    return _report(cfg, "verify_clt", results)


def _cmd_verify_cov(cfg):
    res = stats.covariance_limit_check(
        cfg.kernel, cfg.a, cfg.b, cfg.t, cfg.samples, cfg.seed,
        resolution=cfg.resolution, **_tolerances(cfg, rel_cov="rel_tol", k="k"))
    return _report(cfg, "verify_cov", res)


def _cmd_verify_overlap(cfg):
    res = stats.overlap_decay_check(
        cfg.kernel, cfg.t_grid_overlap, cfg.samples, cfg.seed,
        initial=cfg.initial, **_tolerances(cfg, slack="slack", k="k",
                                           slope_window="slope_window"))
    return _report(cfg, "verify_overlap", res)


# `_cmd_verify_cov` runs `linsys verify-cov`, and so on
_COMMANDS = {name[5:].replace("_", "-"): command
             for name, command in list(globals().items())
             if name.startswith("_cmd_")}


def dispatch(subcommand, cfg: RunConfig) -> int:
    if subcommand not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    return _COMMANDS[subcommand](cfg)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="linsys",
        description="Simulator and verification toolkit for linear "
                    "interacting particle systems on Z^d")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to a JSON config, or inline JSON")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int,
                        help="worker cap; does not affect results")
    parser.add_argument("--output-dir")
    args = parser.parse_args(argv)

    overrides = {key: v for key, v in vars(args).items()
                 if key in ("seed", "threads", "output_dir") and v is not None}
    try:
        env = os.environ.get("LINSYS_THREADS")
        if args.threads is None and env is not None:
            try:
                overrides["threads"] = int(env)
            except ValueError:
                raise ConfigError(
                    f"LINSYS_THREADS must be an integer, got {env!r}")
        return dispatch(args.subcommand, parse_config(
            args.config, args.subcommand, overrides))
    except (ConfigError, walk_mod.WalkError, fk.FeynmanKacError,
            engine.EngineError, KernelError) as e:
        config = isinstance(e, ConfigError)
        json.dump({"error": "config" if config else type(e).__name__,
                   "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if config else 3


if __name__ == "__main__":
    sys.exit(main())
