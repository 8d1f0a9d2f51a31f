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
import sys

import numpy as np
import scipy

from . import engine, feynman_kac as fk, stats, walk as walk_mod
from .kernel import Kernel, KernelError, make_bcpp_kernel, validate_kernel

FORMAT_VERSION = "linsys-cli-1"


class ConfigError(ValueError):
    pass


_ALLOWED_KEYS = {
    "kernel": dict, "bcpp": dict, "initial": list, "t_grid": list,
    "t": (int, float), "replicas": int, "samples": int, "seed": int,
    "dual": bool, "threads": int, "max_occupied": int,
    "method": str, "resolution": int, "offsets": list, "box_radius": int,
    "f": str, "a": list, "b": list, "t_grid_overlap": list,
    "tolerances": dict, "output_dir": str, "battery": bool,
}

_DEFAULTS = {
    "t_grid": [1.0, 5.0, 10.0],
    "replicas": 1000,
    "samples": 100_000,
    "seed": 0,
    "dual": False,
    "threads": 1,
    "max_occupied": 5_000_000,
    "method": "fourier_quadrature",
    "resolution": None,
    "offsets": [],
    "box_radius": 6,
    "f": "one",
    "t": 10.0,
    "tolerances": {},
    "output_dir": None,
    "battery": False,
}

_TOLERANCE_KEYS = {"rel_bounded", "rel_quadratic", "rel_cov", "slack",
                   "slope_window", "k"}

# least values of the numeric keys: counts are >= 1, the horizon >= 0
_LEAST = {"samples": 1, "replicas": 1, "resolution": 1, "box_radius": 1,
          "max_occupied": 1, "threads": 1, "t": 0}


@dataclasses.dataclass
class RunConfig:
    kernel: Kernel
    values: dict

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name)

    def resolved(self):
        # output_dir and threads are environmental, not semantic: keeping
        # them out of the echo makes artifacts byte-identical across working
        # directories and worker counts
        out = {k: v for k, v in self.values.items()
               if k not in ("output_dir", "threads")}
        out["kernel"] = self.kernel.to_dict()
        out["format_version"] = FORMAT_VERSION
        return out


def parse_config(source) -> RunConfig:
    """Load and validate a config from a file path or inline JSON text."""
    if isinstance(source, dict):
        obj = source
    else:
        text = source
        if os.path.exists(source):
            with open(source) as fh:
                text = fh.read()
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")

    for key, val in obj.items():
        if key not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        want = _ALLOWED_KEYS[key]
        if key == "resolution" and val is None:
            continue
        if not isinstance(val, want) or isinstance(val, bool) and want is int:
            raise ConfigError(
                f"config key {key!r} must be {getattr(want, '__name__', want)}")
        # "not >=" also rejects NaN
        if key in _LEAST and not val >= _LEAST[key]:
            raise ConfigError(f"config key {key!r} must be >= {_LEAST[key]}, "
                              f"got {val!r}")
    if "t_grid" in obj:
        _check_times("t_grid", obj["t_grid"], 1, positive=False)
    if "t_grid_overlap" in obj:
        _check_times("t_grid_overlap", obj["t_grid_overlap"], 2, positive=True)
    for key in obj.get("tolerances", {}):
        if key not in _TOLERANCE_KEYS:
            raise ConfigError(f"unknown tolerances key {key!r}")

    kernel = _parse_kernel(obj)
    values = dict(_DEFAULTS)
    for key, val in obj.items():
        if key in ("kernel", "bcpp"):
            continue
        values[key] = val
    values["initial"] = _parse_initial(obj.get("initial"), kernel.d)
    for i, x in enumerate(obj.get("offsets", [])):
        _check_site(f"offsets[{i}]", x, kernel.d)
    for key in ("a", "b"):
        if key in obj:
            _check_site(key, obj[key], kernel.d)
    return RunConfig(kernel=kernel, values=values)


def _check_times(key, times, least, positive):
    ok = (len(times) >= least
          and all(type(t) in (int, float) and (t > 0 if positive else t >= 0)
                  for t in times)
          and all(a < b for a, b in zip(times, times[1:])))
    if not ok:
        raise ConfigError(
            f"config key {key!r} must hold at least {least} times "
            f"{'> 0' if positive else '>= 0'}, strictly increasing, "
            f"got {times!r}")


def _check_site(name, x, d):
    if not (isinstance(x, list) and len(x) == d
            and all(type(c) is int for c in x)):
        raise ConfigError(f"{name} must be a list of {d} integers, got {x!r}")


def _parse_kernel(obj) -> Kernel:
    if "bcpp" in obj:
        spec = obj["bcpp"]
        for key in spec:
            if key not in ("d", "lambda"):
                raise ConfigError(f"unknown bcpp key {key!r}")
        try:
            return make_bcpp_kernel(spec["d"], spec["lambda"])
        except KeyError as e:
            raise ConfigError(f"bcpp shorthand missing key {e}")
        except KernelError as e:
            raise ConfigError(str(e))
    if "kernel" not in obj:
        raise ConfigError("config needs a 'kernel' object or 'bcpp' shorthand")
    spec = obj["kernel"]
    for key in spec:
        if key not in ("d", "atoms", "bcpp"):
            raise ConfigError(f"unknown kernel key {key!r}")
    try:
        return Kernel.from_dict(spec)
    except KernelError as e:
        msg = str(e)
        if "probabilities sum" in msg:
            raise ConfigError(f"atoms[*].p invalid: {msg}")
        raise ConfigError(msg)
    except (KeyError, TypeError) as e:
        raise ConfigError(f"malformed kernel spec: {e}")


def _parse_initial(entries, d):
    if not entries:
        return [(tuple([0] * d), 1.0)]
    out = []
    for i, ent in enumerate(entries):
        if not isinstance(ent, dict) or set(ent) - {"x", "mass"}:
            raise ConfigError(f"initial[{i}] must be {{'x': [...], 'mass': m}}")
        x = tuple(int(c) for c in ent["x"])
        if len(x) != d:
            raise ConfigError(f"initial[{i}].x has dimension {len(x)}, kernel has {d}")
        m = float(ent.get("mass", 1.0))
        if m <= 0:
            raise ConfigError(f"initial[{i}].mass must be > 0")
        out.append((x, m))
    return out


def _emit(obj, path=None):
    text = json.dumps(stats._jsonable(obj), indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _out_path(cfg, name):
    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        return os.path.join(cfg.output_dir, name)
    return None


def _emit_diagnostics(cfg, summary):
    """diagnostics.json beside the artifacts: what the ensemble pass did and
    the library versions its streams depend on; no wall time, so its bytes
    are as deterministic as the payload's."""
    path = _out_path(cfg, "diagnostics.json")
    if path:
        _emit({"events": summary.diagnostics["events"],
               "truncated": summary.truncated,
               "numpy": np.__version__, "scipy": scipy.__version__}, path)


def _named_f(name):
    if name == "one":
        return fk.f_one
    if name == "delta0":
        return fk.f_delta0
    raise ConfigError(f"unknown test function {name!r} (use 'one' or 'delta0')")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate_kernel(cfg):
    rep = validate_kernel(cfg.kernel)
    _emit({"config": cfg.resolved(),
           "report": {
               "k1_spanning": rep.k1_spanning,
               "k4_orthogonal": rep.k4_orthogonal,
               "strong_k4": rep.strong_k4,
               "offdiag_gamma_nonnegative": rep.offdiag_gamma_nonnegative,
               "violations": [list(map(str, v)) for v in rep.violations]}},
          _out_path(cfg, "validate_kernel.json"))
    return 0


def _cmd_criterion(cfg):
    value, ok = walk_mod.survival_criterion(cfg.kernel, resolution=cfg.resolution)
    _emit({"config": cfg.resolved(), "criterion": value, "satisfied": ok},
          _out_path(cfg, "criterion.json"))
    return 0


def _cmd_green(cfg):
    w = walk_mod.walk_from_kernel(cfg.kernel)
    tab = walk_mod.green(w, offsets=[tuple(x) for x in cfg.offsets],
                         method=cfg.method, resolution=cfg.resolution)
    _emit({"config": cfg.resolved(),
           "g": {str(list(x)): v for x, v in tab.values.items()},
           "pi_d": tab.pi_d, "criterion": tab.criterion_value,
           "h": {str(list(x)): v for x, v in tab.h_values.items()},
           "error_estimate": tab.error_estimate, "method": tab.method,
           "resolution": tab.resolution},
          _out_path(cfg, "green.json"))
    return 0


def _cmd_simulate(cfg):
    battery = stats.default_battery if cfg.battery else None
    summary = engine.run_ensemble(
        cfg.kernel, cfg.initial, cfg.t_grid, cfg.replicas, cfg.seed,
        dual=cfg.dual, threads=cfg.threads, max_occupied=cfg.max_occupied,
        battery=battery)
    out = summary.to_dict()
    out["config"] = cfg.resolved()
    _emit(out, _out_path(cfg, "summary.json"))
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
    u = sol.u[-1]
    _emit({"config": cfg.resolved(), "t": cfg.t, "radius": sol.radius,
           "sites": [list(s) for s in sol.sites],
           "u": u.tolist(), "boundary_leak": sol.boundary_leak},
          _out_path(cfg, "oracle_two_point.json"))
    return 0


def _cmd_fk3(cfg):
    res = fk.fk3_estimate(cfg.kernel, cfg.initial, cfg.t, _named_f(cfg.f),
                          cfg.samples, cfg.seed)
    _emit({"config": cfg.resolved(), "value": res.value,
           "standard_error": res.standard_error, "samples": res.samples,
           "hill_index": res.metadata["hill_index"]},
          _out_path(cfg, "fk3.json"))
    return 0


def _report(cfg, name, results):
    results = results if isinstance(results, list) else [results]
    failed = [r for r in results if not r.passed and not r.skipped]
    _emit({"config": cfg.resolved(),
           "checks": [r.to_dict() for r in results]},
          _out_path(cfg, f"{name}.json"))
    return 1 if failed else 0


def _cmd_verify_martingale(cfg):
    summary = engine.run_ensemble(cfg.kernel, cfg.initial, cfg.t_grid,
                                  cfg.replicas, cfg.seed, dual=cfg.dual,
                                  threads=cfg.threads,
                                  max_occupied=cfg.max_occupied)
    _emit_diagnostics(cfg, summary)
    return _report(cfg, "verify_martingale", stats.martingale_check(summary))


def _tolerances(cfg, **args):
    """The tolerances the config sets, keyed by the check's argument names;
    the others keep the check's own defaults."""
    return {arg: cfg.tolerances[key] for key, arg in args.items()
            if key in cfg.tolerances}


def _cmd_verify_clt(cfg):
    summary = engine.run_ensemble(cfg.kernel, cfg.initial, cfg.t_grid,
                                  cfg.replicas, cfg.seed, dual=cfg.dual,
                                  threads=cfg.threads,
                                  max_occupied=cfg.max_occupied,
                                  battery=stats.default_battery)
    results = stats.clt_check(summary, cfg.kernel, **_tolerances(
        cfg, rel_bounded="rel_tol_bounded", rel_quadratic="rel_tol_quadratic",
        k="k"))
    return _report(cfg, "verify_clt", results)


def _cmd_verify_cov(cfg):
    a = tuple(cfg.values.get("a") or [0] * cfg.kernel.d)
    b = tuple(cfg.values.get("b") or [0] * cfg.kernel.d)
    res = stats.covariance_limit_check(
        cfg.kernel, a, b, cfg.t, cfg.samples, cfg.seed,
        resolution=cfg.resolution, **_tolerances(cfg, rel_cov="rel_tol", k="k"))
    return _report(cfg, "verify_cov", res)


def _cmd_verify_overlap(cfg):
    res = stats.overlap_decay_check(
        cfg.kernel, cfg.values.get("t_grid_overlap") or [5, 10, 20, 40],
        cfg.samples, cfg.seed, initial=cfg.initial, **_tolerances(
            cfg, slack="slack", slope_window="slope_window", k="k"))
    return _report(cfg, "verify_overlap", res)


_COMMANDS = {
    "validate-kernel": _cmd_validate_kernel,
    "criterion": _cmd_criterion,
    "green": _cmd_green,
    "simulate": _cmd_simulate,
    "oracle-two-point": _cmd_oracle_two_point,
    "fk3": _cmd_fk3,
    "verify-martingale": _cmd_verify_martingale,
    "verify-clt": _cmd_verify_clt,
    "verify-cov": _cmd_verify_cov,
    "verify-overlap": _cmd_verify_overlap,
}


def dispatch(subcommand, cfg: RunConfig) -> int:
    command = _COMMANDS.get(subcommand)
    if command is None:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    return command(cfg)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="linsys",
        description="Simulator and verification toolkit for linear "
                    "interacting particle systems on Z^d")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to a JSON config, or inline JSON")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker cap; does not affect results")
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.values["seed"] = args.seed
        if args.threads is not None:
            cfg.values["threads"] = args.threads
        elif "LINSYS_THREADS" in os.environ:
            env = os.environ["LINSYS_THREADS"]
            try:
                cfg.values["threads"] = int(env)
            except ValueError:
                raise ConfigError(
                    f"LINSYS_THREADS must be an integer, got {env!r}")
        if cfg.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
        if args.output_dir is not None:
            cfg.values["output_dir"] = args.output_dir
        return dispatch(args.subcommand, cfg)
    except ConfigError as e:
        json.dump({"error": "config", "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (walk_mod.WalkError, fk.FeynmanKacError, engine.EngineError,
            KernelError) as e:
        json.dump({"error": type(e).__name__, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
