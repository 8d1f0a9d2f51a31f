import json
import os
import subprocess
import sys

import numpy
import pytest
import scipy

from linsys import cli, engine
from linsys.cli import ConfigError, main, parse_config


BASE = {"bcpp": {"d": 3, "lambda": 1.0},
        "initial": [{"x": [0, 0, 0], "mass": 1}],
        "t_grid": [1, 5, 10], "replicas": 10000, "seed": 42}


def test_parse_spec_example():
    cfg = parse_config(json.dumps(BASE))
    assert cfg.kernel.d == 3
    assert cfg.replicas == 10000 and cfg.seed == 42
    assert cfg.initial == [((0, 0, 0), 1.0)]
    resolved = cfg.resolved()
    assert resolved["format_version"] and "kernel" in resolved


def test_parse_rejects_bad_probabilities():
    spec = {"kernel": {"d": 1, "atoms": [
        {"p": 0.5, "v": []}, {"p": 0.4, "v": [{"x": [0], "val": 1.0}]}]}}
    with pytest.raises(ConfigError, match=r"atoms\[\*\]\.p"):
        parse_config(json.dumps(spec))


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key 'replicaz'"):
        parse_config(json.dumps({**BASE, "replicaz": 3}))


def test_parse_rejects_unknown_kernel_key():
    with pytest.raises(ConfigError, match="unknown bcpp key"):
        parse_config(json.dumps({"bcpp": {"d": 3, "lambda": 1, "mu": 2}}))


def test_parse_dimension_mismatch():
    bad = {**BASE, "initial": [{"x": [0, 0], "mass": 1}]}
    with pytest.raises(ConfigError, match="dimension"):
        parse_config(json.dumps(bad))


def test_cli_criterion(capsys):
    rc = main(["criterion", json.dumps({"bcpp": {"d": 3, "lambda": 1.0}})])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["criterion"] - 0.8846) < 1e-3
    assert out["satisfied"] is True


def test_cli_validate_kernel(capsys):
    rc = main(["validate-kernel", json.dumps({"bcpp": {"d": 3, "lambda": 1.0}})])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert all(rep[k] for k in ("k1_spanning", "k4_orthogonal", "strong_k4",
                                "offdiag_gamma_nonnegative"))


def test_cli_green_d2_recurrent(capsys):
    rc = main(["green", json.dumps({"bcpp": {"d": 2, "lambda": 1.0}})])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert "recurrent" in err["message"]


def test_cli_green_output(capsys, tmp_path):
    cfg = {"bcpp": {"d": 3, "lambda": 1.0}, "offsets": [[1, 0, 0]],
           "output_dir": str(tmp_path)}
    rc = main(["green", json.dumps(cfg)])
    assert rc == 0
    out = json.loads((tmp_path / "green.json").read_text())
    assert abs(out["g"]["[0, 0, 0]"] - 1.7691) < 1e-3
    assert abs(out["pi_d"] - 0.3405) < 1e-3
    assert out["error_estimate"] < 1e-2
    assert "[1, 0, 0]" in out["h"]


def test_cli_simulate_deterministic(tmp_path):
    cfg = {"bcpp": {"d": 3, "lambda": 1.0},
           "initial": [{"x": [0, 0, 0], "mass": 1}],
           "t_grid": [0.5, 1.5], "replicas": 300, "seed": 9}
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        rc = main(["simulate", json.dumps(cfg), "--output-dir", str(d)])
        assert rc == 0
        outs.append(((d / "summary.json").read_bytes(),
                     (d / "trajectories.csv").read_bytes()))
    assert outs[0] == outs[1]
    header = outs[0][1].decode().splitlines()[0]
    assert header.startswith("replica,t,normalized_total,rho_star,overlap,"
                             "occupied,extinct,m1_1")


def test_cli_simulate_thread_independence(tmp_path):
    cfg = {"bcpp": {"d": 3, "lambda": 1.0},
           "initial": [{"x": [0, 0, 0], "mass": 1}],
           "t_grid": [1.0], "replicas": 300, "seed": 5}
    blobs = []
    for threads, sub in ((1, "t1"), (2, "t2")):
        d = tmp_path / sub
        rc = main(["simulate", json.dumps(cfg), "--threads", str(threads),
                   "--output-dir", str(d)])
        assert rc == 0
        blobs.append(((d / "summary.json").read_bytes(),
                      (d / "trajectories.csv").read_bytes(),
                      (d / "diagnostics.json").read_bytes()))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("command, artifact", [
    ("simulate", "summary.json"),
    ("verify-martingale", "verify_martingale.json"),
])
def test_cli_dual_diagnostics_beside_artifacts(tmp_path, command, artifact):
    # diagnostics.json holds counts and library versions, no wall time, so
    # its bytes are as deterministic as the artifact beside it
    cfg = {"bcpp": {"d": 3, "lambda": 1.0}, "t_grid": [1.0, 2.0],
           "replicas": 150, "seed": 8, "dual": True, "max_occupied": 12}
    blobs = []
    for threads, sub in ((1, "t1"), (2, "t2"), (1, "rerun")):
        d = tmp_path / sub
        main([command, json.dumps(cfg), "--threads", str(threads),
              "--output-dir", str(d)])
        blobs.append(((d / artifact).read_bytes(),
                      (d / "diagnostics.json").read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]
    diag = json.loads(blobs[0][1])
    assert diag == {"events": diag["events"], "truncated": diag["truncated"],
                    "numpy": numpy.__version__, "scipy": scipy.__version__}
    assert diag["events"] > 0 and diag["truncated"] > 0
    assert "diagnostics" not in json.loads(blobs[0][0])


def _reference_csv_rows(cfg):
    # one trajectory per replica, recorded the way the ensemble records it
    kernel = parse_config(json.dumps(cfg)).kernel
    lines = []
    for r in range(cfg["replicas"]):
        st = engine.init_state(kernel, [((0, 0, 0), 1.0)],
                               seed=engine.replica_seed(cfg["seed"], r))
        st.max_occupied = cfg["max_occupied"]
        prev = 0.0
        for t in cfg["t_grid"]:
            st.advance(t - prev)
            prev = t
            if st.truncated:
                break
            rec = engine.observables(st)
            row = ([r, rec.t, rec.normalized_total, rec.rho_star, rec.overlap,
                    rec.occupied, int(rec.extinct)]
                   + rec.weighted_moment_1.tolist()
                   + rec.weighted_moment_2.ravel().tolist())
            lines.append(",".join(repr(v) for v in row))
    return lines


@pytest.mark.parametrize("threads", [1, 2])
def test_cli_simulate_csv_matches_per_replica_reference(tmp_path, threads):
    cfg = {"bcpp": {"d": 3, "lambda": 1.0},
           "initial": [{"x": [0, 0, 0], "mass": 1}],
           "t_grid": [1.0, 3.0, 6.0], "replicas": 40, "seed": 5,
           "max_occupied": 8, "battery": True}
    rc = main(["simulate", json.dumps(cfg), "--threads", str(threads),
               "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()[1:]
    expected = _reference_csv_rows(cfg)
    assert lines == expected
    per_replica = [sum(row.startswith(f"{r},") for row in expected)
                   for r in range(40)]
    truncated = json.loads((tmp_path / "summary.json").read_text())["truncated"]
    assert truncated == sum(n < 3 for n in per_replica)
    assert any(0 < n < 3 for n in per_replica)  # a truncated row prefix


def test_cli_simulate_runs_each_replica_once(tmp_path, monkeypatch):
    calls = []
    init_state = engine.init_state

    def counting(*args, **kwargs):
        calls.append(1)
        return init_state(*args, **kwargs)

    monkeypatch.setattr(engine, "init_state", counting)
    cfg = {"bcpp": {"d": 3, "lambda": 1.0}, "t_grid": [0.5, 1.0],
           "replicas": 25, "seed": 2}
    rc = main(["simulate", json.dumps(cfg), "--threads", "1",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 25
    assert len((tmp_path / "trajectories.csv").read_text().splitlines()) == 51


@pytest.mark.parametrize("command", ["verify-martingale", "verify-clt"])
def test_cli_checks_fail_on_truncated_replicas(tmp_path, command):
    cfg = {"bcpp": {"d": 3, "lambda": 1.0}, "t_grid": [6.0], "replicas": 40,
           "seed": 5, "max_occupied": 8, "output_dir": str(tmp_path)}
    assert main([command, json.dumps(cfg)]) == 1
    name = command.replace("-", "_")
    checks = json.loads((tmp_path / f"{name}.json").read_text())["checks"]
    assert checks and all(not c["passed"] and c["notes"]["truncated"] > 0
                          for c in checks)


def test_cli_simulate_csv_cells_are_numbers(tmp_path):
    cfg = {"bcpp": {"d": 2, "lambda": 1.0},
           "initial": [{"x": [0, 0], "mass": 1}],
           "t_grid": [0.5, 2.0], "replicas": 20, "seed": 3}
    rc = main(["simulate", json.dumps(cfg), "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = [row.split(",") for row in
            (tmp_path / "trajectories.csv").read_text().splitlines()[1:]]
    assert len(rows) == 40
    values = [[float(v) for v in row] for row in rows]  # "np.float64(..)" raises
    assert any(v != 0.0 for row in values for v in row[7:])  # moment columns


# the subcommands that never call scipy's numerical submodules, with tiny
# configs; simulate writes diagnostics.json, which names scipy's version
_SCIPY_FREE_RUNS = [
    ("simulate", {"t_grid": [0.5], "replicas": 20}),
    ("verify-clt", {"t_grid": [0.5, 1.0], "replicas": 50}),
    ("fk3", {"bcpp": {"d": 1, "lambda": 1.0}, "t": 0.5, "samples": 1000}),
    ("verify-overlap", {"t_grid_overlap": [1, 2], "samples": 2000}),
    ("criterion", {}),
    ("green", {"offsets": [[1, 0, 0]], "method": "fourier_quadrature"}),
]

_IMPORT_GUARD = """
import json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import linsys
from linsys import cli
runs = json.loads(sys.argv[2])
codes = []
with tempfile.TemporaryDirectory() as out:
    for i, (command, cfg) in enumerate(runs):
        codes.append(cli.main([command, json.dumps(cfg), "--threads", "1",
                               "--output-dir", os.path.join(out, str(i))]))
heavy = ["scipy.fft", "scipy.sparse", "scipy.integrate", "scipy.optimize",
         "scipy.special", "scipy.stats"]
print(json.dumps({"codes": codes,
                  "loaded": [m for m in heavy if m in sys.modules]}))
"""


def test_scipy_free_subcommands_load_no_scipy_submodule():
    # a fresh interpreter, so modules imported by other tests do not count
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    runs = [(command, {"bcpp": {"d": 3, "lambda": 1.0}, "seed": 1, **cfg})
            for command, cfg in _SCIPY_FREE_RUNS]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, src,
                           json.dumps(runs)],
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert all(code in (0, 1) for code in result["codes"]), result
    assert result["loaded"] == []


def test_cli_seed_override(capsys):
    cfg = {"bcpp": {"d": 3, "lambda": 1.0}, "t_grid": [1.0], "replicas": 50}
    rc = main(["simulate", json.dumps(cfg), "--seed", "123"])
    out1 = json.loads(capsys.readouterr().out)
    rc = main(["simulate", json.dumps(cfg), "--seed", "124"])
    out2 = json.loads(capsys.readouterr().out)
    assert out1["config"]["seed"] == 123
    assert out1["stats"] != out2["stats"]


def test_cli_fk3(capsys):
    cfg = {"bcpp": {"d": 1, "lambda": 1.0}, "t": 0.5, "samples": 20000,
           "seed": 3, "f": "one"}
    rc = main(["fk3", json.dumps(cfg)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 1.475) < 0.02
    assert out["standard_error"] > 0
    # the 200 largest weights tie (paths that never leave the origin), so
    # the index is infinite: no tail seen, written as null
    assert out["hill_index"] is None and "trimmed_value" not in out
    # d <= 2: G(0) diverges, so there is no theory index
    assert out["hill_index_theory"] is None


@pytest.mark.parametrize("kernel, theory", [
    # 2/(kappa_2 G(0)) = 1/criterion, criterion 0.8846 for BCPP d=3 lambda=1
    ({"bcpp": {"d": 3, "lambda": 1.0}}, 1 / 0.8846),
    # kappa_2 = 0: the identity kernel
    ({"kernel": {"d": 3, "atoms": [
        {"p": 1.0, "v": [{"x": [0, 0, 0], "val": 1.0}]}]}}, None),
    # a walk that never jumps, with kappa_2 > 0
    ({"kernel": {"d": 3, "atoms": [
        {"p": 0.5, "v": []},
        {"p": 0.5, "v": [{"x": [0, 0, 0], "val": 2.0}]}]}}, None),
], ids=["bcpp3", "kappa2-zero", "frozen-walk"])
def test_cli_fk3_hill_index_theory(capsys, kernel, theory):
    cfg = {**kernel, "t": 0.5, "samples": 200, "seed": 1}
    assert main(["fk3", json.dumps(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    if theory is None:
        assert out["hill_index_theory"] is None
    else:
        assert abs(out["hill_index_theory"] - theory) < 1e-3


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("cfg", [
    # the README example: paths that never leave the origin tie the largest
    # weights, so the Hill index is infinite
    {"bcpp": {"d": 1, "lambda": 1.0}, "t": 0.5, "samples": 200000,
     "f": "delta0"},
    # a frozen walk draws no sample, so the index is NaN
    {"kernel": {"d": 1, "atoms": [{"p": 0.5, "v": []},
                                  {"p": 0.5, "v": [{"x": [0], "val": 2.0}]}]},
     "t": 1.0, "samples": 100},
], ids=["tied-maxima", "frozen-walk"])
def test_cli_fk3_artifact_is_strict_json(capsys, cfg):
    assert main(["fk3", json.dumps(cfg)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert out["hill_index"] is None


def test_cli_oracle(capsys):
    cfg = {"bcpp": {"d": 1, "lambda": 1.0}, "t": 0.5, "box_radius": 4}
    rc = main(["oracle-two-point", json.dumps(cfg)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["radius"] == 4
    assert out["boundary_leak"][0] < 1e-3
    i0 = out["sites"].index([0])
    assert abs(out["u"][i0][i0] - 0.9214) < 1e-3


def test_cli_verify_martingale(capsys, tmp_path):
    cfg = {"bcpp": {"d": 3, "lambda": 1.0}, "t_grid": [1.0, 2.0],
           "replicas": 2000, "seed": 0, "output_dir": str(tmp_path)}
    rc = main(["verify-martingale", json.dumps(cfg)])
    assert rc == 0
    rep = json.loads((tmp_path / "verify_martingale.json").read_text())
    assert rep["checks"][0]["passed"]


def test_cli_verify_martingale_tests_with_config_k(tmp_path):
    # the check runs with the k the artifact echoes, not its default
    cfg = {"bcpp": {"d": 3, "lambda": 1.0}, "t_grid": [1.0], "replicas": 50,
           "seed": 0, "tolerances": {"k": 0}, "output_dir": str(tmp_path)}
    main(["verify-martingale", json.dumps(cfg)])
    rep = json.loads((tmp_path / "verify_martingale.json").read_text())
    assert rep["config"]["tolerances"] == {"k": 0}
    assert rep["checks"][0]["k"] == 0.0


def test_cli_config_file(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"bcpp": {"d": 3, "lambda": 1.0}}))
    rc = main(["criterion", str(p)])
    assert rc == 0


def test_cli_invalid_json_exit_code(capsys):
    rc = main(["criterion", "{not json"])
    assert rc == 2
    assert "config" in json.loads(capsys.readouterr().err)["error"]


def _config_error(capsys):
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    return err["message"]


def test_cli_green_offset_dimension_mismatch(capsys):
    cfg = {"bcpp": {"d": 3, "lambda": 1.0}, "offsets": [[1, 0]]}
    assert main(["green", json.dumps(cfg)]) == 2
    assert "offsets[0]" in _config_error(capsys)


def test_cli_verify_cov_site_dimension_mismatch(capsys):
    cfg = {"bcpp": {"d": 3, "lambda": 1.0}, "a": [1], "t": 10, "samples": 10}
    assert main(["verify-cov", json.dumps(cfg)]) == 2
    assert _config_error(capsys).startswith("a must be a list of 3 integers")


BCPP3 = {"bcpp": {"d": 3, "lambda": 1.0}}
NAN, INF = float("nan"), float("inf")


def _kernel1(p=0.75, x=(0,)):
    return {"kernel": {"d": 1, "atoms": [
        {"p": 0.25, "v": []}, {"p": p, "v": [{"x": list(x), "val": 1.0}]}]}}


@pytest.mark.parametrize("command, bad, key", [
    ("fk3", {"t": -1, "samples": 1000}, "'t'"),
    ("fk3", {"samples": 0}, "'samples'"),
    ("verify-overlap", {"samples": 0}, "'samples'"),
    ("verify-cov", {"samples": 0}, "'samples'"),
    ("simulate", {"replicas": 0}, "'replicas'"),
    ("simulate", {"t_grid": [-1.0, 2.0], "replicas": 10}, "'t_grid'"),
    ("criterion", {"resolution": 0}, "'resolution'"),
    ("oracle-two-point", {"box_radius": -1}, "'box_radius'"),
    ("verify-overlap", {"t_grid_overlap": [-1, 2], "samples": 1000},
     "'t_grid_overlap'"),
    ("simulate", {"max_occupied": 0, "replicas": 10}, "'max_occupied'"),
    ("simulate", {"threads": 0, "replicas": 10}, "'threads'"),
    ("simulate", {"initial": [{"x": ["a"]}], "replicas": 10}, "'initial'"),
    ("simulate", {"initial": [{"mass": 1}], "replicas": 10}, "'initial'"),
    ("simulate", {"initial": [{"x": [0.5, 0, 0]}], "t_grid": [0.1],
                  "replicas": 10}, "'initial'"),
    ("simulate", {"initial": [{"x": [0, 0, 0], "mass": NAN}],
                  "t_grid": [0.1], "replicas": 10}, "'initial'"),
    ("simulate", {"initial": [{"x": [0, 0, 0], "mass": True}],
                  "t_grid": [0.1], "replicas": 10}, "'initial'"),
    ("simulate", {"initial": [], "t_grid": [0.1], "replicas": 10},
     "'initial'"),
    ("verify-cov", {"tolerances": {"k": "x"}, "t": 1, "samples": 10},
     "'tolerances'"),
    ("verify-overlap", {"tolerances": {"slope_window": [1]}, "samples": 100,
                        "t_grid_overlap": [1, 2]}, "'tolerances'"),
    ("fk3", {"t": INF, "samples": 10}, "'t'"),
    ("simulate", {"t_grid": [INF], "replicas": 10}, "'t_grid'"),
    ("fk3", {"t": True, "samples": 10}, "'t'"),
    ("green", {"method": "bogus"}, "'method'"),
    ("criterion", {"resolution": 6}, "'resolution'"),
    ("verify-cov", {"resolution": 6, "t": 1, "samples": 10}, "'resolution'"),
    ("green", {"resolution": 6}, "'resolution'"),
    ("criterion", {"resolution": 12}, "'resolution'"),
    ("verify-cov", {"resolution": 12, "t": 1, "samples": 10}, "'resolution'"),
    ("green", {"resolution": 12}, "'resolution'"),
    ("criterion", {"bcpp": {"d": 3, "lambda": "x"}}, "'bcpp'"),
    ("criterion", {"bcpp": {"d": 3, "lambda": INF}}, "'bcpp'"),
    ("validate-kernel", _kernel1(x=["a"]), "'kernel'"),
    ("validate-kernel", _kernel1(x=[0.5]), "'kernel'"),
    ("validate-kernel", _kernel1(p=NAN), "'kernel'"),
    ("criterion", {**_kernel1(), **BCPP3}, "'kernel'"),
], ids=["fk3-negative-t", "fk3-samples-0", "overlap-samples-0",
        "cov-samples-0", "replicas-0", "negative-t-grid", "resolution-0",
        "negative-box-radius", "negative-overlap-time", "max-occupied-0",
        "threads-0", "initial-x-not-integer", "initial-no-x",
        "initial-x-fractional", "initial-mass-nan", "initial-mass-true",
        "initial-empty", "tolerance-k-string", "slope-window-one-number",
        "t-overflow", "t-grid-overflow", "t-true", "method-bogus",
        "criterion-resolution-6", "cov-resolution-6", "green-resolution-6",
        "criterion-resolution-12", "cov-resolution-12", "green-resolution-12",
        "lambda-string", "lambda-overflow", "kernel-x-not-integer",
        "kernel-x-fractional", "kernel-p-nan", "kernel-and-bcpp"])
def test_cli_bad_input_exits_2(capsys, command, bad, key):
    cfg = bad if "kernel" in bad else {**BCPP3, **bad}
    # JSON spells an overflowing number 1e400; json.dumps writes inf as
    # Infinity, which json.loads reads as the same float
    text = json.dumps(cfg).replace("Infinity", "1e400")
    assert main([command, text]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    err = json.loads(err)
    assert err["error"] == "config" and key in err["message"]


def test_cli_threads_override_below_one(capsys):
    assert main(["criterion", json.dumps(BCPP3), "--threads", "0"]) == 2
    assert "threads" in _config_error(capsys)


def test_parse_accepts_every_default():
    # every default passes its own check, so giving them all changes nothing
    given = {key: default(3) if callable(default) else default
             for key, (_, default, _) in cli._CONFIG.items()
             if key not in ("bcpp", "kernel")}
    expected = {**given, "initial": [((0, 0, 0), 1.0)]}
    assert parse_config(json.dumps({**BCPP3, **given})).values == expected
    assert parse_config(json.dumps(BCPP3)).values == expected


def test_cli_threads_env_not_integer(capsys, monkeypatch):
    monkeypatch.setenv("LINSYS_THREADS", "two")
    cfg = {"bcpp": {"d": 3, "lambda": 1.0}}
    assert main(["criterion", json.dumps(cfg)]) == 2
    assert "LINSYS_THREADS" in _config_error(capsys)


def test_dispatch_keeps_command_key_errors(monkeypatch):
    cfg = parse_config(json.dumps({"bcpp": {"d": 3, "lambda": 1.0}}))

    def broken(cfg):
        raise KeyError("inner")

    monkeypatch.setitem(cli._COMMANDS, "criterion", broken)
    with pytest.raises(KeyError, match="inner"):
        cli.dispatch("criterion", cfg)
    with pytest.raises(ConfigError, match="unknown subcommand"):
        cli.dispatch("no-such-command", cfg)
