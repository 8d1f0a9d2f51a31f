"""Tests of the benchmark itself: its checks, negative controls and tracing.

    python3 -m pytest perfbench -q        (about three minutes)

Every check must pass on seeds other than the ones the reference figures
were recorded with, and must fail on a perturbed artifact.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (fixes the BLAS thread count before numpy loads)

cli = run.import_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run_workload(name, seed, workdir):
    """Run every timed operation once; returns {label: output dirs}."""
    out = {}
    for op in workloads.WORKLOADS[name](seed):
        if op.expect_fault:
            continue
        _, dirs, failure = run.run_op(cli, op, str(workdir), None)
        assert failure is None, f"{op.label}: {failure}"
        assert op.check(dirs) == [], op.label
        out[op.label] = dirs
    return out


def _load(dirs, name, i=0):
    with open(os.path.join(dirs[i], name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("artifacts")
    return {name: _run_workload(name, 21, base) for name in workloads.WORKLOADS}


def test_benchmark_json_matches_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [22, 23])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_pass_on_other_seeds(name, seed, tmp_path):
    _run_workload(name, seed, tmp_path)


# -- ensemble -------------------------------------------------------------------


def _simulate(artifacts):
    dirs = artifacts["ensemble"]["simulate"]
    summary = _load(dirs, "summary.json")
    header, rows = checks.read_trajectories(os.path.join(dirs[0], "trajectories.csv"))
    return summary, header, rows


def _table():
    from linsys import stats
    from linsys.kernel import make_bcpp_kernel
    return stats.battery_table(make_bcpp_kernel(3, 1.0))


def test_unnormalized_total_fails(artifacts):
    summary, _, _ = _simulate(artifacts)
    bad = copy.deepcopy(summary)
    st = bad["stats"]["normalized_total"]["all"]
    kappa1 = checks.bcpp_kappa1(3, 1.0)
    for j, t in enumerate(bad["t_grid"]):
        st["mean"][j] *= math.exp(kappa1 * t)
        st["se"][j] *= math.exp(kappa1 * t)
    problems = checks.check_summary(bad, workloads.SIM_REPLICAS, _table())
    assert any("forward" in p for p in problems)


def test_truncation_and_battery_shift_fail(artifacts):
    summary, _, _ = _simulate(artifacts)
    bad = copy.deepcopy(summary)
    bad["truncated"] = 1
    assert any("truncated" in p
               for p in checks.check_summary(bad, workloads.SIM_REPLICAS, _table()))
    bad = copy.deepcopy(summary)
    bad["stats"]["battery:cos1"]["surviving"]["mean"][-1] += 0.2
    assert any("cos1" in p
               for p in checks.check_summary(bad, workloads.SIM_REPLICAS, _table()))


def test_dropped_csv_row_fails(artifacts):
    summary, header, rows = _simulate(artifacts)
    assert checks.check_csv_matches_summary(header, rows, summary) == []
    dropped = rows[:5] + rows[6:]
    assert checks.check_csv_matches_summary(header, dropped, summary)


def test_dual_martingale_shift_fails(artifacts):
    res = _load(artifacts["ensemble"]["verify-martingale dual"],
                "verify_martingale.json")["checks"][0]
    means = [m + 6 * se for m, se in zip(res["notes"]["means"], res["notes"]["ses"])]
    assert checks.check_martingale_means(means, res["notes"]["ses"], "dual")


def test_artifact_contract_checks(tmp_path):
    a = b'{"config": {"threads": 1}, "stats": {"x": 1}}'
    b = b'{"config": {"threads": 2}, "stats": {"x": 1}}'
    c = b'{"config": {"threads": 1}, "stats": {"x": 2}}'
    assert checks.check_same_summaries([a, a, a]) == []
    assert "config" in checks.check_same_summaries([a, b, a])[0]
    assert "statistics" in checks.check_same_summaries([a, a, c])[0]
    assert checks.check_same_bytes([b"x", b"y", b"x"], "csv")
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("a,b\n1,0.5\n")
    bad.write_text("a,b\n1,np.float64(0.5)\n")
    assert checks.check_csv_numeric(str(good)) == []
    assert checks.check_csv_numeric(str(bad))


# -- walk-limit -----------------------------------------------------------------


def test_cov_checks_fail_on_perturbed_results(artifacts):
    for off in workloads.COV_OFFSETS:
        res = _load(artifacts["walk-limit"][f"verify-cov a-b={list(off)}"],
                    "verify_cov.json")["checks"][0]
        above = dict(res, observed=res["reference"] + 6 * res["standard_error"])
        assert checks.check_cov(above, off)
        low = dict(res, observed=0.85 * res["reference"])
        assert checks.check_cov(low, off)
        wrong_ref = dict(res, reference=res["reference"] * 1.05)
        assert checks.check_cov(wrong_ref, off)


def test_overlap_not_decreasing_fails(artifacts):
    res = _load(artifacts["walk-limit"]["verify-overlap"],
                "verify_overlap.json")["checks"][0]
    vals, ses = res["notes"]["values"], res["notes"]["ses"]
    bad = copy.deepcopy(res)
    bad["notes"]["values"][1] = vals[0] + 6 * max(ses[0], ses[1])
    assert checks.check_overlap(bad)
    bad = copy.deepcopy(res)
    bad["notes"]["values"][-1] = 0.0
    assert checks.check_overlap(bad)


# -- solves -----------------------------------------------------------------------


def test_oracle_at_wrong_t_fails(artifacts, tmp_path):
    from linsys import feynman_kac as fk
    from linsys.kernel import make_bcpp_kernel

    ref = fk.exp_local_time_moment(make_bcpp_kernel(2, 1.0), workloads.ORACLE_T)
    kappa1 = checks.bcpp_kappa1(2, 1.0)
    good = _load(artifacts["solves"]["oracle-two-point"], "oracle_two_point.json")
    assert checks.check_oracle(good, kappa1, workloads.ORACLE_T, ref) == []

    cfg = dict(workloads.BCPP2, initial=[{"x": [0, 0], "mass": 1}],
               t=workloads.ORACLE_T + 0.05, box_radius=workloads.ORACLE_RADIUS)
    assert cli.main(["oracle-two-point", json.dumps(cfg), "--threads", "1",
                     "--output-dir", str(tmp_path)]) == 0
    wrong = _load([str(tmp_path)], "oracle_two_point.json")
    problems = checks.check_oracle(wrong, kappa1, workloads.ORACLE_T, ref)
    assert any("one-walk solve" in p for p in problems)

    asym = copy.deepcopy(good)
    c = len(asym["u"]) // 2                  # the origin; c + 1 is a neighbour
    asym["u"][c][c + 1] *= 1.001
    assert any("symmetric" in p
               for p in checks.check_oracle(asym, kappa1, workloads.ORACLE_T, ref))


def test_two_offset_atom_kernel_fails_k4(tmp_path):
    cfg = {"kernel": {"d": 3, "atoms": [
        {"p": 0.5, "v": []},
        {"p": 0.5, "v": [{"x": [0, 0, 0], "val": 1.0}, {"x": [1, 0, 0], "val": 1.0},
                         {"x": [0, 1, 0], "val": 1.0}]}]}}
    assert cli.main(["validate-kernel", json.dumps(cfg), "--threads", "1",
                     "--output-dir", str(tmp_path)]) == 0
    problems = checks.check_validation(_load([str(tmp_path)], "validate_kernel.json"))
    assert any("k4_orthogonal" in p for p in problems)


def test_green_and_criterion_fail_on_perturbed_results(artifacts):
    dirs = artifacts["solves"]["green quadrature + truncated_solve"]
    quad, trunc = _load(dirs, "green.json", 0), _load(dirs, "green.json", 1)
    assert checks.check_green_pair(quad, trunc) == []
    assert checks.check_green_pair(trunc, quad)        # roles swapped
    bad = copy.deepcopy(quad)
    bad["g"]["[1, 0, 0]"] *= 1.01
    assert checks.check_green_pair(bad, trunc)

    for factor in workloads.CRITERION_FACTORS:
        art = _load(artifacts["solves"][f"criterion lambda_c*{factor}"],
                    "criterion.json")
        lam = checks.LAMBDA_C3 * factor
        assert checks.check_criterion(art, lam, factor > 1) == []
        assert checks.check_criterion(art, lam, factor < 1)
        assert checks.check_criterion(art, lam * 1.001, factor > 1)


# -- tracing and the command ----------------------------------------------------


def test_tracer_counts_spans_and_restores(tmp_path):
    from linsys import walk

    original = walk.green
    ops = [op for op in workloads.solves_ops(1) if op.label.startswith("criterion")]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        res = run.run_round(cli, ops, str(tmp_path), tracer)
    finally:
        tracer.uninstall()
    assert walk.green is original
    layers = res["layers"]
    assert layers["walk.green_calls"] == len(ops)
    assert layers["walk.green_s"] > 0 and layers["cli.self_s"] > 0
    assert layers["engine.events"] == 0 and layers["cli.artifact_bytes"] > 0
    assert layers["trace.wall_s"] >= layers["walk.green_s"]


def test_bare_checkout_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solves",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
