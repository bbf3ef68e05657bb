import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stellarq import cli, dhd, estimator as est, fockspace as fs, negativity
from stellarq.cli import main


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def test_state_json_roundtrip_fidelity(tmp_path):
    out = tmp_path / "two.json"
    rc = run(tmp_path, "state", "--spec", '{"fock":{"n":2,"dim":8}}', "--out", out)
    assert rc == 0
    with open(out) as fh:
        loaded = fs.TruncatedState.from_json_dict(json.load(fh))
    assert fs.fidelity(loaded, fs.CoreState.fock(2)) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(loaded.matrix, fs.make_fock(2, 8).matrix)


def test_state_pipeline_fig5(tmp_path):
    out = tmp_path / "fig5.json"
    spec = '{"pipeline":[{"squeezed_thermal":{"db":3,"purity":0.95,"dim":32}},{"photon_subtract":{}}]}'
    assert run(tmp_path, "state", "--spec", spec, "--out", out) == 0
    with open(out) as fh:
        state = fs.TruncatedState.from_json_dict(json.load(fh))
    sq = fs.make_squeezed_thermal(fs.db_to_r(3), 0.0, 0.95, 32)
    want = fs.photon_subtract(sq)
    np.testing.assert_allclose(state.matrix, want.matrix, atol=1e-12)


def test_state_lossy_example(tmp_path):
    out = tmp_path / "lossy.json"
    assert run(tmp_path, "state", "--spec", '{"lossy_fock":{"n":2,"eta":0.8,"dim":8}}', "--out", out) == 0
    with open(out) as fh:
        st = fs.TruncatedState.from_json_dict(json.load(fh))
    np.testing.assert_allclose(np.diag(st.matrix).real[:3], [0.04, 0.32, 0.64], atol=1e-14)


def test_schema_violation_exit_code(tmp_path, capsys):
    rc = run(tmp_path, "state", "--spec", '{"lossy_fock":{"n":2,"eta":1.8,"dim":8}}',
             "--out", tmp_path / "x.json")
    assert rc == 64
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage-error"
    assert err["pointer"] == "/lossy_fock/eta"
    for field, bad in (("r", '"x"'), ("theta", '"x"'), ("beta", '["x", 0]')):
        spec = f'{{"core":{{"coeffs":[1],"{field}":{bad},"dim":8}}}}'
        assert run(tmp_path, "state", "--spec", spec, "--out", tmp_path / "x.json") == 64
        assert json.loads(capsys.readouterr().err)["pointer"] == f"/core/{field}"


@pytest.mark.parametrize("bad", ["-1", "0", '"x"', "2.5"])
def test_gaussian_out_dim_must_be_a_positive_int(bad, tmp_path, capsys):
    # these ended in a ValueError or TypeError traceback, and 0 meant automatic
    spec = f'{{"pipeline":[{{"fock":{{"n":1,"dim":4}}}},{{"gaussian":{{"r":0.5,"beta":[1,0],"out_dim":{bad}}}}}]}}'
    out = tmp_path / "x.json"
    assert run(tmp_path, "state", "--spec", spec, "--out", out) == 64
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage-error"
    assert err["pointer"] == "/pipeline/1/gaussian/out_dim"
    assert not out.exists()


def test_sample_determinism_and_manifest(tmp_path):
    state = tmp_path / "vac.json"
    run(tmp_path, "state", "--spec", '{"fock":{"n":0,"dim":8}}', "--out", state)
    s1 = tmp_path / "a.csv"
    s2 = tmp_path / "b.csv"
    assert run(tmp_path, "sample", "--state", state, "--n", 5000, "--seed", 7, "--out", s1) == 0
    assert run(tmp_path, "sample", "--state", state, "--n", 5000, "--seed", 7, "--out", s2) == 0
    assert s1.read_bytes() == s2.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["seed"] == 7
    assert str(state) in manifest["inputs"]
    assert manifest["outputs"][str(s1)] == manifest["outputs"][str(s1)]
    # regenerate from the manifest's recorded command, swapping the output
    argv = manifest["command"][1:]
    argv[argv.index(str(s1))] = str(tmp_path / "c.csv")
    assert main(argv) == 0
    assert (tmp_path / "c.csv").read_bytes() == s1.read_bytes()


def test_estimate_lossy_two(tmp_path):
    state = tmp_path / "lossy.json"
    run(tmp_path, "state", "--spec", '{"lossy_fock":{"n":2,"eta":0.8,"dim":8}}', "--out", state)
    samples = tmp_path / "s.csv"
    run(tmp_path, "sample", "--state", state, "--n", 200000, "--seed", 11, "--out", samples)
    report = tmp_path / "rep.json"
    rc = run(tmp_path, "estimate", "--samples", samples, "--target", "fock:2",
             "--epsilon", 0.2, "--delta", "none", "--method", "clt", "--out", report)
    assert rc == 0
    rep = json.loads(report.read_text())
    assert abs(rep["value"] - 0.64) < 0.2
    for key in ("half_width", "confidence", "N", "method", "p", "eta", "p_n",
                "bias_bound", "lambda", "kernel_range"):
        assert key in rep
    assert rep["N"] == 200000
    # --delta none has no delta to optimize (p, eta) for; the report names the one used
    assert rep["optimize_delta"] == 0.05
    rc = run(tmp_path, "estimate", "--samples", samples, "--target", "fock:2", "--epsilon", 0.2,
             "--delta", "none", "--method", "clt", "--p", rep["p"], "--eta", rep["eta"], "--out", report)
    assert rc == 0
    assert "optimize_delta" not in json.loads(report.read_text())


def test_estimate_insufficient_samples_exit(tmp_path, capsys):
    state = tmp_path / "one.json"
    run(tmp_path, "state", "--spec", '{"fock":{"n":1,"dim":8}}', "--out", state)
    samples = tmp_path / "s.csv"
    run(tmp_path, "sample", "--state", state, "--n", 1000, "--seed", 3, "--out", samples)
    rc = run(tmp_path, "estimate", "--samples", samples, "--target", "fock:1",
             "--epsilon", 0.2, "--delta", 0.05, "--out", tmp_path / "rep.json")
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "insufficient-samples"
    assert err["required_n"] > 500_000


def test_estimate_near_eta_one_is_infeasible(tmp_path, capsys):
    # p_n of Fock 2 at p = 2 is about 3e6 at eta = 1 - 1e-6 and 3e7 at 1 - 1e-7: both
    # exit on the bias bound, not on the p_n search
    state = tmp_path / "two.json"
    run(tmp_path, "state", "--spec", '{"fock":{"n":2,"dim":8}}', "--out", state)
    samples = tmp_path / "s.csv"
    run(tmp_path, "sample", "--state", state, "--n", 1000, "--seed", 3, "--out", samples)
    capsys.readouterr()
    for eta in ("0.999999", "0.9999999"):
        rc = run(tmp_path, "estimate", "--samples", samples, "--target", "fock:2", "--p", 2,
                 "--eta", eta, "--epsilon", 0.3, "--out", tmp_path / "rep.json")
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"]) == (2, "infeasible-precision") and err["min_epsilon"] > 1e17, eta


def test_estimate_witness_wrapper(tmp_path):
    state = tmp_path / "one.json"
    run(tmp_path, "state", "--spec", '{"fock":{"n":1,"dim":8}}', "--out", state)
    samples = tmp_path / "s.csv"
    run(tmp_path, "sample", "--state", state, "--n", 50000, "--seed", 5, "--out", samples)
    report = tmp_path / "wit.json"
    rc = run(tmp_path, "estimate", "--samples", samples, "--target", "witness:n=1",
             "--epsilon", 0.2, "--delta", "none", "--method", "clt",
             "--p", 2, "--eta", 0.26, "--translate", "0,0", "--out", report)
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["negativity_certified"] is True
    assert rep["omega_lower_bound"] > 0.5
    assert rep["alpha"] == [0.0, 0.0]


def test_estimate_witness_below_its_confidence_is_not_certified(tmp_path):
    # on 2,000 fig-5 samples this CLT witness reads omega = 5.8e10 at confidence 8.4e-13:
    # a lower bound above 1/2, but far below the confidence 1 - delta_cert it must hold at
    spec = '{"pipeline":[{"squeezed_thermal":{"db":3,"purity":0.95,"dim":32}},{"photon_subtract":{}}]}'
    state, samples, report = tmp_path / "fig5.json", tmp_path / "s.csv", tmp_path / "wit.json"
    run(tmp_path, "state", "--spec", spec, "--out", state)
    run(tmp_path, "sample", "--state", state, "--n", 2000, "--seed", 1, "--out", samples)
    assert run(tmp_path, "estimate", "--samples", samples, "--target", "witness:5", "--method", "clt",
               "--p", 8, "--eta", 0.1, "--epsilon", 0.2, "--translate=-1,-1", "--out", report) == 0
    rep = json.loads(report.read_text())
    assert rep["omega_lower_bound"] > 0.5 and rep["confidence"] < 1e-12
    assert rep["negativity_certified"] is False and rep["delta_cert"] == est.DELTA_CERT == 0.05


def test_estimate_core_target_clt(tmp_path):
    # a non-diagonal JSON core target: the projector on (|0> + |1>) / sqrt(2)
    state = tmp_path / "core.json"
    assert run(tmp_path, "state", "--spec", '{"core":{"coeffs":[1,1],"dim":8}}', "--out", state) == 0
    samples = tmp_path / "s.csv"
    assert run(tmp_path, "sample", "--state", state, "--n", 100000, "--seed", 13, "--out", samples) == 0
    report = tmp_path / "rep.json"
    rc = run(tmp_path, "estimate", "--samples", samples, "--target", '{"coeffs":[1,1]}',
             "--epsilon", 0.3, "--method", "clt", "--p", 2, "--eta", 0.3, "--delta", "none",
             "--out", report)
    assert rc == 0
    rep = json.loads(report.read_text())
    # the CLT report carries the sigma_hat its confidence rests on
    sigma = rep["sigma_hat"]
    assert rep["confidence"] == pytest.approx(math.erf(rep["lambda"] * math.sqrt(rep["N"] / (2 * sigma**2))))
    assert abs(rep["value"][0] - 1.0) < 6 * sigma / math.sqrt(rep["N"])


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["optimize-params", "--n", "10000", "--epsilon", "0.2", "--out", "{out}"],
                     id="optimize-params-n-10000"),
        # the binomial populations need log 10,001!; the state matrix is never built
        pytest.param(["state", "--spec", '{"lossy_fock":{"n":10001,"eta":0.5,"dim":10002}}',
                      "--out", "{out}"], id="state-lossy-fock-10001"),
    ],
)
def test_log_factorial_table_limit_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([str(out) if a == "{out}" else a for a in argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "domain-error"
    assert err["limit"] == 10_000
    assert not out.exists()


def test_far_displaced_core_exits_2(tmp_path, capsys):
    # D(beta)|0> at beta = 50 sits about 2,500 levels up: the inner index that
    # covers it stays inside the log-factorial table, and the 8-level state
    # fails its truncation check
    out = tmp_path / "out.json"
    spec = '{"core":{"coeffs":[1],"r":0.1,"beta":[50,0],"dim":8}}'
    assert run(tmp_path, "state", "--spec", spec, "--out", out) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "cutoff-error"
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, dim, want",
    [
        ('{"core":{"coeffs":[0.3,1],"r":2.5,"theta":0.7,"beta":[0.1,0],"dim":%d}}', 64, 2048),
        # twice the out_dim, 32 levels, still loses too much here; 128 levels are needed
        ('{"pipeline":[{"fock":{"n":1,"dim":4}},{"gaussian":{"r":1.25,"beta":[0.5,0],"out_dim":%d}}]}', 16, 128),
        ('{"squeezed_thermal":{"r":1.0,"purity":0.9,"dim":%d}}', 32, 64),
    ],
    ids=["core", "gaussian-step", "squeezed-thermal"],
)
def test_cutoff_error_names_a_dim_that_runs(spec, dim, want, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(tmp_path, "state", "--spec", spec % dim, "--out", out) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["suggested_dim"]) == ("cutoff-error", want)
    assert not out.exists()
    assert run(tmp_path, "state", "--spec", spec % want, "--out", out) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == want


def test_optimize_params_row(tmp_path):
    report = tmp_path / "row.json"
    rc = run(tmp_path, "optimize-params", "--n", 1, "--epsilon", 0.3, "--delta", 0.05,
             "--out", report)
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["p"] == 2
    assert abs(rep["eta"] - 0.31) <= 0.02
    assert abs(rep["N"] - 1.2e5) / 1.2e5 <= 0.10
    assert rep["p_n"] == 2


@pytest.mark.parametrize("n, code", [(70, 0), (100, 2)])
def test_optimize_params_large_fock_exits_cleanly(n, code, tmp_path, capsys):
    # Fock 70 needs a finite N though some p's J^2 underflows; no p at Fock 100 has an N in the floats
    report = tmp_path / "row.json"
    assert run(tmp_path, "optimize-params", "--n", n, "--epsilon", 0.2, "--delta", 0.05, "--out", report) == code
    if code:
        assert json.loads(capsys.readouterr().err)["error"] == "infeasible-precision"
        assert not report.exists()
    else:
        assert json.loads(report.read_text())["p"] == 8


def test_fock4_parameters_without_p_or_eta(tmp_path):
    # optimize_params' eta grid reaches p_n past the log-factorial table for Fock 4
    report = tmp_path / "row.json"
    assert run(tmp_path, "optimize-params", "--n", 4, "--epsilon", 0.2, "--delta", 0.05, "--out", report) == 0
    assert json.loads(report.read_text())["p"] == 3
    state, samples = tmp_path / "four.json", tmp_path / "s.csv"
    run(tmp_path, "state", "--spec", '{"fock":{"n":4,"dim":12}}', "--out", state)
    run(tmp_path, "sample", "--state", state, "--n", 20000, "--seed", 3, "--out", samples)
    rc = run(tmp_path, "estimate", "--samples", samples, "--target", "fock:4", "--epsilon", 0.3,
             "--delta", "none", "--method", "clt", "--out", report)
    assert rc == 0
    assert json.loads(report.read_text())["p"] == 3


def test_profile_cmd(tmp_path):
    out = tmp_path / "profile.csv"
    rc = run(tmp_path, "profile", "--target", "fock:2", "--k-max", 2,
             "--restarts", 12, "--out", out)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,max_fidelity,r,theta,re_beta,im_beta"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[0] == pytest.approx(0.381, abs=5e-3)
    assert vals[1] == pytest.approx(0.557, abs=5e-3)


def test_rank1_sweep_cmd(tmp_path):
    out = tmp_path / "fig6.csv"
    rc = run(tmp_path, "profile", "--rank1-sweep", 5, "--restarts", 8, "--out", out)
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 5
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-6)
    assert float(rows[-1][1]) == pytest.approx(0.478, abs=1e-3)


def test_rank1_sweep_honours_restarts(tmp_path, monkeypatch):
    seen = []

    def fake(phi, chi=0.0, restarts=32, seed=0):
        seen.append((restarts, seed))
        return 0.5

    monkeypatch.setattr(cli.stellar, "rank1_core_profile", fake)
    out = tmp_path / "sweep.csv"
    assert run(tmp_path, "profile", "--rank1-sweep", 3, "--restarts", 5, "--seed", 9,
               "--out", out) == 0
    assert seen == [(5, 9)] * 3


def test_profile_columns_canonical(tmp_path):
    out = tmp_path / "profile.csv"
    assert run(tmp_path, "profile", "--target", "fock:2", "--restarts", 8, "--out", out) == 0
    rows = [[float(t) for t in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2
    for _, _, _, _, re_beta, im_beta in rows:
        assert im_beta == 0.0
        assert re_beta >= 0.0


def test_witness_scan_cmd(tmp_path):
    state = tmp_path / "one.json"
    run(tmp_path, "state", "--spec", '{"fock":{"n":1,"dim":8}}', "--out", state)
    out = tmp_path / "scan.csv"
    rc = run(tmp_path, "witness-scan", "--state", state, "--grid", "3x3:1.0",
             "--n", 1, "--epsilon", 0.2, "--n-samples", 30000, "--seed", 2,
             "--p", 2, "--eta", 0.26, "--method", "clt", "--out", out)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_alpha,im_alpha,omega,half_width,lower_bound,certified"
    assert len(lines) == 10
    center = [l for l in lines[1:] if l.startswith("0,0,")]
    assert center and center[0].endswith(",1")  # certified at alpha = 0


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A valid state file, a valid samples file, one with a bad row and one cut short."""
    d = tmp_path_factory.mktemp("cli_inputs")
    state, samples, bad, cut = d / "one.json", d / "s.csv", d / "bad.csv", d / "cut.csv"
    assert main(["state", "--spec", '{"fock":{"n":1,"dim":8}}', "--out", str(state)]) == 0
    assert main(["sample", "--state", str(state), "--n", "2000", "--seed", "1",
                 "--out", str(samples)]) == 0
    bad.write_text(samples.read_text() + "0.5;0.25\n")
    cut.write_text("".join(samples.read_text().splitlines(keepends=True)[:-1]))
    return {"state": state, "samples": samples, "bad_csv": bad, "cut_csv": cut, "missing": d / "nope"}


_ESTIMATE = ["estimate", "--samples", "{samples}", "--epsilon", "0.2", "--out", "{out}"]
_PROFILE = ["profile", "--k-max", "1", "--restarts", "1", "--out", "{out}"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(_ESTIMATE + ["--target", "fock:x"], id="target-fock-x"),
        pytest.param(_ESTIMATE + ["--target", "witness:x"], id="target-witness-x"),
        pytest.param(_ESTIMATE + ["--target", '{"coeffs": [0, 1'], id="estimate-json-malformed"),
        pytest.param(_ESTIMATE + ["--target", '{"c": [0, 1]}'], id="estimate-json-no-coeffs"),
        pytest.param(_ESTIMATE + ["--target", '{"coeffs": ["one"]}'], id="estimate-json-bad-coeff"),
        pytest.param(_PROFILE + ["--target", '{"coeffs": [0, 1'], id="profile-json-malformed"),
        pytest.param(_PROFILE + ["--target", '{"c": [0, 1]}'], id="profile-json-no-coeffs"),
        pytest.param(_PROFILE + ["--target", "fock:x"], id="profile-fock-x"),
        pytest.param(_PROFILE + ["--target", "witness:1"], id="profile-witness"),
        pytest.param(["profile", "--target", "fock:1", "--k-max", "0", "--out", "{out}"],
                     id="profile-k-max-zero"),
        pytest.param(_PROFILE + ["--target", "fock:1", "--restarts", "-3"], id="profile-restarts-negative"),
        pytest.param(["profile", "--rank1-sweep", "0", "--out", "{out}"], id="profile-rank1-sweep-zero"),
        pytest.param(["state", "--spec", '{"core":{"coeffs":[0, "x"],"dim":8}}', "--out", "{out}"],
                     id="state-core-non-numeric"),
        pytest.param(["state", "--spec", '{"core":{"coeffs":[1],"r":"x","dim":8}}', "--out", "{out}"],
                     id="state-r-non-numeric"),
        pytest.param(["state", "--spec", '{"core":{"coeffs":[1],"theta":"x","dim":8}}', "--out", "{out}"],
                     id="state-theta-non-numeric"),
        pytest.param(["state", "--spec", '{"core":{"coeffs":[1],"beta":["x",0],"dim":8}}', "--out", "{out}"],
                     id="state-beta-non-numeric"),
        pytest.param(["state", "--spec-file", "{missing}", "--out", "{out}"], id="missing-spec-file"),
        pytest.param(["sample", "--state", "{missing}", "--n", "10", "--seed", "1", "--out", "{out}"],
                     id="missing-state"),
        pytest.param(["estimate", "--samples", "{missing}", "--target", "fock:1", "--epsilon", "0.2",
                      "--out", "{out}"], id="missing-samples"),
        pytest.param(["estimate", "--samples", "{bad_csv}", "--target", "fock:1", "--epsilon", "0.2",
                      "--p", "2", "--eta", "0.3", "--out", "{out}"], id="malformed-csv-row"),
        pytest.param(["estimate", "--samples", "{cut_csv}", "--target", "fock:1", "--epsilon", "0.2",
                      "--p", "2", "--eta", "0.3", "--out", "{out}"], id="truncated-csv"),
        pytest.param(["sample", "--state", "{state}", "--n", "10", "--seed", "1", "--workers", "0",
                      "--out", "{out}"], id="workers-zero"),
        pytest.param(["witness-scan", "--state", "{state}", "--grid", "nonsense", "--out", "{out}"],
                     id="grid-nonsense"),
        pytest.param(["witness-scan", "--state", "{state}", "--grid", "0x0:1.0", "--out", "{out}"],
                     id="grid-empty"),
        pytest.param(_ESTIMATE + ["--target", "fock:1", "--p", "2"], id="estimate-lone-p"),
        pytest.param(_ESTIMATE + ["--target", "fock:1", "--eta", "0.3"], id="estimate-lone-eta"),
        pytest.param(["witness-scan", "--state", "{state}", "--p", "3", "--out", "{out}"],
                     id="scan-lone-p"),
        pytest.param(["witness-scan", "--state", "{state}", "--eta", "0.2", "--out", "{out}"],
                     id="scan-lone-eta"),
        pytest.param(["sample", "--state", "{state}", "--n", "abc", "--seed", "1", "--out", "{out}"],
                     id="bad-int"),
        pytest.param(["sample", "--state", "{state}", "--n", "10", "--out", "{out}"],
                     id="missing-required-flag"),
        pytest.param(["bogus", "--out", "{out}"], id="unknown-subcommand"),
        pytest.param(["witness-scan", "--state", "{state}", "--n-samples", "0", "--out", "{out}"],
                     id="scan-n-samples-zero"),
        pytest.param(["witness-scan", "--state", "{state}", "--n-samples", "-5", "--out", "{out}"],
                     id="scan-n-samples-negative"),
        pytest.param(["sample", "--state", "{state}", "--n", "-3", "--seed", "1", "--out", "{out}"],
                     id="sample-n-negative"),
        # a rank-0 target leaves --k-max without a default
        pytest.param(["profile", "--target", "fock:0", "--out", "{out}"], id="profile-rank0-target"),
        pytest.param(["profile", "--target", '{"coeffs": [1]}', "--out", "{out}"], id="profile-rank0-core"),
    ],
)
def test_malformed_input_exits_64(argv, cli_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    subs = {f"{{{k}}}": str(v) for k, v in dict(cli_inputs, out=out).items()}
    rc = main([subs.get(a, a) for a in argv])
    assert rc == 64
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage-error"
    assert not out.exists()


def test_negative_pairs_take_the_equals_form(cli_inputs, tmp_path, capsys):
    """--zeta=-re,im and --translate=-re,im parse; the space form reads as an option and exits 64."""
    state = fs.TruncatedState.from_json_dict(json.loads(cli_inputs["state"].read_text()))
    samples = tmp_path / "z.csv"
    assert run(tmp_path, "sample", "--state", cli_inputs["state"], "--n", 1000, "--seed", 4,
               "--zeta=-0.3,0", "--out", samples) == 0
    want = dhd.sample_unbalanced(state, -0.3 + 0j, 1000, 4)
    np.testing.assert_array_equal(dhd.load_csv(samples).samples, want.samples)
    report = tmp_path / "t.json"
    assert run(tmp_path, "estimate", "--samples", cli_inputs["samples"], "--target", "fock:1",
               "--epsilon", 0.3, "--delta", "none", "--method", "clt", "--p", 2, "--eta", 0.26,
               "--translate=-0.5,0.25", "--out", report) == 0
    cfg = est.EstimatorConfig(fs.TargetOperator.fock_projector(1), 2, 0.26, 0.3, None, "clt")
    moved = dhd.translate_samples(dhd.load_csv(cli_inputs["samples"]), -0.5 + 0.25j)
    assert json.loads(report.read_text())["value"] == est.estimate(moved, cfg).value
    capsys.readouterr()
    for argv in (["sample", "--state", cli_inputs["state"], "--n", 10, "--seed", 4, "--zeta", "-0.3,0"],
                 ["estimate", "--samples", cli_inputs["samples"], "--target", "fock:1", "--epsilon", 0.3,
                  "--translate", "-0.5,0.25"]):
        assert run(tmp_path, *argv, "--out", tmp_path / "space") == 64
        assert json.loads(capsys.readouterr().err)["error"] == "usage-error"
    assert not (tmp_path / "space").exists()


@pytest.mark.parametrize(
    "argv, keys, seed, inputs",
    [
        (["state", "--spec", '{"fock":{"n":1,"dim":8}}'], {"out", "dim", "trace_deficit", "purity"}, None, []),
        (["sample", "--state", "{state}", "--n", "500", "--seed", "3"], {"out", "n", "acceptance_rate"}, 3,
         ["state"]),
        # the seed of an estimate is the one in its sample file's header
        (["estimate", "--samples", "{samples}", "--target", "fock:1", "--epsilon", "0.3", "--delta", "none",
          "--method", "clt", "--p", "2", "--eta", "0.26"], {"out", "value", "confidence"}, 1, ["samples"]),
        (["optimize-params", "--n", "1", "--epsilon", "0.3"],
         {"N", "p", "eta", "p_n", "epsilon", "delta", "kernel_range"}, None, []),
        (["profile", "--target", "fock:1", "--k-max", "1", "--restarts", "1", "--seed", "5"], {"out"}, 5, []),
        (["witness-scan", "--state", "{state}", "--grid", "2x2:1", "--n-samples", "2000", "--epsilon", "0.2",
          "--p", "2", "--eta", "0.26", "--seed", "4"], {"out", "points", "certified"}, 4, ["state"]),
    ],
    ids=["state", "sample", "estimate", "optimize-params", "profile", "witness-scan"],
)
def test_every_subcommand_prints_one_summary_and_writes_its_manifest(argv, keys, seed, inputs, cli_inputs,
                                                                     tmp_path, capsys):
    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    out = tmp_path / "out"
    argv = [str(cli_inputs[a[1:-1]]) if a in ("{state}", "{samples}") else a for a in argv] + ["--out", str(out)]
    capsys.readouterr()  # what building the shared inputs printed
    assert main(argv) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert set(json.loads(line)) == keys
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["command"] == ["stellarq"] + argv
    assert manifest["seed"] == seed
    assert manifest["inputs"] == {str(cli_inputs[k]): digest(cli_inputs[k]) for k in inputs}
    assert manifest["outputs"] == {str(out): digest(out)}


@pytest.mark.parametrize(
    "target, eta, extra",
    [("fock:100", 0.003, []), ("fock:100", 0.003, ["--delta", "none"]), ("fock:100", 0.003, ["--method", "clt"]),
     ("fock:300", 0.001, ["--method", "clt"])],
    ids=["hoeffding", "delta-none", "clt", "weights"],
)
def test_kernel_past_the_float_range_exits_2(target, eta, extra, cli_inputs, tmp_path, capsys):
    # the Fock-100 kernel at p = 1, eta = 0.003 overflows where its Gaussian factor is
    # nonzero; the Fock-300 kernel's weights at eta = 0.001 pass the floats themselves
    report = tmp_path / "rep.json"
    argv = ["estimate", "--samples", cli_inputs["samples"], "--target", target, "--p", 1, "--eta", eta,
            "--epsilon", 0.2, *extra, "--out", report]
    assert run(tmp_path, *argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "infeasible-precision"
    assert not report.exists()


def test_witness_scan_past_the_float_range_exits_2(tmp_path, capsys):
    # the CLT scan's second-moment series of the n = 30 witness at p = 8, eta = 0.01
    # overflows; it is refused before any kernel sum, whatever the warnings filter
    state, out = tmp_path / "fig5.json", tmp_path / "scan.csv"
    spec = '{"pipeline":[{"squeezed_thermal":{"db":3,"purity":0.95,"dim":32}},{"photon_subtract":{}}]}'
    assert run(tmp_path, "state", "--spec", spec, "--out", state) == 0
    capsys.readouterr()
    argv = ["witness-scan", "--state", state, "--n", 30, "--p", 8, "--eta", 0.01, "--epsilon", 0.2,
            "--n-samples", 2000, "--out", out]
    assert run(tmp_path, *argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "infeasible-precision"
    assert not out.exists()


def test_help_and_version_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "witness-scan" in capsys.readouterr().out
    assert main(["witness-scan", "-h"]) == 0
    assert "--method" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == cli.__version__


@pytest.mark.parametrize("method", ["hoeffding", "clt"])
def test_witness_scan_applies_method(method, cli_inputs, tmp_path, monkeypatch):
    """--method reaches every point when choose_witness_params picks (p, eta)."""
    seen = []
    write = negativity.scan_to_csv
    monkeypatch.setattr(negativity, "scan_to_csv", lambda results, path: (seen.extend(results), write(results, path)))
    out = tmp_path / "scan.csv"
    rc = main(["witness-scan", "--state", str(cli_inputs["state"]), "--grid", "2x3:0.5",
               "--epsilon", "0.2", "--n-samples", "20000", "--seed", "4", "--method", method,
               "--out", str(out)])
    assert rc == 0
    assert len(seen) == 6 and len(out.read_text().splitlines()) == 7
    assert all(r.estimate.method == method for r in seen)
    assert all((r.estimate.kernel_range is not None) == (method == "hoeffding") for r in seen)


_MISSING, _OUT = "{missing}", "{out}"
# Each subcommand's flags, as (flag, value) pairs.  Input files are always
# missing and the subcommands that read no file get no --out, so no argv
# can reach sampling or an optimizer.
_FUZZ_BASE = {
    "state": [("--spec-file", _MISSING), ("--out", _OUT)],
    "sample": [("--state", _MISSING), ("--n", "10"), ("--seed", "1"), ("--out", _OUT)],
    "estimate": [("--samples", _MISSING), ("--target", "fock:1"), ("--epsilon", "0.2"), ("--out", _OUT)],
    "witness-scan": [("--state", _MISSING), ("--out", _OUT)],
    "optimize-params": [("--n", "1"), ("--epsilon", "0.2")],
    "profile": [("--target", "fock:1"), ("--k-max", "1")],
    "bogus": [],
}
_FUZZ_FLAGS = [
    "--n", "--seed", "--p", "--eta", "--epsilon", "--delta", "--method", "--target", "--grid",
    "--workers", "--zeta", "--translate", "--k-max", "--restarts", "--n-samples", "--state",
    "--samples", "--spec-file", "-h", "--version", "--",
]
_FUZZ_VALUES = [
    "1", "0", "-3", "abc", "0.2", "nan", "1e400", "", "fock:1", "fock:x", "witness:2",
    '{"coeffs": [1', "clt", "hoeffding", "bayes", "2x2:1.0", "none", _MISSING,
]


@st.composite
def _fuzz_argv(draw):
    """A subcommand's flags, some dropped, with flag/value pairs and stray words inserted."""
    cmd = draw(st.sampled_from(sorted(_FUZZ_BASE)))
    pairs = [list(pair) for pair in _FUZZ_BASE[cmd] if draw(st.integers(0, 3))]
    extra = st.tuples(st.sampled_from(_FUZZ_FLAGS), st.sampled_from(_FUZZ_VALUES)).map(list)
    for pair in draw(st.lists(extra, max_size=3)):
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    stray = draw(st.lists(st.sampled_from(_FUZZ_FLAGS + _FUZZ_VALUES), max_size=1))
    words = [w for pair in pairs for w in pair]
    for word in stray:
        words.insert(draw(st.integers(0, len(words))), word)
    return draw(st.sampled_from([[]] * 4 + [["--version"], ["-x"]])) + [cmd] + words


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=_fuzz_argv())
def test_cli_fuzz_exit_codes(argv, fuzz_dir):
    """Over parse-level and missing-file argv, main never raises and exits 0, 2 or 64."""
    out = fuzz_dir / "out"
    subs = {_MISSING: str(fuzz_dir / "nope"), _OUT: str(out)}
    argv = [subs.get(a, a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 64)
    if rc:
        code = json.loads(err.getvalue())["error"]
        assert (code == "usage-error") == (rc == 64)
    assert not out.exists()


def test_start_up_loads_no_scipy_submodule():
    # scipy.optimize alone added about 0.4 s to every process's start-up; the
    # ceiling search, the log-factorial table and the interval scalars need none,
    # and neither do the unbalanced detection frame of the fig-5 state and a
    # squeeze block on a 2,458-level pad
    heavy = ("scipy.special", "scipy.optimize", "scipy.linalg")
    code = (
        "import math, sys, stellarq, stellarq.cli\n"
        f"heavy = {heavy!r}\n"
        "print([m for m in heavy if m in sys.modules])\n"
        "from stellarq import fockspace as fs, stellar\n"
        "stellar.fidelity_profile(fs.CoreState.fock(2), 2)\n"
        "r = fs.db_to_r(3.0)\n"
        "fig5 = fs.photon_subtract(fs.make_squeezed_thermal(r, 0.0, 0.95, 32))\n"
        "fs.apply_gaussian(fig5, fs.GaussianUnitaryParams(r, math.pi, 0j), out_dim=None)\n"
        "fs.gaussian_matrix(200, 60, fs.GaussianUnitaryParams(2.0, 1.1, 0j))\n"
        "print([m for m in heavy if m in sys.modules])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_profile_of_a_rank0_target_names_its_rank(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run(tmp_path, "profile", "--target", "fock:0", "--out", out) == 64
    message = json.loads(capsys.readouterr().err)["message"]
    assert "rank 0" in message and "--k-max" in message
    assert run(tmp_path, "profile", "--target", "fock:0", "--k-max", 1, "--restarts", 2, "--out", out) == 0
    assert out.read_text().count("\n") == 2


def test_cli_runs_without_scipy(tmp_path):
    # with scipy unimportable, optimize-params and a fig-5 state build still
    # run and write their manifests
    spec = '{"pipeline":[{"squeezed_thermal":{"db":3,"purity":0.95,"dim":32}},{"photon_subtract":{}}]}'
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from stellarq.cli import main\n"
        f"assert main(['optimize-params', '--n', '1', '--epsilon', '0.3', '--out', {str(tmp_path / 'o.json')!r}]) == 0\n"
        f"assert main(['state', '--spec', {spec!r}, '--out', {str(tmp_path / 's.json')!r}]) == 0\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    for name in ("o.json", "s.json"):
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert "scipy" not in manifest["versions"]
