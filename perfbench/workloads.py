"""The four benchmark workloads: set-up, timed section, output checks.

A worker process runs one workload once: ``setup()`` (counted in
``setup_s``), ``run()`` (the timed section, ``wall_s``) and then, untimed,
``check(fail)``.  Each workload names its operations in ``OPS``; ``check``
reports a failed output check through ``fail(op, message)``.

The workloads reach the library through module attributes
(``dhd.sample_q``, ``cli.main``), never through names imported from it,
so that the traced run sees the benchmark's own calls as spans.

An estimate is checked in two steps.  The exact mean and standard
deviation of the estimator's kernel under the state's Q function come from
quadrature; the mean must lie within the estimator's bias bound of the
oracle (``fidelity``, ``omega_true``, 0.64), and the estimate within
``SE_Z`` standard errors of the mean.  The samples' mean of |z|^2 must match
<n> + 1 within ``SE_Z`` standard errors.  A correct program fails a check
with probability below 1e-6 under any random stream: the two-sided normal
tail at 6 is 2e-9, and ``SCAN_SE_Z`` keeps the union over the 1,024 scan
points at 8e-8.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from stellarq import cli, dhd, negativity, stellar
from stellarq import estimator as est
from stellarq import fockspace as fs

SE_Z = 6.0
SCAN_SE_Z = 6.5
# Q and every kernel used here decay like Gaussians well inside |z| < 8,
# where the trapezoid rule on a 201 x 201 grid agrees with a 801 x 801 one
# to 1e-14.
QUAD_EXTENT, QUAD_POINTS = 8.0, 201
EXACT_TOL = 1e-9  # slack on the deterministic bias-bound check

# Photon-subtracted 3 dB squeezed thermal state at purity 0.95 (the fig-5
# state of the paper), as a library value and as a CLI spec.
FIG5_DB, FIG5_PURITY, FIG5_DIM = 3.0, 0.95, 32
FIG5_SPEC = {
    "pipeline": [
        {"squeezed_thermal": {"db": FIG5_DB, "purity": FIG5_PURITY, "dim": FIG5_DIM}},
        {"photon_subtract": {}},
    ]
}
WITNESS_N = 550_000
SCAN_GRID, SCAN_EXTENT, SCAN_N = 32, 2.5, 200_000
# Fock 2 against ranks 0 and 1, at the CLI's default 32 restarts.  Fock 3
# at 12 restarts misses its rank-1 or rank-2 ceiling on about a third of
# the seeds (13% of restarts reach either optimum); Fock 2's harder point
# is reached by 23% of restarts, so all 33 starts miss with p ~ 2e-4.
PROFILE_TARGET, PROFILE_CEILINGS, PROFILE_TOL = "fock:2", (0.381, 0.557), 5e-3
PIPELINE_N, PIPELINE_TRUTH = 368_000, 0.64  # <2|rho|2> of 2 photons at eta = 0.8


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def q_weights(state, x):
    """Q / sum(Q) on the grid x (+) i x, as an array indexed [re, im]."""
    q = fs.husimi_q(state, (x[:, None] + 1j * x[None, :]).ravel())
    return (q / q.sum()).reshape(x.size, x.size)


def kernel_moments(state, cfg) -> tuple:
    """Exact mean and standard deviation of the estimator's kernel under Q."""
    x = np.linspace(-QUAD_EXTENT, QUAD_EXTENT, QUAD_POINTS)
    w = q_weights(state, x).ravel()
    v = est.kernel_values((x[:, None] + 1j * x[None, :]).ravel(), cfg)
    mean = float(w @ v)
    return mean, math.sqrt(float(w @ (v - mean) ** 2))


def check_estimate(fail, op, value, n, oracle, bias, state, cfg):
    mean, sd = kernel_moments(state, cfg)
    if not abs(mean - oracle) <= bias + EXACT_TOL:
        fail(op, f"expected estimate {mean:.6g} is beyond the bias bound {bias:.3g} of {oracle:.6g}")
    err = abs(float(np.real(value)) - mean)
    if not err <= SE_Z * sd / math.sqrt(n):
        fail(op, f"estimate {float(np.real(value)):.6g} misses its mean {mean:.6g} by {err:.3g}, "
                 f"{err * math.sqrt(n) / sd:.2f} standard errors")


def check_photon_number(fail, op, samples, state):
    """Under Q the mean of |z|^2 is <n> + 1 (anti-normal order)."""
    r2 = np.abs(samples) ** 2
    want = state.mean_photon() + 1.0
    err = abs(float(r2.mean()) - want)
    if not err <= SE_Z * float(r2.std()) / math.sqrt(r2.size):
        fail(op, f"mean |z|^2 of the samples is {r2.mean():.6g}, not <n> + 1 = {want:.6g}")


class Workload:
    OPS: tuple = ()

    def __init__(self, workdir: Path, seeds: list):
        self.dir = workdir
        self.seeds = seeds
        self.outputs = {}  # certified counts and the like, reported as outputs

    def setup(self):
        pass

    def cli(self, op: str, argv: list) -> None:
        code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"stellarq {op} exited {code}")

    def check_manifest(self, fail, op: str, out: Path) -> None:
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        if manifest["outputs"].get(str(out)) != sha256(out):
            fail(op, f"manifest digest of {out.name} does not match the file")


class Campaign(Workload):
    """The paper's two headline certificates on the fig-5 state, by library calls."""

    OPS = ("rank_certificate", "negativity_certificate")

    def setup(self):
        self.r = fs.db_to_r(FIG5_DB)
        self.state = fs.photon_subtract(fs.make_squeezed_thermal(self.r, 0.0, FIG5_PURITY, FIG5_DIM))
        # unbalanced detection reverts the preparation squeezing, so the
        # rank target is |1> in the detection frame
        self.framed = fs.CoreState((0, 1), fs.GaussianUnitaryParams(self.r, 0.0, 0j))
        opt = est.optimize_params(1, 0.2, 0.05)
        self.n_rank = opt.required_n
        self.rank_cfg = est.EstimatorConfig(
            fs.TargetOperator.fock_projector(1), opt.config.p, opt.config.eta, 0.2, 0.05
        )
        self.witness_cfg = negativity.choose_witness_params(self.state, 1, 0.1, WITNESS_N)

    def run(self):
        s = self.seeds
        self.rank_batch = dhd.sample_unbalanced(self.state, -self.r, self.n_rank, s[0], n_workers=1)
        self.rank_est = est.estimate(self.rank_batch, self.rank_cfg)
        self.verdict = stellar.rank_witness_verdict(self.rank_est, self.framed, restarts=8, seed=s[1])
        self.witness_batch = dhd.sample_q(self.state, WITNESS_N, s[2], n_workers=1)
        self.witness = negativity.estimate_omega(self.witness_batch, 0, 1, self.witness_cfg)

    def check(self, fail):
        zeta = -self.r  # sample_unbalanced detects S(zeta) rho S(zeta)^dag
        squeezed = fs.apply_gaussian(self.state, fs.GaussianUnitaryParams(abs(zeta), math.pi, 0j))
        check_photon_number(fail, "rank_certificate", self.rank_batch.effective_samples(), squeezed)
        truth = fs.fidelity(self.state, self.framed)
        check_estimate(fail, "rank_certificate", self.rank_est.value, self.rank_batch.n, truth,
                       self.rank_est.bias_bound, squeezed, self.rank_cfg)
        rank = self.verdict["certified_rank"]
        if rank not in (0, 1):
            fail("rank_certificate", f"certified rank {rank} of a rank-1 target")
        check_photon_number(fail, "negativity_certificate", self.witness_batch.effective_samples(), self.state)
        omega = negativity.omega_true(self.state, 0, 1)
        check_estimate(fail, "negativity_certificate", self.witness.omega_estimate, self.witness_batch.n,
                       omega, self.witness.estimate.bias_bound, self.state, self.witness_cfg)
        ceiling = self.verdict["threshold_used"]
        self.outputs = {
            "rank_certified": int(rank >= 1),
            "rank_false_certificates": int(rank >= 1 and truth <= ceiling),
            "negativity_certified": int(self.witness.negativity_certified),
            "negativity_false_certificates": int(self.witness.negativity_certified and omega <= 0.5),
        }

    def probe_two_workers(self, one_worker_s: float) -> tuple:
        """Resample the balanced batch on two threads.

        Returns the one-thread time over the two-thread time, and whether
        the two batches are byte-identical.
        """
        t0 = time.perf_counter()
        batch = dhd.sample_q(self.state, WITNESS_N, self.seeds[2], n_workers=2)
        two = time.perf_counter() - t0
        return one_worker_s / two, batch.samples.tobytes() == self.witness_batch.samples.tobytes()


class Scan(Workload):
    """CLI witness-scan over a 32x32 alpha grid of the fig-5 state."""

    OPS = ("state", "witness-scan")

    def setup(self):
        self.state_file = self.dir / "fig5.json"
        self.cli("state", ["state", "--spec", json.dumps(FIG5_SPEC), "--out", self.state_file])

    def run(self):
        self.out = self.dir / "scan.csv"
        self.cli("witness-scan", [
            "witness-scan", "--state", self.state_file, "--grid", f"{SCAN_GRID}x{SCAN_GRID}:{SCAN_EXTENT}",
            "--n-samples", SCAN_N, "--seed", self.seeds[0], "--workers", 1, "--out", self.out,
        ])

    def check(self, fail):
        self.check_manifest(fail, "state", self.state_file)
        self.check_manifest(fail, "witness-scan", self.out)
        state = fs.TruncatedState.from_json_dict(json.loads(self.state_file.read_text()))
        rows = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        axis = np.linspace(-SCAN_EXTENT, SCAN_EXTENT, SCAN_GRID)
        alphas = (axis[:, None] + 1j * axis[None, :]).ravel()
        if rows.shape != (alphas.size, 6) or not np.allclose(rows[:, 0] + 1j * rows[:, 1], alphas, atol=1e-9):
            fail("witness-scan", f"scan rows {rows.shape} do not match the {alphas.size}-point grid")
            return
        cfg = negativity.choose_witness_params(state, 1, 0.1, SCAN_N)
        mean, sd = self.scan_moments(state, cfg)
        bias = cfg.bias()
        omega = np.array([negativity.omega_true(state, a, 1) for a in alphas])
        biased = np.abs(mean - omega) > bias + EXACT_TOL
        missed = np.abs(rows[:, 2] - mean) > SCAN_SE_Z * sd / math.sqrt(SCAN_N)
        for bad, what in ((biased, "expected omega beyond the bias bound of omega_true"),
                          (missed, f"omega more than {SCAN_SE_Z} standard errors from its mean")):
            if bad.any():
                fail("witness-scan", f"{what} at {bad.sum()} points, first {alphas[bad][0]:.3f}")
        cert = rows[:, 5] == 1
        self.outputs = {"points": alphas.size, "points_certified": int(cert.sum()),
                        "points_false_certificates": int((cert & (omega <= 0.5)).sum())}

    @staticmethod
    def scan_moments(state, cfg) -> tuple:
        """Mean and standard deviation of h(z - alpha) under Q at every scan point.

        One FFT convolution of Q with the witness kernel h, which is radial
        and so even, on a grid whose spacing divides the scan's.
        """
        from scipy.signal import fftconvolve  # not before the timed section: it adds to setup_s and RSS

        d = SCAN_EXTENT / (SCAN_GRID - 1)  # half the scan step
        m = math.ceil((SCAN_EXTENT + QUAD_EXTENT) / d)
        q = q_weights(state, d * np.arange(-m, m + 1))
        k = math.ceil(QUAD_EXTENT / d)
        u = d * np.arange(-k, k + 1)
        h = est.kernel_values((u[:, None] + 1j * u[None, :]).ravel(), cfg).reshape(u.size, u.size)
        mean = fftconvolve(q, h, mode="same")
        sd = np.sqrt(np.maximum(fftconvolve(q, h * h, mode="same") - mean**2, 0.0))
        idx = m + np.arange(SCAN_GRID) * 2 - (SCAN_GRID - 1)  # grid index of each scan coordinate
        return mean[np.ix_(idx, idx)].ravel(), sd[np.ix_(idx, idx)].ravel()


class Profile(Workload):
    """CLI profile of Fock 2 against stellar ranks 0 and 1; no samples."""

    OPS = ("profile",)

    def run(self):
        self.out = self.dir / "profile.csv"
        self.cli("profile", ["profile", "--target", PROFILE_TARGET, "--seed", self.seeds[0],
                             "--out", self.out])

    def check(self, fail):
        self.check_manifest(fail, "profile", self.out)
        rows = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        ceilings = rows[:, 1] if rows.shape[0] else []
        if len(ceilings) != len(PROFILE_CEILINGS) or not np.allclose(ceilings, PROFILE_CEILINGS, rtol=0, atol=PROFILE_TOL):
            fail("profile", f"ceilings {list(ceilings)} differ from {PROFILE_CEILINGS}")


class Pipeline(Workload):
    """CLI chain state -> sample -> estimate on a lossy two-photon state."""

    OPS = ("state", "sample", "estimate")

    def run(self):
        d = self.dir
        self.state_file, self.samples, self.report = d / "lossy.json", d / "samples.csv", d / "report.json"
        spec = {"lossy_fock": {"n": 2, "eta": 0.8, "dim": 8}}
        self.cli("state", ["state", "--spec", json.dumps(spec), "--out", self.state_file])
        self.cli("sample", ["sample", "--state", self.state_file, "--n", PIPELINE_N,
                            "--seed", self.seeds[0], "--workers", 1, "--out", self.samples])
        self.cli("estimate", ["estimate", "--samples", self.samples, "--target", "fock:2",
                              "--epsilon", 0.3, "--delta", "none", "--out", self.report])

    def check(self, fail):
        for op, out in (("state", self.state_file), ("sample", self.samples), ("estimate", self.report)):
            self.check_manifest(fail, op, out)
        samples = np.loadtxt(self.samples, delimiter=",", comments="#", ndmin=2)
        if samples.shape != (PIPELINE_N, 2):
            fail("sample", f"sample file holds {samples.shape}, not {PIPELINE_N} re,im rows")
            return
        report = json.loads(self.report.read_text())
        if report["N"] != PIPELINE_N:
            fail("estimate", f"report counts N={report['N']}, not {PIPELINE_N}")
        state = fs.TruncatedState.from_json_dict(json.loads(self.state_file.read_text()))
        check_photon_number(fail, "sample", samples[:, 0] + 1j * samples[:, 1], state)
        cfg = est.EstimatorConfig(fs.TargetOperator.fock_projector(2), report["p"], report["eta"], 0.3, None)
        check_estimate(fail, "estimate", report["value"], PIPELINE_N, PIPELINE_TRUTH,
                       report["bias_bound"], state, cfg)


WORKLOADS = {"campaign": Campaign, "scan": Scan, "profile": Profile, "pipeline": Pipeline}
