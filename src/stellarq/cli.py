"""Command-line orchestration: states, sampling, estimation, scans.

Subcommands: state, sample, estimate, optimize-params, profile,
witness-scan.  Every output file gets a sidecar ``<out>.manifest.json``
recording the exact command line, input/output digests, seeds, and
versions, sufficient to regenerate the output byte-for-byte.  All errors
print a JSON object with a machine-readable code to stderr; the exit
status is 0 on success, 64 for a malformed command line or input, and 2
for any other library error.

A complex pair whose real part is negative must be joined to its flag
with ``=``, as in ``--zeta=-0.3,0``: argparse reads a separate value
that starts with ``-`` as an option.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from . import dhd, estimator, negativity, stellar
from . import fockspace as fs
from .errors import StellarQError, UsageError

_EXIT_USAGE = 64
_EXIT_ERROR = 2


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(argv, inputs, out, seed, t0) -> None:
    cfg = json.dumps(argv, sort_keys=True).encode()
    manifest = {
        "command": ["stellarq"] + list(argv),
        "config_hash": hashlib.sha256(cfg).hexdigest(),
        "seed": seed,
        "versions": {
            "stellarq": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(out): _sha256(out)},
        "wall_time_s": time.monotonic() - t0,
    }
    _write_json(f"{out}.manifest.json", manifest)


def _complex_arg(text: str, what: str) -> complex:
    try:
        if "," in text:
            re_s, im_s = text.split(",")
            return complex(float(re_s), float(im_s))
        return complex(float(text), 0.0)
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} {text!r}; expected re or re,im") from exc


# ---------------------------------------------------------------------------
# State construction from a JSON spec
# ---------------------------------------------------------------------------

_CONSTRUCTORS = ("fock", "lossy_fock", "squeezed_thermal", "core")
_CHANNELS = ("photon_subtract", "photon_add", "gaussian")


def _need(params: dict, key: str, pointer: str, types, checker=None):
    if key not in params:
        raise UsageError(f"missing required field at {pointer}/{key}", pointer=f"{pointer}/{key}")
    val = params[key]
    if not isinstance(val, types):
        raise UsageError(
            f"field {pointer}/{key} has wrong type {type(val).__name__}",
            pointer=f"{pointer}/{key}",
        )
    if checker and not checker(val):
        raise UsageError(f"field {pointer}/{key} = {val!r} out of range", pointer=f"{pointer}/{key}")
    return val


def _gaussian_params(params: dict, pointer: str) -> fs.GaussianUnitaryParams:
    real = (int, float)
    r = 0.0
    if params.get("r") is not None:
        r = float(_need(params, "r", pointer, real))
    elif "db" in params:
        r = fs.db_to_r(_need(params, "db", pointer, real))
    theta = float(_need(params, "theta", pointer, real)) if "theta" in params else 0.0
    beta = 0j
    if "beta" in params:
        b = _need(params, "beta", pointer, list,
                  lambda v: len(v) == 2 and all(isinstance(c, real) for c in v))
        beta = complex(float(b[0]), float(b[1]))
    return fs.GaussianUnitaryParams(r, theta, beta)


def _build_step(state, op: str, params: dict, pointer: str):
    if state is None and op not in _CONSTRUCTORS:
        raise UsageError(
            f"pipeline must start with a constructor, got {op!r} at {pointer}",
            pointer=pointer,
        )
    if state is not None and op in _CONSTRUCTORS:
        raise UsageError(
            f"constructor {op!r} cannot follow an existing state at {pointer}",
            pointer=pointer,
        )
    if op == "fock":
        n = _need(params, "n", pointer, int, lambda v: v >= 0)
        dim = _need(params, "dim", pointer, int, lambda v: v > 0)
        return fs.make_fock(n, dim)
    if op == "lossy_fock":
        n = _need(params, "n", pointer, int, lambda v: v >= 0)
        eta = _need(params, "eta", pointer, (int, float), lambda v: 0 <= v <= 1)
        dim = _need(params, "dim", pointer, int, lambda v: v > 0)
        return fs.make_lossy_fock(n, float(eta), dim)
    if op == "squeezed_thermal":
        g = _gaussian_params(params, pointer)
        purity = _need(params, "purity", pointer, (int, float), lambda v: 0 < v <= 1)
        dim = _need(params, "dim", pointer, int, lambda v: v > 0)
        return fs.make_squeezed_thermal(g.squeeze_r, g.squeeze_theta, float(purity), dim)
    if op == "core":
        coeffs = _parse_coeffs(params, pointer)
        g = _gaussian_params(params, pointer)
        dim = _need(params, "dim", pointer, int, lambda v: v > 0)
        core = fs.CoreState.from_unnormalized(coeffs, g)
        return core.to_state(dim)
    if op == "photon_subtract":
        return fs.photon_subtract(state)
    if op == "photon_add":
        return fs.photon_add(state)
    if op == "gaussian":
        g = _gaussian_params(params, pointer)
        out_dim = _need(params, "out_dim", pointer, int, lambda v: v > 0) if "out_dim" in params else None
        return fs.apply_gaussian(state, g, out_dim=out_dim)
    raise UsageError(f"unknown state operation {op!r} at {pointer}", pointer=pointer)


def build_state_from_spec(spec: dict) -> fs.TruncatedState:
    if not isinstance(spec, dict) or not spec:
        raise UsageError("state spec must be a nonempty JSON object", pointer="/")
    if "pipeline" in spec:
        steps = spec["pipeline"]
        if not isinstance(steps, list) or not steps:
            raise UsageError("field /pipeline must be a nonempty array", pointer="/pipeline")
        state = None
        for i, step in enumerate(steps):
            if not isinstance(step, dict) or len(step) != 1:
                raise UsageError(
                    f"pipeline step /pipeline/{i} must be a single-key object",
                    pointer=f"/pipeline/{i}",
                )
            (op, params), = step.items()
            state = _build_step(state, op, params or {}, f"/pipeline/{i}/{op}")
        return state
    if len(spec) != 1:
        raise UsageError("state spec must contain exactly one operation", pointer="/")
    (op, params), = spec.items()
    return _build_step(None, op, params or {}, f"/{op}")


def _load_input(load, path, what: str):
    """``load(path)``, with an unreadable or malformed file as a usage error."""
    try:
        return load(path)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise UsageError(f"malformed {what} {path}: {exc}") from exc


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_state(path) -> fs.TruncatedState:
    return _load_input(
        lambda p: fs.TruncatedState.from_json_dict(_read_json(p)), path, "state file"
    )


# ---------------------------------------------------------------------------
# Target specs
# ---------------------------------------------------------------------------


def _parse_coeffs(spec: dict, pointer: str) -> list:
    """Core coefficients at ``{pointer}/coeffs``: numbers or [re, im] pairs."""
    raw = _need(spec, "coeffs", pointer, list, lambda v: len(v) >= 1)
    try:
        return [complex(float(c[0]), float(c[1])) if isinstance(c, list) else complex(c) for c in raw]
    except (TypeError, ValueError, IndexError) as exc:
        raise UsageError(
            f"field {pointer}/coeffs holds a non-numeric coefficient", pointer=f"{pointer}/coeffs"
        ) from exc


def _parse_target(text: str):
    """`fock:N`, `witness:N` / `witness:n=N`, or a JSON `{"coeffs": [...]}` core.

    Returns (operator, (kind, payload)) with payload the index N for
    `fock` and `witness`, and the CoreState for `core`.
    """
    kind, _, tail = text.partition(":")
    if kind in ("fock", "witness"):
        if kind == "witness" and tail.startswith("n="):
            tail = tail[2:]
        if not tail.isdecimal():
            raise UsageError(f"cannot parse target {text!r}; expected {kind}:N")
        n = int(tail)
        if kind == "fock":
            return fs.TargetOperator.fock_projector(n), ("fock", n)
        return negativity.witness_operator(n), ("witness", n)
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"cannot parse target spec {text!r}") from exc
    if not isinstance(spec, dict):
        raise UsageError("target spec must be fock:N, witness:N, or JSON with coeffs")
    core = fs.CoreState.from_unnormalized(_parse_coeffs(spec, ""))
    return fs.TargetOperator.core_projector(core), ("core", core)


def _explicit_params(args):
    """(p, eta) from --p and --eta, or None when neither is given."""
    if (args.p is None) != (args.eta is None):
        raise UsageError("--p and --eta go together: give both or neither")
    return None if args.p is None else (args.p, args.eta)


def _at_least(flag: str, value, least: int) -> None:
    """A count flag below its least value is a usage error; None is unset."""
    if value is not None and value < least:
        raise UsageError(f"{flag} must be at least {least}, got {value}")


# ---------------------------------------------------------------------------
# Subcommands: each writes args.out and returns (summary, inputs, seed), from
# which ``main`` prints the one-line JSON summary and writes the manifest
# ---------------------------------------------------------------------------


def cmd_state(args):
    if args.spec_file:
        spec = _load_input(_read_json, args.spec_file, "spec file")
        inputs = [args.spec_file]
    elif args.spec is None:
        raise UsageError("state needs --spec or --spec-file")
    else:
        try:
            spec = json.loads(args.spec)
        except json.JSONDecodeError as exc:
            raise UsageError(f"state spec is not valid JSON: {exc}") from exc
        inputs = []
    state = build_state_from_spec(spec)
    _write_json(args.out, state.to_json_dict())
    summary = {"out": args.out, "dim": state.dim, "trace_deficit": state.trace_deficit, "purity": state.purity}
    return summary, inputs, None


def cmd_sample(args):
    _at_least("--n", args.n, 0)
    _at_least("--workers", args.workers, 1)
    state = _load_state(args.state)
    zeta = _complex_arg(args.zeta, "--zeta") if args.zeta else 0j
    batch = dhd.sample_unbalanced(state, zeta, args.n, args.seed, n_workers=args.workers)
    dhd.save_csv(batch, args.out)
    return {"out": args.out, "n": batch.n, "acceptance_rate": batch.acceptance_rate}, [args.state], args.seed


def cmd_estimate(args):
    target, kind = _parse_target(args.target)
    explicit = _explicit_params(args)
    try:
        delta = None if args.delta in (None, "none") else float(args.delta)
    except ValueError as exc:
        raise UsageError(f"cannot parse --delta {args.delta!r}; expected a number or 'none'") from exc
    batch = _load_input(dhd.load_csv, args.samples, "samples file")
    optimize_delta = None
    if explicit is not None:
        p, eta = explicit
    elif target.is_diagonal:
        # with --delta none the CLT interval has no delta to optimize for;
        # the report records the one used
        optimize_delta = delta if delta else 0.05
        n_top = max(k for k, _ in target.diagonal_entries())
        opt = estimator.optimize_params(n_top, args.epsilon, optimize_delta)
        p, eta = opt.config.p, opt.config.eta
    else:
        raise UsageError("non-diagonal targets need explicit --p and --eta")
    config = estimator.EstimatorConfig(
        target=target,
        p=p,
        eta=eta,
        epsilon=args.epsilon,
        delta=delta,
        bound_method=args.method,
    )
    if kind[0] == "witness":
        alpha = _complex_arg(args.translate, "--translate") if args.translate else 0j
        wit = negativity.estimate_omega(batch, alpha, kind[1], config)
        report = wit.estimate.to_report_dict()
        report.update(
            {
                "omega": wit.omega_estimate,
                "omega_lower_bound": wit.lower_bound,
                "negativity_certified": wit.negativity_certified,
                "wigner_upper_bound": wit.wigner_upper_bound,
                "one_sided_confidence": wit.confidence,
                "delta_cert": wit.estimate.delta_cert,
                "alpha": [wit.alpha.real, wit.alpha.imag],
            }
        )
    else:
        if args.translate:
            batch = dhd.translate_samples(batch, _complex_arg(args.translate, "--translate"))
        res = estimator.estimate(batch, config)
        report = res.to_report_dict()
    if optimize_delta is not None:
        report["optimize_delta"] = optimize_delta
    _write_json(args.out, report)
    summary = {"out": args.out, "value": report["value"], "confidence": report["confidence"]}
    return summary, [args.samples], batch.seed


def cmd_optimize_params(args):
    report = estimator.optimize_params(args.n, args.epsilon, args.delta).to_report_dict()
    _write_json(args.out, report)
    return report, [], None


def cmd_profile(args):
    _at_least("--k-max", args.k_max, 1)
    _at_least("--restarts", args.restarts, 0)
    _at_least("--rank1-sweep", args.rank1_sweep, 1)
    if args.rank1_sweep is not None:
        phis = np.linspace(0.0, math.pi / 2.0, args.rank1_sweep)
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("phi,max_fidelity\n")
            for phi in phis:
                ceiling = stellar.rank1_core_profile(float(phi), restarts=args.restarts, seed=args.seed)
                fh.write(f"{phi:.12g},{ceiling:.12g}\n")
    else:
        if args.target is None:
            raise UsageError("profile needs --target or --rank1-sweep")
        _, (kind, payload) = _parse_target(args.target)
        if kind == "witness":
            raise UsageError("profile targets are fock:N or JSON coeffs")
        target = fs.CoreState.fock(payload) if kind == "fock" else payload
        k_max = target.stellar_rank if args.k_max is None else args.k_max
        if k_max == 0:
            raise UsageError("the target has stellar rank 0, so --k-max has no default; give --k-max 1 or more")
        points = stellar.fidelity_profile(target, k_max, restarts=args.restarts, seed=args.seed)
        stellar.profile_to_csv(points, args.out)
    return {"out": args.out}, [], args.seed


def cmd_witness_scan(args):
    explicit = _explicit_params(args)
    _at_least("--n-samples", args.n_samples, 1)
    _at_least("--workers", args.workers, 1)
    state = _load_state(args.state)
    try:
        nx_ny, extent_s = args.grid.split(":")
        nx, ny = (int(t) for t in nx_ny.lower().split("x"))
        extent = float(extent_s)
    except ValueError as exc:
        raise UsageError(f"cannot parse --grid {args.grid!r}; expected NXxNY:EXTENT") from exc
    if nx < 1 or ny < 1:
        raise UsageError(f"--grid {args.grid!r} has no points")
    re = np.linspace(-extent, extent, nx)
    im = np.linspace(-extent, extent, ny)
    if explicit is not None:
        config = estimator.EstimatorConfig(
            target=negativity.witness_operator(args.n),
            p=explicit[0],
            eta=explicit[1],
            epsilon=args.epsilon,
            delta=None,
            bound_method=args.method,
        )
    else:
        config = replace(
            negativity.choose_witness_params(state, args.n, args.epsilon, args.n_samples),
            bound_method=args.method,
        )
    results = negativity.witness_scan(
        state, re, im, args.n, config, args.seed, args.n_samples, n_workers=args.workers
    )
    negativity.scan_to_csv(results, args.out)
    certified = sum(1 for r in results if r.negativity_certified)
    return {"out": args.out, "points": len(results), "certified": certified}, [args.state], args.seed


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with a malformed command line raised as a UsageError (exit 64).

    Subcommand parsers inherit the class, so every parse error takes this
    path; --help and --version still print and exit 0.
    """

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="stellarq",
        description=(
            "Simulate double homodyne detection of single-mode states and certify "
            "stellar rank and Wigner negativity with finite-sample confidence."
        ),
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="construct a state file from a JSON spec")
    p.add_argument("--spec", help="JSON spec, e.g. '{\"fock\":{\"n\":2,\"dim\":8}}'")
    p.add_argument("--spec-file", help="path to a JSON spec file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("sample", help="simulate double homodyne detection")
    p.add_argument("--state", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--zeta", help="unbalancing squeeze, re,im (negative: --zeta=-re,im)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="estimate Tr(A rho) from a sample file")
    p.add_argument("--samples", required=True)
    p.add_argument("--target", required=True, help="fock:N | witness:N | JSON coeffs")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", default="0.05", help="confidence parameter, or 'none'")
    p.add_argument("--method", choices=("hoeffding", "clt"), default="hoeffding")
    p.add_argument("--translate", help="displacement to revert, re,im (negative: --translate=-re,im)")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("optimize-params", help="optimized (p, eta, N) for Fock targets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize_params)

    p = sub.add_parser("profile", help="achievable-fidelity profile of a target")
    p.add_argument("--target", help="fock:N or JSON coeffs")
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--rank1-sweep", type=int, default=None, help="emit the rank-1 core-state curve instead")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("witness-scan", help="Wigner-negativity witness over an alpha grid")
    p.add_argument("--state", required=True)
    p.add_argument("--grid", default="32x32:2.5", help="NXxNY:EXTENT where alpha in [-EXTENT, EXTENT]^2")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--n-samples", type=int, default=550_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("hoeffding", "clt"), default="clt")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_witness_scan)
    return ap


def _parse(argv):
    """The parsed arguments, or None once --help or --version has printed."""
    try:
        return build_parser().parse_args(argv)
    except SystemExit:  # parse errors raise UsageError instead
        return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        if args is None:
            return 0
        t0 = time.monotonic()
        summary, inputs, seed = args.func(args)
    except UsageError as exc:
        print(json.dumps(exc.to_dict()), file=sys.stderr)
        return _EXIT_USAGE
    except StellarQError as exc:
        print(json.dumps(exc.to_dict()), file=sys.stderr)
        return _EXIT_ERROR
    print(json.dumps(summary))
    _write_manifest(argv, inputs, args.out, seed, t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
