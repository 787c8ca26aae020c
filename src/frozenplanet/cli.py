"""Command-line front end: solves, sweeps, verification reports, export.

Every command prints one JSON summary on stdout (``_emit``): its
``config`` first, then its results, then its verdict ``ok`` (floats in
Python's shortest round-trip form; reruns are byte-identical).  It writes
the requested data files: JSON, one compact JSONL line per path record,
and CSV tables (``serialize``).  Exit codes: 0 when ``ok`` (every checked
residual is within tolerance), 1 on a tolerance violation, 2 on a domain
or configuration error.  Error messages name the violated invariant tag.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import detline, elliptic, frozen, helium, levi_civita, loops, serialize, solve
from .errors import FrozenPlanetError

#: upper limits of the count arguments, checked before anything is allocated;
#: each keeps the largest single allocation under about 1 GiB
MAX_COUNTS = {"modes": 1024, "steps": 100_000, "samples": 65_536, "grid": 1_000_000}
#: detline assembles dense (2N+1)^2 operators and takes one SVD per step
MAX_DETLINE_MODES = 512
#: the gate of the shape-identity residuals and of the energy fluctuation
IDENTITY_GATE = 1e-7
#: the gate of the collision-ODE residuals (``continue``, ``identity``)
ODE_GATE = 1e-5


def _config(args):
    """The arguments a command ran with, ``command`` among them."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}


def _emit(args, fields, ok):
    """Print the command's JSON summary, its config first and its verdict
    ``ok`` last, and return the exit code: 0 when ok, else 1."""
    print(serialize.dumps({"config": _config(args), **fields, "ok": ok}))
    return 0 if ok else 1


def _check_size(name, value, cap):
    """Reject a count outside [1, cap] with cli.size."""
    if not 1 <= value <= cap:
        raise FrozenPlanetError(f"{name} must lie in [1, {cap}], got {value:.6g}", tag="cli.size")


def _read(path, build):
    """build(fh) on an open input file; unreadable or malformed content is a
    cli.input error."""
    try:
        with open(path) as fh:
            return build(fh)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise FrozenPlanetError(
            f"cannot read input {path!r}: {exc!r}", tag="cli.input"
        ) from exc


def _cert(fh):
    return serialize.cert_from_dict(json.load(fh))


def _loop(fh):
    data = json.load(fh)
    return loops.loop_from_json(data if "class" in data else data["loop"])


def _write(path, text):
    """Write text to an output file, when one is asked for; an unwritable
    path is a cli.output error."""
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise FrozenPlanetError(
                f"cannot write output {path!r}: {exc!r}", tag="cli.output"
            ) from exc


def _one_loop_ok(cert, upper_ok, checks):
    """The one-loop verdict: the certificate's shape-identity residuals and
    energy fluctuation below ``IDENTITY_GATE``, the sup upper bound, and
    of the further checks a command computes (keyed as in
    ``solve.frozen_step_diagnostics``) both collision-ODE residuals below
    ``ODE_GATE`` and Morse index 0 with nullity 0."""
    return bool(
        max(cert.identity_res) < IDENTITY_GATE
        and cert.energy_dev < IDENTITY_GATE
        and upper_ok
        and all(checks.get(key, 0.0) < ODE_GATE for key in ("ode_res", "beta_mu_res"))
        and checks.get("morse_index", 0) == checks.get("nullity", 0) == 0
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args):
    if not 0.0 < args.tol < np.inf:
        raise FrozenPlanetError("tolerance must be finite and positive", tag="cli.config")
    frozen.check_r(args.r)
    path = solve.solve_frozen(args.r, n_modes=args.modes)
    cert = path.steps[-1].cert
    bounds = frozen.sup_bounds(cert.z, cert.r)
    ok = cert.grad_res < args.tol and _one_loop_ok(cert, bounds["upper_ok"], {})
    _write(args.out, serialize.dumps({"config": _config(args),
                                      "cert": serialize.cert_to_dict(cert)}) + "\n")
    return _emit(
        args,
        {
            "r": cert.r,
            "grad_res": cert.grad_res,
            "v": cert.v,
            "w": cert.w,
            "identity_res": cert.identity_res,
            "energy_dev": cert.energy_dev,
            "sup_upper_ok": bounds["upper_ok"],
        },
        ok,
    )


def cmd_continue(args):
    frozen.check_r(args.start, args.stop)
    x0 = solve.FrozenObjective(0.0, args.modes).pack(solve.free_fall_seed(args.modes))
    path = solve.continuation(
        lambda p: solve.FrozenObjective(p, args.modes),
        args.start,
        args.stop,
        x0,
        diagnostics=solve.frozen_step_diagnostics,
        through=(helium.RHO,),
    )
    if args.out:
        _write(args.out, "".join(serialize.dumps(rec, None) + "\n" for rec in serialize.path_records(path)))
    _write(args.summary, serialize.path_summary_csv(path))
    ok = all(_one_loop_ok(s.cert, s.diagnostics["sup_upper_ok"], s.diagnostics) for s in path.steps)
    diags = [s.diagnostics for s in path.steps]
    return _emit(
        args,
        {
            "steps": len(path.steps),
            "failures": len(path.failures),
            "worst_identity_res": max(max(s.cert.identity_res) for s in path.steps),
            "worst_ode_res": max(d["ode_res"] for d in diags),
            "indices": sorted({d["morse_index"] for d in diags}),
        },
        ok,
    )


def cmd_spectrum(args):
    cert = _read(args.input, _cert)
    rep = solve.spectrum(cert, space=args.space)
    fields = {
        "morse_index": rep.morse_index,
        "nullity": rep.nullity,
        "mu": rep.mu,
        "min_abs": rep.min_abs,
        "eigenvalues": rep.eigenvalues,
    }
    if rep.kernel_alignment is not None:
        fields["kernel_alignment"] = rep.kernel_alignment
    return _emit(args, fields, rep.nullity == (1 if args.space == "full" else 0))


def cmd_identity(args):
    cert = _read(args.input, _cert)
    qres = levi_civita.loop_residual(cert.z, cert.r, samples=args.samples)
    bounds = frozen.sup_bounds(cert.z, cert.r)
    ok = _one_loop_ok(cert, bounds["upper_ok"], qres)
    return _emit(
        args,
        {
            "identity_res": cert.identity_res,
            "energy_dev": cert.energy_dev,
            "ode_res": qres["ode_res"],
            "beta_mu_res": qres["beta_mu_res"],
            "sup": bounds["sup"],
            "sup_upper_ok": bounds["upper_ok"],
            "sup_lower_diagnostic": bounds["lower_ok"],
        },
        ok,
    )


def cmd_elliptic(args):
    try:
        lo, hi, step = (float(tok) for tok in args.grid.split(":"))
    except ValueError as exc:
        raise FrozenPlanetError(
            f"grid must be 'lo:hi:step', got {args.grid!r}", tag="cli.grid"
        ) from exc
    if not np.all(np.isfinite((lo, hi, step))):
        raise FrozenPlanetError(f"grid bounds must be finite, got {args.grid!r}", tag="cli.grid")
    if step <= 0 or hi < lo:
        raise FrozenPlanetError("grid range must be well ordered", tag="cli.grid")
    _check_size("--grid point count", (hi - lo) / step + 1.0, MAX_COUNTS["grid"])
    ms = np.arange(lo, hi + 0.5 * step, step)
    ms = ms[ms < 1.0 - 1e-9]
    rows, evaluated = [], []
    for m in ms:
        rep = elliptic.identities_report(m)
        if rep["rec_res"] is None:  # |m| below elliptic.M_ORIGIN: only i2_res
            res = (np.nan, rep["i2_res"], np.nan, np.nan)
        else:
            res = (rep["rec_res"], rep["i2_res"], rep["der_res"], elliptic.riccati_residual(m))
            evaluated.append(rep["rec_res"])
        vals = rep["I"]
        table = (vals[n] if n in vals else elliptic.In(n, m) for n in range(5))
        rows.append((m, *table, *(rep["KE"] or elliptic.KE(m)), *res))
    _write(args.out, serialize.table("m,I0,I1,I2,I3,I4,K,E,rec_res,i2_res,der_res,riccati_res", rows))
    worst_rec = max(evaluated, default=0.0)
    return _emit(args, {"points": len(rows), "worst_rec_res": worst_rec}, worst_rec < 1e-9)


def cmd_lc(args):
    z = _read(args.input, _loop)
    orbit = levi_civita.forward(z, n_t=args.samples)
    _write(args.out, serialize.orbit_to_csv(orbit))
    l2_sq, d1_sq, _ = loops.norm_data(z)
    recip = levi_civita.reciprocal_integral(orbit)
    qbar_quad = levi_civita.qbar_from_samples(orbit)
    recip_res = abs(recip - 1.0 / l2_sq)
    qbar_res = abs(qbar_quad - orbit.qbar)
    qdot_res = abs(levi_civita.qdot_l2_sq(orbit) - 4.0 * l2_sq * d1_sq)
    ok = recip_res < 1e-6 and qbar_res < 1e-6 and qdot_res < 1e-6
    return _emit(
        args,
        {
            "qbar": orbit.qbar,
            "reciprocal_res": recip_res,
            "qbar_res": qbar_res,
            "qdot_norm_res": qdot_res,
            "zeros": orbit.zeros,
            "sign_convention": "z > 0 on (0, 1)",
        },
        ok,
    )


def cmd_helium(args):
    if args.input:
        pair = _read(args.input, lambda fh: serialize.pair_from_dict(json.load(fh)))
    else:
        path = solve.solve_frozen(helium.RHO, n_modes=args.modes)
        pair = helium.bridge_pair(path.steps[-1].cert.z)
    if args.mode == "av":
        out = helium.b_av(pair)
    elif args.mode == "in":
        out = helium.b_in(pair)
    else:
        out = helium.b_interp(pair, args.s)
    res = loops.l2_norm(*out["gradient"])
    if args.csv:
        _write(args.csv, serialize.pair_orbit_csv(pair))
    bridge_res = helium.bridge_check(pair.z2)
    ok = bridge_res < 1e-11
    return _emit(
        args,
        {
            "value": out["value"],
            "grad_res": float(res),
            "bridge_res": bridge_res,
        },
        ok,
    )


def cmd_euler(args):
    records = _read(args.path, lambda fh: [json.loads(line) for line in fh if line.strip()])
    if not records:
        return _emit(args, {"euler": 0}, True)
    indices, counts = [], []
    for rec in records:
        diag = rec.get("diagnostics") if isinstance(rec, dict) else None
        diag = diag if isinstance(diag, dict) else {}
        index, nullity = diag.get("morse_index"), diag.get("nullity")
        # JSON integers only (the type of true and false is bool, not int)
        if not all(type(v) is int and v >= 0 for v in (index, nullity)):
            raise FrozenPlanetError(
                "path records need non-negative integer morse_index and nullity",
                tag="cli.euler-input",
            )
        indices.append(index)
        counts.append(solve.euler_count([(index, nullity)]))
    return _emit(args, {"euler": counts[-1], "indices": indices}, len(set(counts)) == 1)


def cmd_detline(args):
    if args.demo != "counterexample":
        raise FrozenPlanetError(
            f"unknown demo {args.demo!r}", tag="cli.detline-demo"
        )
    family = detline.OperatorFamily(n_modes=args.modes, a=args.a, b=args.b)
    result = detline.holonomy(family, n_steps=args.steps)
    _write(args.out, serialize.holonomy_trace_csv(result, args.modes))
    ok = result["sign"] == -1 and result["min_alignment"] > 0.999
    return _emit(
        args,
        {
            "sign": result["sign"],
            "min_alignment": result["min_alignment"],
        },
        ok,
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise the tagged cli.config
    error, so that ``main`` reports them as JSON like every other exit 2.
    Sub-command parsers are built from the same class."""

    def error(self, message):
        raise FrozenPlanetError(f"{self.prog}: {message}", tag="cli.config")


@functools.cache
def build_parser():
    """The command-line parser, built once per process: ``parse_args``
    makes a new namespace on every call and leaves the parser as it was."""
    parser = _Parser(
        prog="frozenplanet",
        description="Regularized frozen-planet orbits: solving, identities, "
        "spectra, and determinant-line demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the one-loop family at a parameter")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--modes", type=int, default=solve.DEFAULT_MODES)
    p.add_argument("--tol", type=float, default=frozen.CERT_TOL)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("continue", help="parameter continuation with diagnostics")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--modes", type=int, default=solve.DEFAULT_MODES)
    p.add_argument("--out", type=str, default=None, help="JSONL path records")
    p.add_argument("--summary", type=str, default=None, help="CSV summary")
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("spectrum", help="spectral report of a certificate")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--space", choices=("symmetric", "full"), default="symmetric")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("identity", help="identity residuals of a certificate")
    p.add_argument("--input", type=str, required=True)
    p.add_argument(
        "--samples", type=int, default=8192, help="uniform tau-points of the collision-ODE residual"
    )
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("elliptic", help="elliptic-integral table over a grid")
    p.add_argument("--grid", type=str, required=True, help="lo:hi:step")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_elliptic)

    p = sub.add_parser("lc", help="Levi-Civita transform and mean identities")
    p.add_argument("--input", type=str, required=True, help="loop JSON")
    p.add_argument("--samples", type=int, default=8192)
    p.add_argument("--out", type=str, default=None, help="orbit CSV")
    p.set_defaults(func=cmd_lc)

    p = sub.add_parser("helium", help="pair functionals (mean/instantaneous)")
    p.add_argument("--mode", choices=("av", "in", "interp"), required=True)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--input", type=str, default=None, help="pair JSON")
    p.add_argument("--modes", type=int, default=32)
    p.add_argument("--csv", type=str, default=None, help="orbit pair CSV")
    p.set_defaults(func=cmd_helium)

    p = sub.add_parser("euler", help="signed count along a path of records")
    p.add_argument("--path", type=str, required=True, help="JSONL records")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("detline", help="determinant-line demonstrations")
    p.add_argument("--demo", type=str, default="counterexample")
    p.add_argument("--modes", type=int, default=8)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_detline)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        caps = dict(MAX_COUNTS, modes=MAX_DETLINE_MODES) if args.command == "detline" else MAX_COUNTS
        for name in ("modes", "steps", "samples"):
            if hasattr(args, name):
                _check_size(f"--{name}", getattr(args, name), caps[name])
        # an overflow is reported by its tagged error or its checked
        # residual, so stderr holds at most the one JSON error object
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except FrozenPlanetError as exc:
        print(
            serialize.dumps({"error": str(exc), "invariant": exc.tag}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
