"""The four benchmark workloads: set-up from a seed, one measured pass, checks.

``setup(seed, workdir)`` builds a workload's inputs.  ``run(inputs, k)``
computes every result of pass ``k`` and checks it.  It returns
``(checks, numbers)``: ``checks`` is a list of ``(label, passed)`` and
``numbers`` holds accuracy figures for the per-layer report.  Every pass
starts from the inputs alone (loops are rebuilt from coefficients), so
per-loop caches never carry over from one pass to the next.  Why each
workload exists is in bench/README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from frozenplanet import cli, detline, helium, levi_civita, loops, solve

RHO_MODES = 64
MEAN_N1, MEAN_N2, MEAN_STARTS, MEAN_KICK = 12, 32, 32, 1e-4
HOMOTOPY_N1, HOMOTOPY_N2 = 8, 16
LC_LOOPS, LC_BOUNDS = 4, (0.2, 0.05, 0.01)
LC_SAMPLES, LC_M_OUT = 4096, 512
LC_GATE = 1e-6
HOLONOMY_MODES, HOLONOMY_STEPS = 32, 400
# reported by every traced run, 0 where a workload does not compute them
ACCURACY_METRICS = ("levi_civita.roundtrip_err_max", "levi_civita.reciprocal_res_max")


def rho_certificate():
    """The r = rho certificate of a 0 -> rho continuation at N = 64."""
    return solve.solve_frozen(helium.RHO, n_modes=RHO_MODES).steps[-1].cert


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _parses(text):
    """``(value, True)`` if text is strict JSON, else ``(None, False)``.

    Python's parser accepts NaN and Infinity; strict JSON does not.
    """
    try:
        return json.loads(text, parse_constant=_reject_constant), True
    except ValueError:
        return None, False


def _read(path):
    """The file's text, or None when the command did not write it."""
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# oneloop-cli
# ---------------------------------------------------------------------------


def setup_oneloop_cli(seed, workdir):
    paths = {k: os.path.join(workdir, k) for k in ("path.jsonl", "summary.csv", "cert.json")}
    return {
        "continue": ["continue", "--from", "0", "--to", "5", "--modes", "64",
                     "--out", paths["path.jsonl"], "--summary", paths["summary.csv"]],
        "solve": ["solve", "--r", "5", "--modes", "128", "--out", paths["cert.json"]],
        "paths": paths,
    }


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_oneloop_cli(inp, k):
    paths = inp["paths"]
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    checks = []
    code, out = _cli(inp["continue"])
    summary, parsed = _parses(out)
    checks += [
        ("continue exit 0", code == 0),
        ("continue stdout JSON", parsed),
        ("continue ok", parsed and summary.get("ok") is True),
        ("continue indices == [0]", parsed and summary.get("indices") == [0]),
    ]
    lines = [line for line in (_read(paths["path.jsonl"]) or "").splitlines() if line.strip()]
    checks.append(("path JSONL lines parse", bool(lines) and all(_parses(l)[1] for l in lines)))
    rows = [line for line in (_read(paths["summary.csv"]) or "").splitlines() if line.strip()][1:]
    steps = summary.get("steps") if parsed else None
    checks.append(("summary CSV one row per step", steps is not None and len(rows) == steps == len(lines)))

    code, out = _cli(inp["solve"])
    result, parsed = _parses(out)
    cert_text = _read(paths["cert.json"])
    cert_parsed = cert_text is not None and _parses(cert_text)[1]
    checks += [
        ("solve exit 0", code == 0),
        ("solve stdout JSON", parsed),
        ("solve ok", parsed and result.get("ok") is True),
        ("solve cert file JSON", cert_parsed),
    ]
    return checks, {}


# ---------------------------------------------------------------------------
# pair-mean
# ---------------------------------------------------------------------------


def draw_mean_kicks(seed, size):
    """The seed-drawn start perturbations of the mean-pair solves."""
    rng = np.random.default_rng(seed)
    return [MEAN_KICK * rng.normal(size=size) for _ in range(MEAN_STARTS)]


def setup_pair_mean(seed, workdir):
    cert = rho_certificate()
    z32 = loops.from_coeffs(loops.ODD_SINE, cert.z.coeffs[:32])
    x0 = helium.PairObjective(0.0, n1=MEAN_N1, n2=MEAN_N2).pack(helium.bridge_pair(z32, n1=MEAN_N1))
    return {"starts": [x0 + kick for kick in draw_mean_kicks(seed, x0.size)]}


def run_pair_mean(inp, k):
    """One certified mean pair, from the k-th drawn start.

    Newton takes 3 or 4 iterations depending on the start, so passes cycle
    through the starts and the median pass time does not hinge on one draw.
    """
    starts = inp["starts"]
    obj = helium.PairObjective(0.0, n1=MEAN_N1, n2=MEAN_N2)
    rep = solve.newton(obj, starts[k % len(starts)], tol=1e-10)
    srep = solve.spectrum_report(obj.hessian(rep.x))
    cert = obj.certify(rep.x)
    return [
        ("full_residual < 1e-8", cert.full_res < 1e-8),
        ("z1_constancy < 1e-9", cert.z1_constancy() < 1e-9),
        ("nullity 0", srep.nullity == 0),
        ("Morse index 1", srep.morse_index == 1),
    ], {}


# ---------------------------------------------------------------------------
# pair-homotopy
# ---------------------------------------------------------------------------


def setup_pair_homotopy(seed, workdir):
    cert = rho_certificate()
    z32 = loops.from_coeffs(loops.ODD_SINE, cert.z.coeffs[:32])
    pair0 = helium.bridge_pair(z32, n1=HOMOTOPY_N1)
    return {"x0": helium.PairObjective(0.0, n1=HOMOTOPY_N1, n2=HOMOTOPY_N2).pack(pair0)}


def _homotopy_diagnostics(obj, x, rep):
    """The per-step diagnostics of the test suite's homotopy_path fixture."""
    pair = obj.unpack(x)
    h = obj.hessian(x)
    srep = solve.spectrum_report(h)
    hb = helium.hessian_bound(h, pair, obj.n1, obj.n2)
    xi = np.random.default_rng(11).normal(size=obj.n)
    xi /= np.linalg.norm(xi)
    hstep = 1e-5
    fd = (obj.value(x + hstep * xi) - obj.value(x - hstep * xi)) / (2 * hstep)
    ip = float(obj.gradient(x) @ xi)
    return {
        "morse_index": srep.morse_index,
        "nullity": srep.nullity,
        "bound_ok": hb["ok"],
        "grad_fd_rel": abs(fd - ip) / max(1.0, abs(fd)),
    }


def run_pair_homotopy(inp, k):
    path = solve.continuation(
        lambda s: helium.PairObjective(s, n1=HOMOTOPY_N1, n2=HOMOTOPY_N2),
        0.0,
        1.0,
        inp["x0"],
        tol=1e-9,
        diagnostics=_homotopy_diagnostics,
        newton_kwargs={"jacobian": "frozen"},
    )
    checks = [
        ("s = 1 reached", abs(path.steps[-1].parameter - 1.0) < 1e-12),
        ("at most 100 steps", len(path.steps) <= 100),
    ]
    for step in path.steps:
        d = step.diagnostics
        checks += [
            (f"s={step.parameter:.4f}: nullity 0", d["nullity"] == 0),
            (f"s={step.parameter:.4f}: bound_ok", bool(d["bound_ok"])),
            (f"s={step.parameter:.4f}: Morse index 1", d["morse_index"] == 1),
        ]
    return checks, {}


# ---------------------------------------------------------------------------
# lc-roundtrip
# ---------------------------------------------------------------------------


def draw_lc_coeffs(seed):
    """Odd-sine loops 1, c1, c2, c3 with |c_k| below LC_BOUNDS, from the seed."""
    rng = np.random.default_rng(seed)
    bounds = np.array(LC_BOUNDS)
    return [np.concatenate([[1.0], bounds * rng.uniform(-1.0, 1.0, bounds.size)])
            for _ in range(LC_LOOPS)]


def setup_lc_roundtrip(seed, workdir):
    cert = rho_certificate()
    return {"loops": [(cert.z.coeffs, cert.r)] + [(c, 0.0) for c in draw_lc_coeffs(seed)]}


def run_lc_roundtrip(inp, k):
    checks = []
    roundtrip, recip_max = 0.0, 0.0
    taus = np.linspace(0.0, 2.0, 801)
    for k, (coeffs, r) in enumerate(inp["loops"]):
        z = loops.from_coeffs(loops.ODD_SINE, coeffs)
        orbit = levi_civita.forward(z, n_t=LC_SAMPLES)
        z_rec = levi_civita.inverse(orbit, m_out=LC_M_OUT)
        roundtrip = max(roundtrip, float(np.max(np.abs(z_rec(taus) - z(taus)))))
        # the gates of `frozenplanet lc`
        g = loops.gram_diag(z.klass, z.n)
        l2_sq = float(np.sum(g * z.coeffs**2))
        recip_res = abs(levi_civita.reciprocal_integral(orbit) - 1.0 / l2_sq)
        qbar_res = abs(levi_civita.qbar_from_samples(orbit) - orbit.qbar)
        qdot_res = abs(levi_civita.qdot_l2_sq(orbit) - 4.0 * l2_sq * float(
            np.sum(g * (loops.frequencies(z.klass, z.n) * z.coeffs) ** 2)
        ))
        levi_civita.q_residual(orbit, r, method="fd")
        recip_max = max(recip_max, recip_res)
        checks += [
            (f"loop {k}: reciprocal_res < 1e-6", recip_res < LC_GATE),
            (f"loop {k}: qbar_res < 1e-6", qbar_res < LC_GATE),
            (f"loop {k}: qdot_norm_res < 1e-6", qdot_res < LC_GATE),
        ]
    hol = detline.holonomy(detline.OperatorFamily(n_modes=HOLONOMY_MODES), n_steps=HOLONOMY_STEPS)
    checks += [
        ("holonomy sign -1", hol["sign"] == -1),
        ("holonomy min_alignment > 0.999", hol["min_alignment"] > 0.999),
    ]
    return checks, {
        "levi_civita.roundtrip_err_max": (roundtrip, "abs"),
        "levi_civita.reciprocal_res_max": (recip_max, "abs"),
    }


WORKLOADS = {
    "oneloop-cli": (setup_oneloop_cli, run_oneloop_cli),
    "pair-mean": (setup_pair_mean, run_pair_mean),
    "pair-homotopy": (setup_pair_homotopy, run_pair_homotopy),
    "lc-roundtrip": (setup_lc_roundtrip, run_lc_roundtrip),
}
