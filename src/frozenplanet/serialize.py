"""Deterministic JSON/CSV serialization.

All floats are emitted with 17 significant digits, so identical runs
produce byte-identical payloads and values roundtrip losslessly.  JSON has
no NaN or infinity, so dumps writes non-finite floats as null; CSV cells
keep fmt's nan/inf.
"""

from __future__ import annotations

import math

import numpy as np

from . import frozen, helium, levi_civita, loops


def fmt(x):
    """17-significant-digit decimal form of a float."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _json_number(x):
    """fmt for JSON, which has no nan or inf: those become null.  Floats,
    the common case, are tested first, by ``math.isfinite`` on the scalar
    rather than the ``np.isfinite`` ufunc."""
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g") if math.isfinite(x) else "null"
    return fmt(x)


# backslash, quote and the control characters U+0000-U+001F, escaped as JSON requires
_STRING_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"', **{c: f"\\u{c:04x}" for c in range(32)}}


def _json_string(text):
    return '"' + str(text).translate(_STRING_ESCAPES) + '"'


def dumps(obj, indent=0):
    """Minimal JSON emitter with fixed float formatting; nan/inf become null."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {_json_string(k)}: {dumps(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq)
        if flat:
            return "[" + ", ".join(_json_number(v) for v in seq) + "]"
        items = [f"{pad}  {dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _json_number(obj)
    return _json_string(obj)


def cert_to_dict(cert: frozen.CriticalPointCert):
    return {
        "r": cert.r,
        "coeffs": {"a": cert.coeffs.a, "b": cert.coeffs.b},
        "energy_c": cert.energy_c,
        "energy_dev": cert.energy_dev,
        "v": cert.v,
        "w": cert.w,
        "grad_res": cert.grad_res,
        "identity_res": list(cert.identity_res),
        "sign_convention": cert.sign_convention,
        "loop": loops.loop_to_json(cert.z),
    }


def cert_from_dict(data) -> frozen.CriticalPointCert:
    if "cert" in data and "loop" not in data:
        data = data["cert"]
    z = loops.loop_from_json(data["loop"])
    return frozen.certify(z, float(data["r"]))


def pair_to_dict(pair: helium.PairLoop):
    return {"z1": loops.loop_to_json(pair.z1), "z2": loops.loop_to_json(pair.z2)}


def pair_from_dict(data) -> helium.PairLoop:
    return helium.PairLoop(
        loops.loop_from_json(data["z1"]), loops.loop_from_json(data["z2"])
    )


def orbit_to_csv(orbit: levi_civita.Orbit):
    """Columns t, q, qdot (finite difference), zero-flag."""
    qdot = levi_civita.qdot_fd(orbit)
    zero_flag = np.zeros(orbit.n, dtype=int)
    for z0 in orbit.zeros:
        zero_flag[int(round(float(z0) * orbit.n)) % orbit.n] = 1
    lines = ["t,q,qdot,zero"]
    for i in range(orbit.n):
        lines.append(
            f"{fmt(orbit.t[i])},{fmt(orbit.q[i])},{fmt(qdot[i])},{zero_flag[i]}"
        )
    return "\n".join(lines) + "\n"


def pair_orbit_csv(pair: helium.PairLoop):
    """Columns t, q1, q2, gap at 1024 uniform midpoints in physical time,
    for plotting the physical-time picture."""
    t, gap, q1, q2 = helium.interaction_gap(pair, 1024)
    lines = ["t,q1,q2,gap"]
    for i in range(t.size):
        lines.append(f"{fmt(t[i])},{fmt(q1[i])},{fmt(q2[i])},{fmt(gap[i])}")
    return "\n".join(lines) + "\n"


def path_records(path):
    """One serializable record per accepted continuation step."""
    records = []
    for step in path.steps:
        cert = step.cert
        rec = {"parameter": step.parameter}
        if isinstance(cert, frozen.CriticalPointCert):
            rec["cert"] = cert_to_dict(cert)
        else:  # pair certificate
            rec["cert"] = {
                "s": cert.s,
                "grad_res": cert.grad_res,
                "full_res": cert.full_res,
                "value": cert.value,
                "pair": pair_to_dict(cert.pair),
            }
        diag = {k: v for k, v in step.diagnostics.items() if k != "newton_residuals"}
        rec["diagnostics"] = _plain(diag)
        records.append(rec)
    return records


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def path_summary_csv(path):
    """Summary table: r, value, a, b, v, w, index, nullity, min |eig|, residuals."""
    header = (
        "r,value,a,b,v,w,index,nullity,min_abs_eig,grad_res,vw_res1,vw_res2,"
        "energy_dev,ode_res,beta_mu_res"
    )
    lines = [header]
    for step in path.steps:
        cert = step.cert
        d = step.diagnostics
        val = frozen.value(cert.z, cert.r)
        lines.append(
            ",".join(
                fmt(x)
                for x in (
                    cert.r,
                    val,
                    cert.coeffs.a,
                    cert.coeffs.b,
                    cert.v,
                    cert.w,
                    d.get("morse_index", -1),
                    d.get("nullity", -1),
                    d.get("min_abs_eig", float("nan")),
                    cert.grad_res,
                    cert.identity_res[0],
                    cert.identity_res[1],
                    cert.energy_dev,
                    d.get("ode_res", float("nan")),
                    d.get("beta_mu_res", float("nan")),
                )
            )
        )
    return "\n".join(lines) + "\n"


def holonomy_trace_csv(result, n_modes):
    """Trace columns: tau, kernel coefficients on e_{-2}..e_2, zeta, alignment."""
    lines = ["tau,e_m2,e_m1,e_0,e_1,e_2,zeta,alignment"]
    taus = result["taus"]
    secs = result["sections"]
    mid = n_modes
    for tau, w in zip(taus, secs):
        coeffs = [w[mid + k] for k in (-2, -1, 0, 1, 2)]
        zeta = w[-1]
        lines.append(
            fmt(tau)
            + ","
            + ",".join(fmt(c) for c in coeffs)
            + f",{fmt(zeta)},{fmt(result['min_alignment'])}"
        )
    return "\n".join(lines) + "\n"
