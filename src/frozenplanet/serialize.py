"""Deterministic JSON/CSV serialization.

Every float is written in Python's shortest round-trip form
(``repr(float(x))``), so it reads back as the same double and reruns are
byte-identical.  JSON is the standard library's over one walk
(``_plain``): numpy values become Python ones, and non-finite floats
become null, since JSON has no NaN or infinity.  ``dumps(obj, None)`` is
one compact line, a JSONL record.  Every CSV table goes through
``table``, whose cells keep fmt's nan and inf.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import frozen, helium, levi_civita, loops


def fmt(x):
    """The CSV cell of a number: an integer (a bool as 0 or 1) as written,
    any other number as ``repr(float(x))``."""
    if isinstance(x, (int, np.integer, np.bool_)):
        return str(int(x))
    return repr(float(x))


def table(header, rows):
    """CSV text: the comma-separated ``header`` line, then one line of fmt
    cells per row."""
    lines = [header] + [",".join(fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def dumps(obj, indent=2):
    """Strict JSON of obj (``_plain``), indented, or one line when
    ``indent`` is None."""
    return json.dumps(_plain(obj), indent=indent, allow_nan=False)


def _plain(obj):
    """obj as the Python values that JSON holds: numpy arrays and tuples
    become lists, numpy scalars Python numbers, and non-finite floats
    None."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def cert_to_dict(cert: frozen.CriticalPointCert):
    return {
        "r": cert.r,
        "coeffs": {"a": cert.coeffs.a, "b": cert.coeffs.b},
        "energy_c": cert.energy_c,
        "energy_dev": cert.energy_dev,
        "v": cert.v,
        "w": cert.w,
        "grad_res": cert.grad_res,
        "identity_res": cert.identity_res,
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
    zero_flag = np.zeros(orbit.n, dtype=int)
    for z0 in orbit.zeros:
        zero_flag[int(round(float(z0) * orbit.n)) % orbit.n] = 1
    return table("t,q,qdot,zero", zip(orbit.t, orbit.q, levi_civita.qdot_fd(orbit), zero_flag))


def pair_orbit_csv(pair: helium.PairLoop):
    """Columns t, q1, q2, gap at 1024 uniform midpoints in physical time,
    for plotting the physical-time picture."""
    t, gap, q1, q2 = helium.interaction_gap(pair, 1024)
    return table("t,q1,q2,gap", zip(t, q1, q2, gap))


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
        rec["diagnostics"] = {k: v for k, v in step.diagnostics.items() if k != "newton_residuals"}
        records.append(rec)
    return records


def path_summary_csv(path):
    """Summary table of a path with ``solve.frozen_step_diagnostics``: r,
    value, a, b, v, w, index, nullity, min |eig|, residuals."""
    rows = []
    for step in path.steps:
        cert, d = step.cert, step.diagnostics
        rows.append((
            cert.r, frozen.value(cert.z, cert.r), cert.coeffs.a, cert.coeffs.b, cert.v, cert.w,
            d["morse_index"], d["nullity"], d["min_abs_eig"], cert.grad_res,
            *cert.identity_res, cert.energy_dev, d["ode_res"], d["beta_mu_res"],
        ))
    return table(
        "r,value,a,b,v,w,index,nullity,min_abs_eig,grad_res,vw_res1,vw_res2,"
        "energy_dev,ode_res,beta_mu_res",
        rows,
    )


def holonomy_trace_csv(result, n_modes):
    """Trace columns: tau, kernel coefficients on e_{-2}..e_2, zeta, alignment."""
    rows = (
        (tau, *w[n_modes - 2 : n_modes + 3], w[-1], result["min_alignment"])
        for tau, w in zip(result["taus"], result["sections"])
    )
    return table("tau,e_m2,e_m1,e_0,e_1,e_2,zeta,alignment", rows)
