"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Every tolerance is pinned here exactly as contracted.

Criteria 5 and 6 carry the paper's two claims: the mean-interaction frozen
planet orbit is nondegenerate, and the instantaneous integral count is one.
Each number is checked on the operator it belongs to.

- The one-loop Hessian at r = rho (``solve.spectrum(cert_rho)``) has index
  0 and nullity 0: the orbit is a nondegenerate critical point of the
  one-loop family.
- The packed pair Hessian H holds one more direction, e0, the constant
  outer loop.  Its curvature e0.H.e0 = (16-16*sqrt(2))/c^4 is negative
  (the sign of the transversality constant -2*alpha of criterion 4).
- The reduced Hessian, the Schur complement S of H00 in H, has index 0
  and nullity 0, so its count is +1 at every step of the homotopy.
- By Haynsworth inertia additivity, index(H) = index(H00) + index(S) = 1,
  so the pair count is sign(H00) * (+1) = -1 along the whole path.

Counts use the normalization of ``detline.sections`` and
``solve.euler_count``: a positive-definite operator counts +1, since
s = (-1)^i t.  PAPER.md holds only the abstract, so it does not settle
whether the paper's count "one" is the reduced count or the pair count
with the opposite orientation; reading it as the reduced count is
unconfirmed.
"""

import time

import numpy as np

from frozenplanet import detline, elliptic, frozen, helium, loops, solve


def _report(name, failures, elapsed, budget):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    detail = "; ".join(failures) if failures else "all checks within tolerance"
    if elapsed >= budget:
        detail += f"; runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s)")
    assert not failures, f"{name}: " + "; ".join(failures)
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_elliptic_closed_forms():
    t0 = time.perf_counter()
    failures = []
    for n, want in ((0, np.pi / 2), (1, np.pi / 4), (2, 3 * np.pi / 16)):
        err = abs(elliptic.In(n, 0.0) - want)
        if err > 1e-11:
            failures.append(f"I_{n}(0) off by {err:.2e}")
    for m in np.linspace(-10.0, 0.9, 34):
        if abs(m) < 5e-2:
            continue
        rec = elliptic.identities_report(m)["rec_res"]
        if rec >= 1e-9:
            failures.append(f"recursion residual {rec:.2e} at m={m:.3f}")
    grid = np.concatenate([np.linspace(-6.0, -0.05, 30), np.linspace(0.05, 0.85, 20)])
    for m in grid:
        res = elliptic.riccati_residual(m)
        if res >= 1e-6:
            failures.append(f"riccati residual {res:.2e} at m={m:.3f}")
    rep = elliptic.F_mono(np.linspace(-9.0, -0.02, 50))
    if not rep["all_gt_one"]:
        failures.append("monotone bound: some F(m) <= 1")
    if not rep["monotone_ok"]:
        failures.append("monotone bound: F not strictly decreasing")
    _report("criterion 1 (elliptic)", failures, time.perf_counter() - t0, 5.0)


def test_criterion_2_free_fall(seed64):
    t0 = time.perf_counter()
    failures = []
    if seed64.grad_res >= 1e-12:
        failures.append(f"seed residual {seed64.grad_res:.2e}")
    obj = solve.FrozenObjective(0.0, 64)
    x0 = obj.pack(seed64.z)
    rng = np.random.default_rng(2)
    rep = solve.newton(obj, x0 + 1e-2 * rng.normal(size=64) / np.arange(1, 65))
    if rep.iterations > 6:
        failures.append(f"Newton took {rep.iterations} iterations")
    if float(np.linalg.norm(rep.x - x0)) >= 1e-9:
        failures.append("Newton did not land on the seed")
    sym = solve.spectrum(seed64)
    if sym.morse_index != 0 or sym.nullity != 0:
        failures.append(
            f"symmetric space: index {sym.morse_index}, nullity {sym.nullity}"
        )
    full = solve.spectrum(seed64, space="full")
    if full.nullity != 1:
        failures.append(f"full space nullity {full.nullity}")
    if not (full.kernel_alignment and full.kernel_alignment > 0.999):
        failures.append(f"kernel alignment {full.kernel_alignment}")
    if full.morse_index != 1:
        failures.append(f"full space index {full.morse_index}")
    _report("criterion 2 (free fall)", failures, time.perf_counter() - t0, 10.0)


def test_criterion_3_continuation(frozen_path, timings):
    t0 = time.perf_counter()
    failures = []
    for step in frozen_path.steps:
        cert, d = step.cert, step.diagnostics
        tag = f"r={step.parameter:.3f}"
        if max(cert.identity_res) >= 1e-7:
            failures.append(f"{tag}: shape identity {max(cert.identity_res):.2e}")
        if cert.energy_dev >= 1e-7:
            failures.append(f"{tag}: energy fluctuation {cert.energy_dev:.2e}")
        if d["ode_res"] >= 1e-5:
            failures.append(f"{tag}: collision ODE {d['ode_res']:.2e}")
        if d["beta_mu_res"] >= 1e-5:
            failures.append(f"{tag}: beta q^3 + 2 residual {d['beta_mu_res']:.2e}")
        if d["morse_index"] != 0 or d["nullity"] != 0:
            failures.append(f"{tag}: index {d['morse_index']}, nullity {d['nullity']}")
        if d["min_abs_eig"] <= 1e-4:
            failures.append(f"{tag}: |eigenvalue| floor {d['min_abs_eig']:.2e}")
        if not d["sup_upper_ok"]:
            failures.append(f"{tag}: sup-norm upper bound violated")
    elapsed = time.perf_counter() - t0 + timings.get("frozen_path", 0.0)
    _report("criterion 3 (continuation 0->rho->5)", failures, elapsed, 120.0)


def test_criterion_4_bridge():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        coeffs = rng.normal(size=6) * np.exp(-0.8 * np.arange(6))
        coeffs[0] = max(abs(coeffs[0]), 0.5)
        z = loops.from_coeffs(loops.ODD_SINE, coeffs)
        worst = max(worst, helium.bridge_check(z))
    if worst >= 1e-11:
        failures.append(f"bridge identity residual {worst:.2e}")
    z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.15])
    out = helium.bridge_graph_constants(z)
    if out["w_res"] >= 1e-10:
        failures.append(f"first-component equation residual {out['w_res']:.2e}")
    if out["a1_res"] >= 1e-9 or out["b1_res"] >= 1e-9:
        failures.append("reduced coefficients off closed form")
    d1w = helium.d1w_check(z)
    rel = abs(d1w["K_numeric"] + 2.0 * helium.ALPHA) / (2.0 * helium.ALPHA)
    if rel >= 1e-6:
        failures.append(f"universal constant recovery rel err {rel:.2e}")
    _report("criterion 4 (bridge)", failures, time.perf_counter() - t0, 10.0)


def test_criterion_5_mean_interaction_orbit(
    mean_pair, cert_rho, split_constant_mode, timings
):
    t0 = time.perf_counter()
    failures = []
    obj, x = mean_pair
    cert = obj.certify(x)
    res = cert.full_res
    if res >= 1e-8:
        failures.append(f"pair gradient residual {res:.2e}")
    if cert.z1_constancy() >= 1e-9:
        failures.append(f"outer component varies by {cert.z1_constancy():.2e}")
    one_loop = solve.spectrum(cert_rho)
    if one_loop.morse_index != 0 or one_loop.nullity != 0:
        failures.append(
            f"one-loop orbit at rho: contracted index 0, nullity 0, computed "
            f"index {one_loop.morse_index}, nullity {one_loop.nullity}"
        )
    h = obj.hessian(x)
    rep = solve.spectrum_report(h)
    if rep.nullity != 0:
        failures.append(f"nullity {rep.nullity}")
    gamma = float(np.mean(cert.pair.z1(loops.grid_points(64))))
    want = (16.0 - 16.0 * np.sqrt(2.0)) / gamma**4
    h00, schur = split_constant_mode(h)
    if not (h00 < 0.0 and abs(h00 - want) < 1e-4):
        failures.append(
            f"constant-direction curvature {h00:.6f}, closed form "
            f"(16-16*sqrt(2))/c^4 = {want:.6f}"
        )
    if schur.morse_index != 0 or schur.nullity != 0:
        failures.append(
            f"reduced Hessian: contracted index 0, nullity 0, computed "
            f"index {schur.morse_index}, nullity {schur.nullity}"
        )
    if rep.morse_index != int(h00 < 0.0) + schur.morse_index:
        failures.append(
            f"pair index {rep.morse_index} is not index(H00) + index(S) = "
            f"{int(h00 < 0.0)} + {schur.morse_index}"
        )
    elapsed = time.perf_counter() - t0 + timings.get("mean_pair", 0.0)
    _report("criterion 5 (mean-interaction orbit)", failures, elapsed, 30.0)


def test_criterion_6_instantaneous_homotopy(homotopy_path, timings):
    t0 = time.perf_counter()
    failures = []
    n_steps = len(homotopy_path.steps)
    if n_steps > 100:
        failures.append(f"{n_steps} adaptive steps (> 100)")
    if abs(homotopy_path.steps[-1].parameter - 1.0) > 1e-12:
        failures.append("homotopy did not reach the instantaneous endpoint")
    for step in homotopy_path.steps:
        d = step.diagnostics
        tag = f"s={step.parameter:.3f}"
        if not d["bound_ok"]:
            failures.append(f"{tag}: Hessian spectrum below the certified bound")
        if d["nullity"] != 0:
            failures.append(f"{tag}: nullity {d['nullity']}")
            continue
        if d["h00"] >= 0.0:
            failures.append(f"{tag}: constant-direction curvature {d['h00']:.4f} >= 0")
        if d["schur_index"] != 0 or d["schur_nullity"] != 0:
            failures.append(
                f"{tag}: contracted reduced count 1, reduced Hessian has "
                f"index {d['schur_index']}, nullity {d['schur_nullity']}"
            )
            continue
        # reduced count +1, so the pair count is sign(H00) * (+1)
        count = solve.euler_count([(d["morse_index"], d["nullity"])])
        want = int(np.sign(d["h00"]))
        if count != want:
            failures.append(
                f"{tag}: pair count {count} (index {d['morse_index']}), "
                f"sign(H00) * reduced count = {want}"
            )
    elapsed = time.perf_counter() - t0 + timings.get("homotopy_path", 0.0)
    _report("criterion 6 (instantaneous homotopy)", failures, elapsed, 300.0)


def test_criterion_7_determinant_line():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(21)
    rho = detline.CutoffRho()
    for _ in range(20):
        spec = rng.uniform(-1.5, 4.0, size=rng.integers(3, 10))
        want = float(np.prod(rho(spec)))
        got = detline.mu(spec, rho)
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            failures.append("spectral count off a hand product")
    for _ in range(50):
        a = rng.normal(size=(6, 6))
        t_mat = 0.5 * (a + a.T) + np.diag(rng.uniform(0.3, 1.5, 6))
        out = detline.sections(t_mat, rho)
        if out["invertible"] and not out["relation_ok"]:
            failures.append("sign relation s = (-1)^i t violated")
    eps = np.arange(-0.01, 0.0101, 1e-4)
    svals = detline.section_through_crossing(
        [np.diag([e, 1.0, 1.0, 1.0]) for e in eps], np.array([1.0, 0, 0, 0]), rho
    )
    jump = float(np.max(np.linalg.norm(np.diff(svals, axis=0), axis=1)))
    if jump >= 1e-3:
        failures.append(f"weighted section jump {jump:.2e} through the crossing")
    for n_modes in (8, 16, 32):
        out = detline.holonomy(detline.OperatorFamily(n_modes=n_modes), n_steps=400)
        if out["sign"] != -1:
            failures.append(f"holonomy sign {out['sign']} at N={n_modes}")
        if out["min_alignment"] <= 0.999:
            failures.append(
                f"closed-form alignment {out['min_alignment']:.4f} at N={n_modes}"
            )
    _report("criterion 7 (determinant line)", failures, time.perf_counter() - t0, 60.0)


def test_criterion_8_numerical_hygiene(cert_rho, frozen_fd_hessian):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(23)

    def rand_loop(klass, n, floor=0.5):
        coeffs = rng.normal(size=n) * np.exp(-0.8 * np.arange(n))
        coeffs[0] = max(abs(coeffs[0]), floor)
        return loops.from_coeffs(klass, coeffs)

    # gradient vs finite differences: one-loop functional
    for _ in range(10):
        z = rand_loop(loops.ODD_SINE, 6)
        r = float(rng.uniform(0.0, 3.0))
        gl = frozen.gradient(z, r)
        g = loops.gram_diag(gl.klass, gl.n)
        xi = rng.normal(size=z.n)
        h = 1e-6
        fd = (
            frozen.value(loops.from_coeffs(z.klass, z.coeffs + h * xi), r)
            - frozen.value(loops.from_coeffs(z.klass, z.coeffs - h * xi), r)
        ) / (2 * h)
        ip = float(np.sum(g[: z.n] * gl.coeffs[: z.n] * xi))
        if abs(ip - fd) / max(1.0, abs(fd)) >= 1e-6:
            failures.append("one-loop gradient/FD mismatch")

    # gradient vs finite differences: pair functionals
    for s in (0.0, 1.0):
        for _ in range(10):
            pair = helium.PairLoop(
                rand_loop(loops.EVEN_COSINE, 3, floor=1.5),
                rand_loop(loops.ODD_SINE, 3, floor=0.8),
            )
            obj = helium.PairObjective(s, n1=3, n2=3)
            x = obj.pack(pair)
            if not obj.admissible(x):
                continue
            xi = rng.normal(size=6)
            xi /= np.linalg.norm(xi)
            h = 1e-6
            fd = (obj.value(x + h * xi) - obj.value(x - h * xi)) / (2 * h)
            ip = float(obj.gradient(x) @ xi)
            if abs(ip - fd) / max(1.0, abs(fd)) >= 1e-6:
                failures.append(f"pair gradient/FD mismatch at s={s}")

    # Hessian symmetry defects, measured at the solved rho point
    h_sym = frozen.hessian_analytic(cert_rho.z, cert_rho.r)
    if np.max(np.abs(h_sym - h_sym.T)) >= 1e-8:
        failures.append("analytic Hessian asymmetric")
    z24 = loops.from_coeffs(loops.ODD_SINE, cert_rho.z.coeffs[:24])
    h_fd = frozen_fd_hessian(z24, cert_rho.r, 1e-6)
    if np.max(np.abs(h_fd - h_fd.T)) >= 1e-8:
        failures.append("finite-difference Hessian asymmetric")
    pair = helium.PairLoop(
        rand_loop(loops.EVEN_COSINE, 2, floor=1.5),
        rand_loop(loops.ODD_SINE, 2, floor=0.8),
    )
    obj = helium.PairObjective(1.0, n1=2, n2=2)
    x = obj.pack(pair)
    step = 2e-6
    raw = np.empty((4, 4))
    for k in range(4):
        dx = np.zeros(4)
        dx[k] = step
        raw[:, k] = (obj.gradient(x + dx) - obj.gradient(x - dx)) / (2 * step)
    if np.max(np.abs(raw - raw.T)) >= 1e-8:
        failures.append("pair finite-difference Hessian asymmetric")

    # mesh self-convergence of the shape ratios under mode doubling
    obj128 = solve.FrozenObjective(cert_rho.r, 128)
    x0 = obj128.pack(
        loops.from_coeffs(
            loops.ODD_SINE,
            np.concatenate([cert_rho.z.coeffs, np.zeros(128 - cert_rho.z.n)]),
        )
    )
    cert2 = obj128.certify(solve.newton(obj128, x0).x)
    if abs(cert2.v - cert_rho.v) >= 1e-8 or abs(cert2.w - cert_rho.w) >= 1e-8:
        failures.append("shape ratios moved under mode doubling")

    _report("criterion 8 (numerical hygiene)", failures, time.perf_counter() - t0, 60.0)
