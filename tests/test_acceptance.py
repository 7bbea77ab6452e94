"""Acceptance suite: the flagship reproduction plus the property gates.

One test per criterion; each prints a single pass/fail line (visible with
pytest -s) and pins the stated tolerance.  Criteria with runtime budgets time
the in-process computation they specify.
"""

import time

import numpy as np

from quantum_descent.config import default_config, parse_config
from quantum_descent.dynamics import (KostinPropagator,
                                      damped_oscillator_closed_form, evolve)
from quantum_descent.experiments import run_experiment
from quantum_descent.fields import PhysicsParams, SpatialGrid, gaussian_packet
from quantum_descent.hydro import disruptor_field, quantum_potential, sample_field
from quantum_descent.learner import (PotentialSpec, ZeroDisruptor, run_learner,
                                     run_momentum_gd)
from quantum_descent.output import read_table

GRID_2048 = SpatialGrid(-20.0, 20.0, 2048)
HARMONIC = PotentialSpec.harmonic(1.0)
# the ground-state width of the unit trap at hbar = m = 1
COHERENT_SIGMA = 1.0 / np.sqrt(2.0)


def _report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_figure_reproduction(tmp_path):
    """m=1, mu=1, omega=1, x0=-5: |x_t| < 1e-6 within 100 steps; density
    argmax moves from -5 to |x| < 0.05; runtime < 1 s."""
    t0 = time.perf_counter()
    result = run_experiment(default_config("figure1"), out_dir=tmp_path / "fig")
    elapsed = time.perf_counter() - t0

    _, traj = read_table(tmp_path / "fig" / "trajectory.csv")
    hits = np.flatnonzero(np.abs(traj[:, 1]) < 1e-6)
    step_hit = int(traj[hits[0], 0]) if hits.size else 10**9
    first = result.meta["density_argmax_first"]
    last = result.meta["density_argmax_last"]

    ok = (result.exit_code == 0 and step_hit <= 100
          and abs(first + 5.0) < 0.05 and abs(last) < 0.05 and elapsed < 1.0)
    _report(1, ok, f"|x_t|<1e-6 at step {step_hit}, density argmax "
                   f"{first:+.3f} -> {last:+.3f}, {elapsed:.2f}s")


def test_criterion_2_coherent_disruptor_vanishes():
    """|Dis| < 1e-6 at the centre of a coherent packet, three locations."""
    t0 = time.perf_counter()
    worst = 0.0
    for x_t in (-5.0, 0.0, 1.3):
        psi = gaussian_packet(GRID_2048, x_t, sigma=COHERENT_SIGMA)
        field = disruptor_field(np.abs(psi.values), GRID_2048,
                                PhysicsParams(m=1.0, hbar=1.0, mu=1.0))
        worst = max(worst, abs(sample_field(field, GRID_2048, x_t)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    _report(2, ok, f"max |Dis(centre)| = {worst:.2e} (tol 1e-6), {elapsed:.2f}s")


def test_criterion_3_classical_limit_scaling():
    """Dis/hbar^2 constant to rel. 1e-10 across hbar; Dis(hbar=0) == 0."""
    grid = SpatialGrid(-6.0, 6.0, 1024)
    R = np.exp(-0.5 * grid.x**2)
    x_eval = 0.7
    scaled = []
    for hbar in (1.0, 0.5, 0.1):
        field = disruptor_field(R, grid, PhysicsParams(m=1.0, hbar=hbar, mu=1.0))
        scaled.append(sample_field(field, grid, x_eval) / hbar**2)
    rel = max(abs(s - scaled[0]) / abs(scaled[0]) for s in scaled)
    zero_field = disruptor_field(R, grid, PhysicsParams(m=1.0, hbar=0.0, mu=1.0))
    at_zero = sample_field(zero_field, grid, x_eval)
    ok = rel < 1e-10 and at_zero == 0.0
    _report(3, ok, f"max rel spread of Dis/hbar^2 = {rel:.2e} (tol 1e-10), "
                   f"Dis(hbar=0) = {at_zero!r}")


def test_criterion_4_learner_equivalence():
    """Zero disruptor == classical momentum descent, bitwise, 20 random
    stable parameter sets x 1000 steps."""
    rng = np.random.default_rng(20260826)
    worst = 0.0
    ok = True
    for _ in range(20):
        m = rng.uniform(0.5, 4.0)
        mu = rng.uniform(0.0, 1.0)
        params = PhysicsParams(m=m, mu=mu)
        # stable iff lam * omega^2 < 2 (1 + beta); stay well inside
        omega = np.sqrt(rng.uniform(0.05, 0.95) * 2.0 * (1.0 + params.beta) * m)
        pot = PotentialSpec.harmonic(omega)
        x0, u0 = rng.uniform(-5.0, 5.0), rng.uniform(-2.0, 2.0)
        q = run_learner(x0, u0, pot, ZeroDisruptor(), params, steps=1000,
                        stop_tol=0.0)
        c = run_momentum_gd(x0, u0, pot, alpha=params.lam, beta=params.beta,
                            steps=1000, stop_tol=0.0)
        if not (np.array_equal(q.x, c.x) and np.array_equal(q.u, c.u)):
            ok = False
            worst = max(np.max(np.abs(q.x - c.x)), np.max(np.abs(q.u - c.u)))
    _report(4, ok, "pointwise difference 0.0 over 1000 steps x 20 parameter sets"
            if ok else f"max pointwise difference {worst:.3e}")


def test_criterion_5_pde_ode_cross_validation():
    """<x>(t) within 1e-3 of the damped closed form over [0, 10] at dt=1e-3;
    halving dt cuts the error by 3.5x-4.5x; runtime < 60 s."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
    psi0 = gaussian_packet(GRID_2048, -5.0, sigma=COHERENT_SIGMA)
    t0 = time.perf_counter()
    errs = []
    for dt in (1e-3, 5e-4):
        rec = evolve(psi0, HARMONIC, params, dt, 10.0, snapshot_every=10**9)
        exact = np.array([damped_oscillator_closed_form(-5.0, 0.0, 1.0, 1.0, t)[0]
                          for t in rec.times])
        errs.append(float(np.max(np.abs(rec.x_mean - exact))))
    elapsed = time.perf_counter() - t0
    ratio = errs[0] / errs[1]
    ok = errs[0] < 1e-3 and 3.5 <= ratio <= 4.5 and elapsed < 60.0
    _report(5, ok, f"max|<x>-x_ode| = {errs[0]:.2e} (tol 1e-3), halving ratio "
                   f"{ratio:.2f} (window [3.5, 4.5]), {elapsed:.1f}s")


def test_criterion_6_norm_conservation():
    """Norm drift < 1e-8 over 10^4 propagator steps for mu in {0, 0.5, 1}."""
    psi0 = gaussian_packet(GRID_2048, -5.0, sigma=COHERENT_SIGMA)
    worst = 0.0
    for mu in (0.0, 0.5, 1.0):
        prop = KostinPropagator(GRID_2048, HARMONIC,
                                PhysicsParams(m=1.0, hbar=1.0, mu=mu), dt=1e-3)
        values = psi0.values
        n0 = float(np.sum(np.abs(values) ** 2) * GRID_2048.dx)
        for k in range(10_000):
            values = prop.step(values)
            if k % 500 == 499:
                n = float(np.sum(np.abs(values) ** 2) * GRID_2048.dx)
                worst = max(worst, abs(n - n0))
    ok = worst < 1e-8
    _report(6, ok, f"max norm drift {worst:.2e} over 10^4 steps (tol 1e-8)")


def test_criterion_7_quantum_potential_convergence():
    """Against the exact Q of the periodic amplitude R = exp(kappa cos(k x)),
    k = 2 pi / L, over the whole grid: Q = -(hbar^2/2m) k^2 (kappa^2 sin^2(k x)
    - kappa cos(k x)).  2nd-order error decay when n doubles."""
    kappa, k = 1.5, 2.0 * np.pi / 12.0
    params = PhysicsParams(m=1.3, hbar=0.7, mu=1.0)
    errs = []
    for n in (1024, 2048):
        grid = SpatialGrid(-6.0, 6.0, n)
        y = k * grid.x
        q = quantum_potential(np.exp(kappa * np.cos(y)), grid, params)
        exact = -(params.hbar**2 / (2.0 * params.m)) * k**2 * (
            kappa**2 * np.sin(y) ** 2 - kappa * np.cos(y))
        errs.append(float(np.max(np.abs(q - exact))))
    ratio = errs[0] / errs[1]
    ok = 3.5 <= ratio <= 4.5
    _report(7, ok, f"error {errs[0]:.2e} -> {errs[1]:.2e}, ratio {ratio:.2f} "
                   f"(window [3.5, 4.5])")


def test_criterion_8_no_friction_breakdown():
    """mu = 0: V(x_t) keeps cycling -- final-window mean within 5% of the
    initial-window mean over 1000 steps."""
    run = run_learner(-5.0, 0.0, HARMONIC, ZeroDisruptor(),
                      PhysicsParams(m=1.0, mu=0.0), steps=1000, stop_tol=0.0)
    first = float(np.mean(run.V[:100]))
    last = float(np.mean(run.V[-100:]))
    rel = abs(last - first) / first
    ok = run.outcome == "max_steps" and rel < 0.05
    _report(8, ok, f"window means {first:.3f} vs {last:.3f}, rel diff "
                   f"{rel:.3%} (tol 5%)")


def test_criterion_9_determinism_and_round_trip(tmp_path):
    """Byte-identical repeat runs (modulo wall time); files re-parse to the
    in-memory records exactly."""
    cfg = default_config("figure1")
    r1 = run_experiment(cfg, out_dir=tmp_path / "r1")
    r2 = run_experiment(cfg, out_dir=tmp_path / "r2")
    same_bytes = all(
        (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        for name in ("trajectory.csv", "density.csv"))

    meta1, meta2 = dict(r1.meta), dict(r2.meta)
    for m in (meta1, meta2):
        for key in ("wall_time_s", "compute_s", "write_s"):
            m.pop(key)
        m["effective_config"]["output"].pop("directory")
    same_meta = meta1 == meta2

    # independent in-memory recomputation vs the emitted files, value-exact
    run = run_learner(cfg.initial.x0, cfg.initial.u0, cfg.potential.spec,
                      ZeroDisruptor(), cfg.physics, steps=cfg.run.steps,
                      stop_tol=cfg.run.stop_tol, time_scale=cfg.run.time_scale)
    _, traj = read_table(tmp_path / "r1" / "trajectory.csv")
    # the default config has hbar = m = 1, where the coherent width is 1/sqrt(2 omega)
    psi0 = gaussian_packet(cfg.grid, cfg.initial.x0, p0=cfg.p0,
                           sigma=1.0 / np.sqrt(2.0 * cfg.potential.omega))
    rec = evolve(psi0, cfg.potential.spec, cfg.physics, cfg.run.dt, cfg.run.t_final,
                 cfg.run.snapshot_every)
    _, dens = read_table(tmp_path / "r1" / "density.csv")
    round_trip = (np.array_equal(traj, run.rows)
                  and np.array_equal(dens[:, 0], cfg.grid.x)
                  and np.array_equal(dens[:, 1:], rec.densities))

    ok = same_bytes and same_meta and round_trip
    _report(9, ok, f"byte-identical={same_bytes}, meta-equal={same_meta}, "
                   f"round-trip-exact={round_trip}")
