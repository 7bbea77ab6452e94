"""The field kernels against the straightforward versions they replaced.

The polar decomposition, the periodic stencils, the friction substep and the
per-step record of evolve are written for speed: slices instead of np.roll, a
tail fill by slice assignment, phase increments over the valid span only,
in-place arithmetic, the phase rotation as cos + i sin instead of a complex
exponential, and the disruptor at the packet centre from the six amplitudes
its stencils read instead of the whole grid, evaluated for a block of
recorded steps in one call.  Each rewrite keeps the
operations and their operand order, so its output must equal the plain
version's to the bit.  The plain versions live here as references; the tests
demand np.array_equal, not closeness.  The one exception is the record's <p>:
it is read from the DFT the step already holds instead of from a second polar
decomposition, a different sum for the same quantity, so it is held within
roundoff of a spectral reference and, where the state is resolved, within the
stencil's error of the hydrodynamic sum rho S' dx.  The second exception
is the friction substep's rotation with mu > 0.  The split step applies it
as the potential factor P_V = exp(-i (d/mu) V / hbar), fixed for the run,
times exp(-i d S / hbar) times the scalar exp(i alpha), with trigonometry
over the packet's valid span only.  That is the same rotation as the one
expression exp(i phase / hbar) with different rounding.  So each step equals
a plain full-grid product of the three factors to the bit, and stays within
1e-13 relative of the one-expression step.  With mu = 0 the rotation is P_V
alone and still equals the one-expression step to the bit.  The third
exception is the phase of the polar decomposition.  It is integrated from
the angles of the products psi_j conj(psi_{j-1}) of consecutive valid
points, each in (-pi, pi], instead of unwrapping arg(psi) with np.unwrap:
one arctan2 and one cumulative sum, with no branch for phase jumps.  It
equals the plain increment form below to the bit, and stays within
1e-13 (1 + max|S|) of the np.unwrap phase wherever no increment lies within
roundoff of +-pi.  At an exact half turn the two conventions part: the
increment form steps by +pi*hbar where np.unwrap may keep -pi*hbar, so from
there on they differ by 2*pi*hbar.  The grid is
periodic, so the stencils wrap around its seam and the windows of the
disruptor wrap with them.  The kernels take plain arrays and copy nothing on
entry, so the last tests hand them read-only inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quantum_descent.derivatives import (central_from_increments,
                                         first_derivative, second_derivative)
from quantum_descent.dynamics import DIS_BLOCK, KostinPropagator, evolve
from quantum_descent.fields import (EPS_NODE, PhysicsParams, SpatialGrid,
                                    Wavefunction, gaussian_packet,
                                    polar_decompose)
from quantum_descent.hydro import (NODE, disruptor_field, interpolate, locate_window,
                                   quantum_potential, sample_field)
from quantum_descent.learner import PotentialSpec

# --- references ---------------------------------------------------------------


def ref_first_derivative(f, dx):
    return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * dx)


def ref_second_derivative(f, dx):
    return (np.roll(f, -1, axis=0) - 2.0 * f + np.roll(f, 1, axis=0)) / (dx * dx)


def ref_central_from_increments(d, dx):
    d = np.asarray(d, dtype=float)
    return (d + np.roll(d, 1, axis=0)) / (2.0 * dx)


def ref_fill_from_nearest_valid(values, valid_idx):
    n = values.size
    out = values.copy()
    pos = np.searchsorted(valid_idx, np.arange(n))
    left = valid_idx[np.clip(pos - 1, 0, valid_idx.size - 1)]
    right = valid_idx[np.clip(pos, 0, valid_idx.size - 1)]
    # ties go to the left neighbour
    nearest = np.where(np.abs(np.arange(n) - left) <= np.abs(right - np.arange(n)), left, right)
    out[:] = values[nearest]
    return out


def ref_polar_decompose(v, grid, params):
    """(S, rho, u, p) of the decomposition of ``v``, built the plain way: S is
    integrated from the angles of the products of consecutive valid points."""
    R = np.abs(v)
    rho = R * R
    valid = rho >= EPS_NODE
    valid_idx = np.flatnonzero(valid)
    z = v[valid_idx]
    # + 0.0 maps a -0.0 imaginary part to 0.0: increments lie in (-pi, pi]
    increments = np.angle(z[1:] * np.conj(z[:-1]) + 0.0)
    S = np.empty(grid.n, dtype=float)
    S[valid_idx] = np.concatenate(([0.0], np.cumsum(increments)))
    if valid_idx.size < grid.n:
        S = ref_fill_from_nearest_valid(S, valid_idx)
    S *= params.hbar
    S -= S[int(np.argmax(rho))]
    if valid[0] and valid[-1]:
        seam = params.hbar * float(np.angle(v[0] * np.conj(v[-1])))
    else:
        seam = 0.0
    inc = np.append(np.diff(S), seam)
    u = ref_central_from_increments(inc, grid.dx) / params.m
    return S, rho, u, params.m * u


def ref_unwrapped_phase(v, params):
    """S = hbar * np.unwrap(arg psi) over the valid points, anchored at the
    density maximum: the convention the increment form replaced."""
    rho = np.abs(v) ** 2
    valid_idx = np.flatnonzero(rho >= EPS_NODE)
    S = params.hbar * np.unwrap(np.angle(v[valid_idx]))
    return S - S[int(np.argmax(rho[valid_idx]))]


def ref_spectral_step(values, grid, potential, params, dt):
    """One Strang step with the friction substep written as one expression."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    half_kinetic = np.exp(-1j * params.hbar * k * k * dt / (4.0 * params.m))
    Vx = np.asarray(potential.evaluate(grid.x), dtype=float)
    out = np.fft.ifft(half_kinetic * np.fft.fft(values))
    if params.mu == 0.0:
        phase = -Vx * dt
    else:
        S, rho, _, _ = ref_polar_decompose(out, grid, params)
        d0 = S - float(np.sum(S * rho) * grid.dx)
        v_mean = float(np.sum(rho * Vx) / np.sum(rho))
        decay = -np.expm1(-params.mu * dt)
        phase = -v_mean * dt - (d0 + (Vx - v_mean) / params.mu) * decay
    out *= np.exp(1j * phase / params.hbar)
    return np.fft.ifft(half_kinetic * np.fft.fft(out))


def ref_factored_step(values, grid, potential, params, dt):
    """One Strang step with the friction substep's rotation as the product of
    its three factors on the full grid: P_V = exp(-i (d/mu) V / hbar),
    exp(-i d S / hbar) and exp(i alpha), with d = 1 - exp(-mu dt) and
    alpha = [d <S> + <V> (d/mu - dt)] / hbar (mu > 0)."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    half_kinetic = np.exp(-1j * params.hbar * k * k * dt / (4.0 * params.m))
    Vx = np.asarray(potential.evaluate(grid.x), dtype=float)
    out = np.fft.ifft(half_kinetic * np.fft.fft(values))
    S, rho, _, _ = ref_polar_decompose(out, grid, params)
    s_mean = float(np.sum(S * rho) * grid.dx)
    v_mean = float(np.sum(rho * Vx) / np.sum(rho))
    decay = -np.expm1(-params.mu * dt)
    alpha = (decay * s_mean + v_mean * (decay / params.mu - dt)) / params.hbar
    potential_factor = np.exp(1j * (-Vx * (decay / params.mu)) / params.hbar)
    friction = np.exp(1j * (-decay * S) / params.hbar) * np.exp(1j * alpha)
    out = out * potential_factor * friction
    return np.fft.ifft(half_kinetic * np.fft.fft(out))


def ref_record(values, grid, params):
    """(norm, <x>, Dis at <x>) of one state: full-grid fields, then a sample."""
    rho = np.abs(values) ** 2
    norm = float(np.sum(rho) * grid.dx)
    x_mean = float(np.sum(grid.x * rho) * grid.dx)
    dis = disruptor_field(polar_decompose(values, grid, params).R, grid, params)
    x = min(max(x_mean, grid.x_min), grid.x_max)
    return norm, x_mean, sample_field(dis, grid, x)


def ref_spectral_momentum(values, grid, params):
    """<psi| -i hbar d/dx |psi> as a position-space sum, with the spectral
    derivative ifft(i k fft(psi)) and the Nyquist wavenumber set to 0."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    if grid.n % 2 == 0:
        k[grid.n // 2] = 0.0
    dpsi = np.fft.ifft(1j * k * np.fft.fft(values))
    return float(np.real(np.vdot(values, -1j * params.hbar * dpsi)) * grid.dx)


def ref_hydrodynamic_momentum(values, grid, params):
    """sum rho p dx from the polar fields, with p = m dS/dx from a central stencil."""
    _, rho, _, p = ref_polar_decompose(values, grid, params)
    return float(np.sum(p * rho) * grid.dx)


# --- generated inputs ------------------------------------------------------------

# unit phasors whose angles differ by exactly pi between some neighbours:
# angle(1) = 0, angle(-1) = pi, angle(-1 - 0j) = -pi, angle(+-1j) = +-pi/2
EXACT_PHASORS = (1.0 + 0.0j, -1.0 + 0.0j, complex(-1.0, -0.0), 1j, -1j)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def phasors(draw, n):
    """n unit-ish phasors, mixing exact +-pi jumps with arbitrary angles."""
    out = np.empty(n, dtype=complex)
    for j in range(n):
        if draw(st.booleans()):
            out[j] = draw(st.sampled_from(EXACT_PHASORS))
        else:
            angle = draw(st.floats(-12.0, 12.0, allow_nan=False))
            out[j] = np.exp(1j * angle)
    return out


@st.composite
def masks(draw, n):
    """Valid-point masks of the shapes the fill rules distinguish."""
    kind = draw(st.sampled_from(("interior_gaps", "empty_ends", "all_valid", "two_valid")))
    if kind == "all_valid":
        return np.ones(n, dtype=bool)
    if kind == "two_valid":
        a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        mask = np.zeros(n, dtype=bool)
        mask[[a, b]] = True
        return mask
    first = draw(st.integers(1 if kind == "empty_ends" else 0, n - 4))
    last = draw(st.integers(first + 2, n - 2 if kind == "empty_ends" else n - 1))
    mask = np.zeros(n, dtype=bool)
    mask[first:last + 1] = True
    if kind == "interior_gaps":
        holes = draw(st.lists(st.integers(first + 1, last - 1), min_size=1, max_size=4))
        mask[holes] = False
    return mask


@st.composite
def wavefunctions(draw):
    n = draw(st.integers(8, 48))
    grid = SpatialGrid(-3.0, 3.0, n)
    mask = draw(masks(n))
    amplitude = np.where(mask, draw(st.sampled_from((1.0, 0.37, 2.5))),
                         draw(st.sampled_from((0.0, 1e-7, 9.9e-7))))
    jitter = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    values = amplitude * jitter * draw(phasors(n))
    return Wavefunction(values, grid)


# --- stencils ------------------------------------------------------------------------


@st.composite
def stencil_inputs(draw):
    """A 1-D array or a 2-D stack of columns, differentiated along axis 0,
    with 2 or 3 rows (every padded row is then a seam row) or more."""
    n = draw(st.one_of(st.sampled_from((2, 3)), st.integers(4, 64)))
    columns = draw(st.sampled_from((None, 1, 3)))
    shape = (n,) if columns is None else (n, columns)
    return draw(arrays(float, shape, elements=finite))


@given(f=stencil_inputs(), imag=st.booleans(), dx=st.floats(1e-3, 2.0))
@settings(max_examples=300, deadline=None)
def test_periodic_stencils_equal_roll_versions(f, imag, dx):
    if imag:
        f = f + 1j * np.roll(f, 3, axis=0)[::-1]
    assert np.array_equal(first_derivative(f, dx), ref_first_derivative(f, dx))
    assert np.array_equal(second_derivative(f, dx), ref_second_derivative(f, dx))


@given(d=stencil_inputs(), dx=st.floats(1e-3, 2.0))
@settings(max_examples=300, deadline=None)
def test_central_from_increments_equals_roll_version(d, dx):
    assert np.array_equal(central_from_increments(d, dx), ref_central_from_increments(d, dx))


# --- polar decomposition ---------------------------------------------------------


@given(psi=wavefunctions(), hbar=st.sampled_from((1.0, 0.5, 0.3)),
       m=st.sampled_from((1.0, 1.7)))
@settings(max_examples=400, deadline=None)
def test_polar_decompose_equals_reference(psi, hbar, m):
    params = PhysicsParams(m=m, hbar=hbar, mu=0.5)
    fields = polar_decompose(psi.values, psi.grid, params)
    S, rho, _, _ = ref_polar_decompose(psi.values, psi.grid, params)
    assert np.array_equal(fields.S, S)
    assert np.array_equal(fields.rho, rho)


@given(psi=wavefunctions(), hbar=st.sampled_from((1.0, 0.5, 0.3)))
@settings(max_examples=400, deadline=None)
def test_increment_phase_is_within_roundoff_of_numpy_unwrap(psi, hbar):
    """Away from exact half turns the increment form is the unwrapped phase
    up to roundoff.  An increment of exactly +-pi is where the conventions
    part: the increment form steps by +pi*hbar, np.unwrap keeps a -pi jump,
    and from there on the two differ by 2*pi*hbar (the test below)."""
    params = PhysicsParams(m=1.0, hbar=hbar, mu=0.5)
    v = psi.values
    kept = np.flatnonzero(np.abs(v) ** 2 >= EPS_NODE)
    turns = np.angle(v[kept][1:] * np.conj(v[kept][:-1]))
    steps = np.diff(np.angle(v[kept]))
    # skip a half turn, and an increment whose two forms sit near +-pi
    near_half_turn = np.pi - 1e-9
    if np.any(np.abs(turns) > near_half_turn) or np.any(np.abs(np.abs(steps) - np.pi) < 1e-9):
        return
    S = polar_decompose(v, psi.grid, params).S[kept]
    unwrapped = ref_unwrapped_phase(v, params)
    assert np.max(np.abs(S - unwrapped)) <= 1e-13 * (1.0 + np.max(np.abs(unwrapped)))


def test_half_turns_step_by_plus_pi_where_numpy_unwrap_keeps_minus_pi():
    """Neighbours of opposite sign step by +pi*hbar, whatever the signs of
    their zero imaginary parts; np.unwrap keeps the -pi of arg(-1 - 0j) - 0."""
    grid = SpatialGrid(-3.0, 3.0, 8)
    params = PhysicsParams(m=1.0, hbar=0.5, mu=0.5)
    v = np.array([1.0, complex(-1.0, -0.0), complex(1.0, -0.0), -1.0] * 2)
    S = polar_decompose(v, grid, params).S
    assert np.allclose(np.diff(S), np.pi * params.hbar, rtol=0.0, atol=1e-14)
    unwrapped = ref_unwrapped_phase(v, params)
    assert unwrapped[1] - unwrapped[0] == -np.pi * params.hbar
    assert np.isclose((S - unwrapped)[1] - (S - unwrapped)[0], 2.0 * np.pi * params.hbar)


def test_generated_masks_cover_every_shape():
    """The strategy above reaches every mask shape the fill rules distinguish."""
    seen = set()

    @given(mask=st.integers(8, 48).flatmap(masks))
    @settings(max_examples=200, deadline=None)
    def collect(mask):
        idx = np.flatnonzero(mask)
        if mask.all():
            seen.add("all_valid")
        if idx.size == 2:
            seen.add("two_valid")
        if not mask[0] and not mask[-1]:
            seen.add("empty_ends")
        if idx.size > 1 and idx[-1] - idx[0] + 1 > idx.size:
            seen.add("interior_gaps")

    collect()
    assert seen == {"all_valid", "two_valid", "empty_ends", "interior_gaps"}


# --- the propagator --------------------------------------------------------------

GRID = SpatialGrid(-20.0, 20.0, 2048)
HARMONIC = PotentialSpec.harmonic(1.0)


def _initial(kind, hbar=1.0):
    if kind == "odd":
        values = GRID.x * np.exp(-0.5 * GRID.x**2)
        return Wavefunction(values, GRID).normalized().values
    p0 = 6.0 if kind == "fast" else 0.2
    return gaussian_packet(GRID, x0=-3.5, p0=p0, sigma=0.9, hbar=hbar).values


@pytest.mark.parametrize("initial,m,hbar,mu", [
    ("breathing", 1.0, 1.0, 0.45),
    ("odd", 1.0, 1.0, 0.45),
    ("breathing", 1.5, 0.7, 0.45),
    ("breathing", 1.0, 1.0, 0.0),
    ("fast", 1.0, 1.0, 0.45),
], ids=["breathing", "odd", "hbar_0.7_m_1.5", "bare_potential_phase", "fast"])
def test_propagator_steps_equal_reference_steps(initial, m, hbar, mu):
    """200 steps, each equal to the bit to a step built from the references.

    With mu > 0 the reference is the factored rotation on the full grid, and
    the steps also stay within 1e-13 relative of the one-expression step,
    run alongside; with mu = 0 the one-expression step is the reference.
    The breathing packet has one contiguous valid span; the odd state keeps
    a node at x = 0 on this grid, so most of its friction substeps fill an
    interior gap.  hbar = 0.7 scales the rotation by 1/hbar, mu = 0 rotates
    by the bare potential phase, and the fast packet's arg(psi) wraps inside
    the span, where S must not.
    """
    params = PhysicsParams(m=m, hbar=hbar, mu=mu)
    values = _initial(initial, hbar)
    dt = 0.01
    prop = KostinPropagator(GRID, HARMONIC, params, dt)
    ours = np.array(values)
    ref = np.array(values)
    plain = np.array(values)
    for k in range(200):
        ours = prop.step(ours)
        plain = ref_spectral_step(plain, GRID, HARMONIC, params, dt)
        if mu == 0.0:
            assert np.array_equal(ours, plain), f"step {k + 1} differs"
            continue
        ref = ref_factored_step(ref, GRID, HARMONIC, params, dt)
        assert np.array_equal(ours, ref), f"step {k + 1} differs"
        # the two rotations differ by roundoff only (measured 5e-15)
        gap = np.max(np.abs(ours - plain)) / np.max(np.abs(plain))
        assert gap <= 1e-13, f"step {k + 1} is {gap:.2e} from the one-expression step"


def test_fast_packet_wraps_its_phase_inside_the_span():
    """Guard for the test above: the fast packet's arg(psi) jumps by 2 pi
    inside its span, so S is integrated across wraps there."""
    values = _initial("fast")
    theta = np.angle(values[np.abs(values) ** 2 >= EPS_NODE])
    assert np.count_nonzero(np.abs(np.diff(theta)) >= np.pi) > 5


def test_odd_state_has_an_interior_node():
    """Guard for the test above: the first substep of the odd state has a gap."""
    values = _initial("odd")
    k = 2.0 * np.pi * np.fft.fftfreq(GRID.n, d=GRID.dx)
    half_kinetic = np.exp(-1j * k * k * 0.01 / 4.0)
    rho = np.abs(np.fft.ifft(half_kinetic * np.fft.fft(values))) ** 2
    valid = np.flatnonzero(rho >= EPS_NODE)
    assert valid[-1] - valid[0] + 1 > valid.size


@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_rotation_equals_the_complex_exponential_to_the_bit(hbar):
    """The precomputed potential factor, cos + i sin, equals
    np.exp(1j * phase / hbar) bit for bit, signed zeros included: with mu = 0
    the phase is -V dt, and with mu > 0 it is -V (d/mu); both are -0.0 where
    V = 0."""
    for mu in (0.0, 0.45):
        params = PhysicsParams(m=1.0, hbar=hbar, mu=mu)
        prop = KostinPropagator(GRID, HARMONIC, params, 0.01)
        scale = 0.01 if mu == 0.0 else -np.expm1(-mu * 0.01) / mu
        phase = -np.asarray(HARMONIC.evaluate(GRID.x)) * scale
        assert np.signbit(phase[GRID.n // 2]) and phase[GRID.n // 2] == 0.0
        assert prop._potential_factor.tobytes() == np.exp(1j * phase / hbar).tobytes()


# --- the per-step record -----------------------------------------------------------

SMALL_GRID = SpatialGrid(-20.0, 20.0, 256)

# The record takes <p> from the DFT the step already holds, not from the state
# it returns, and sums over frequencies instead of positions: the same number
# up to roundoff (|p| <= 2 here; measured gap 7e-16).
SPECTRAL_ROUNDOFF = 1e-14


def _assert_record_equals_reference(rec, values, prop, params, steps, hydro_tol=None):
    """norm, <x> and Dis equal to the bit; <p> within roundoff of the spectral
    reference and, for a resolved state, within ``hydro_tol`` of sum rho S' dx."""
    for k in range(steps + 1):
        norm, x_mean, dis = ref_record(values, rec.grid, params)
        assert rec.norm[k] == norm, f"norm differs at step {k}"
        assert rec.x_mean[k] == x_mean, f"x_mean differs at step {k}"
        assert rec.dis_center[k] == dis, f"dis_center differs at step {k}"
        gap = abs(rec.p_mean[k] - ref_spectral_momentum(values, rec.grid, params))
        assert gap <= SPECTRAL_ROUNDOFF, f"p_mean differs at step {k}"
        if hydro_tol is not None:
            gap = abs(rec.p_mean[k] - ref_hydrodynamic_momentum(values, rec.grid, params))
            assert gap <= hydro_tol, f"p_mean differs from sum rho S' dx at step {k}"
        values = prop.step(values)


def test_record_in_the_seam_cell_equals_reference():
    """A packet near x_max whose <x> sits in the last cell [x_{n-1}, x_max):
    the disruptor's nodes are n-1 and 0, and its amplitudes wrap the seam.
    The seam cuts the packet, so the state is not resolved on this grid and
    its <p> is not compared with sum rho S' dx (they differ by 8e-4)."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    grid = SMALL_GRID
    values = gaussian_packet(grid, x0=17.0, sigma=0.8).values
    # scale the norm so that <x> lands in the middle of the seam cell
    x_mean = float(np.sum(grid.x * np.abs(values) ** 2) * grid.dx)
    values = values * np.sqrt((grid.x[-1] + 0.5 * grid.dx) / x_mean)
    steps = 40
    rec = evolve(Wavefunction(values, grid), HARMONIC, params,
                 1e-3, steps * 1e-3, snapshot_every=10)
    cells = np.floor((rec.x_mean - grid.x_min) / grid.dx)
    assert np.all(cells == grid.n - 1)
    _assert_record_equals_reference(rec, values, KostinPropagator(grid, HARMONIC, params, 1e-3),
                                    params, steps)


def test_split_step_record_of_a_resolved_packet_equals_reference():
    """A moving packet well inside the grid: <p> also equals sum rho S' dx."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.45)
    values = _initial("breathing")
    steps = 60
    rec = evolve(Wavefunction(values, GRID), HARMONIC, params,
                 0.01, steps * 0.01, snapshot_every=20)
    prop = KostinPropagator(GRID, HARMONIC, params, 0.01)
    # measured gap 4.7e-13
    _assert_record_equals_reference(rec, values, prop, params, steps, hydro_tol=1e-11)


@pytest.mark.parametrize("steps", [0, 40, DIS_BLOCK - 1, 2 * DIS_BLOCK + 43],
                         ids=["t_final_0", "shorter_than_a_block", "one_full_block",
                              "blocks_and_a_rest"])
def test_block_record_equals_reference(steps):
    """evolve fills dis_center a block of DIS_BLOCK records at a time; each
    entry equals the per-step reference, at the block edges and in a last
    partial block too."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.45)
    values = _initial("breathing")
    rec = evolve(Wavefunction(values, GRID), HARMONIC, params,
                 0.01, steps * 0.01, snapshot_every=50)
    assert rec.dis_center.size == steps + 1
    _assert_record_equals_reference(rec, values, KostinPropagator(GRID, HARMONIC, params, 0.01),
                                    params, steps)


@given(columns=st.integers(1, 8),
       amplitudes=st.lists(st.one_of(st.floats(1e-3, 3.0), st.sampled_from((0.0, 1e-13))),
                           min_size=48, max_size=48),
       hbar=st.sampled_from((1.0, 0.7)), m=st.sampled_from((1.0, 1.5)))
@settings(max_examples=200, deadline=None)
def test_stacked_windows_equal_one_call_per_window(columns, amplitudes, hbar, m):
    """disruptor_field of a (6, K) stack of windows equals, column by column,
    the call on each window alone: as evolve passes it (a transposed view)
    and as a contiguous array."""
    grid = SpatialGrid(-3.0, 3.0, 16)
    params = PhysicsParams(m=m, hbar=hbar, mu=0.5)
    windows = np.array(amplitudes[:6 * columns]).reshape(columns, 6)
    for stack in (windows.T, np.ascontiguousarray(windows.T)):
        dis = disruptor_field(stack, grid, params)
        assert dis.shape == (6, columns)
        for c in range(columns):
            assert np.array_equal(dis[:, c], disruptor_field(windows[c], grid, params))


@given(n=st.integers(8, 48),
       cell=st.sampled_from(("0", "1", "2", "n-3", "n-2", "n-1")),
       frac=st.floats(0.0, 1.0, exclude_max=True),
       amplitudes=st.lists(st.one_of(st.floats(1e-3, 3.0), st.sampled_from((0.0, 1e-13))),
                           min_size=48, max_size=48),
       hbar=st.sampled_from((1.0, 0.7)), m=st.sampled_from((1.0, 1.5)))
@settings(max_examples=400, deadline=None)
def test_windowed_disruptor_equals_full_grid(n, cell, frac, amplitudes, hbar, m):
    """Dis from the six amplitudes of locate_window equals the full-grid field
    at both interpolation nodes and at x, next to the seam too."""
    grid = SpatialGrid(-3.0, 3.0, n)
    params = PhysicsParams(m=m, hbar=hbar, mu=0.5)
    R = np.array(amplitudes[:n])
    j0 = {"0": 0, "1": 1, "2": 2, "n-3": n - 3, "n-2": n - 2, "n-1": n - 1}[cell]
    x = min(grid.x[j0] + frac * grid.dx, grid.x_max)
    window, frac = locate_window(grid, x)
    assert window.size == 6
    full = disruptor_field(R, grid, params)
    local = disruptor_field(R[window], grid, params)
    # the path of evolve and of the field-sampled disruptor
    assert interpolate(local[NODE], local[NODE + 1], frac) == sample_field(full, grid, x)
    k0 = min(int(np.floor((x - grid.x_min) / grid.dx)), n - 1)
    for j in (k0, (k0 + 1) % n):
        assert local[(j - int(window[0])) % n] == full[j], f"node {j} of {n}"


@given(n=st.integers(8, 64), data=st.data(), frac=st.floats(0.0, 1.0))
@settings(max_examples=400, deadline=None)
def test_window_reads_the_wrapped_six_points(n, data, frac):
    """locate_window's window reads values[arange(j0 - 2, j0 + 4) % n] for x
    in every cell, the seam cells and x_max included."""
    grid = SpatialGrid(-3.0, 3.0, n)
    cell = data.draw(st.one_of(st.sampled_from((0, 1, 2, n - 4, n - 3, n - 2, n - 1)),
                               st.integers(0, n - 1)), label="cell")
    x = min(grid.x[cell] + frac * grid.dx, grid.x_max)
    j0 = min(int(np.floor((x - grid.x_min) / grid.dx)), n - 1)
    values = np.arange(n) * (1.0 + 0.5j)
    window, _ = locate_window(grid, x)
    assert np.array_equal(values[window], values[np.arange(j0 - 2, j0 + 4) % n])


# --- read-only inputs ------------------------------------------------------------


def _polar_fields(values, grid, params):
    f = polar_decompose(values, grid, params)
    return np.stack((f.R, f.S, f.rho))


@pytest.mark.parametrize("kernel", ["polar_decompose", "quantum_potential", "disruptor_field",
                                    "sample_field", "split_step_spectral"])
def test_kernels_take_read_only_input_and_leave_its_bits(kernel):
    """Each kernel accepts a frozen input, leaves its bits as they were, and
    returns what it returns for a writable copy of the same input."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.45)
    psi = np.array(gaussian_packet(GRID, x0=-3.5, p0=0.2, sigma=0.9).values)
    if kernel == "sample_field":
        arg = disruptor_field(np.abs(psi), GRID, params)
    elif kernel in ("quantum_potential", "disruptor_field"):
        arg = np.abs(psi)
    else:
        arg = psi
    run = {
        "polar_decompose": lambda a: _polar_fields(a, GRID, params),
        "quantum_potential": lambda a: quantum_potential(a, GRID, params),
        "disruptor_field": lambda a: disruptor_field(a, GRID, params),
        "sample_field": lambda a: sample_field(a, GRID, -3.3),
        "split_step_spectral": lambda a: KostinPropagator(GRID, HARMONIC, params, 0.01).step(a),
    }[kernel]
    frozen = arg.copy()
    frozen.setflags(write=False)
    got = run(frozen)
    assert frozen.tobytes() == arg.tobytes()
    assert np.array_equal(got, run(arg.copy()))
