import os
import subprocess
import sys
import zlib
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from sympulse.problems import (
    SingularPotentialError,
    _eccentric_anomaly,
    get_problem,
    harmonic,
    henon_heiles,
    kepler,
    kepler_reference,
    quartic,
)

J2 = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], float)


def central_difference_gradient(energy, y, step=1e-6):
    g = np.empty_like(y)
    for i in range(y.size):
        yp, ym = y.copy(), y.copy()
        yp[i] += step
        ym[i] -= step
        g[i] = (energy(yp) - energy(ym)) / (2 * step)
    return g


def sample_states(name, n=100):
    # crc32, not hash(): Python salts str hashes per process, so a failure
    # drawn from hash(name) could not be replayed
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    if name == "kepler":
        # annulus in position space keeps clear of the singularity
        radius = rng.uniform(0.3, 2.0, n)
        angle = rng.uniform(0, 2 * np.pi, n)
        q = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        p = rng.uniform(-2, 2, (n, 2))
        return np.hstack([q, p])
    dim = 2 if name == "harmonic" else 4
    return rng.uniform(-1.5, 1.5, (n, dim))


ALL_SYSTEMS = {
    "kepler": lambda: kepler(0.6),
    "quartic": quartic,
    "henon-heiles": henon_heiles,
    "harmonic": harmonic,
}


class TestSampleStates:
    def test_states_do_not_depend_on_the_hash_seed(self):
        # two processes with different str-hash salts draw the states this
        # one draws
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")])
        code = (
            "from test_problems import ALL_SYSTEMS, sample_states\n"
            "print(*(sample_states(name, 3).tobytes().hex() for name in sorted(ALL_SYSTEMS)))"
        )
        drawn = {
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("107", "139")
        }
        own = " ".join(sample_states(name, 3).tobytes().hex() for name in sorted(ALL_SYSTEMS))
        assert drawn == {own + "\n"}


class TestCommonStructure:
    @pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
    def test_gradient_matches_finite_differences(self, name):
        system, _ = ALL_SYSTEMS[name]()
        for y in sample_states(name):
            g = system.gradient(y)
            fd = central_difference_gradient(system.energy, y)
            scale = max(1.0, np.max(np.abs(g)))
            assert np.max(np.abs(g - fd)) <= 1e-6 * scale

    @pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
    def test_energy_is_first_integral_of_its_flow(self, name):
        system, _ = ALL_SYSTEMS[name]()
        for y in sample_states(name):
            g = system.gradient(y)
            f = system.vector_field(y)
            assert abs(g @ f) <= 1e-12 * max(1.0, g @ g)

    @pytest.mark.parametrize("name", ["kepler", "quartic"])
    def test_quadratic_invariants_are_first_integrals(self, name):
        # exact gradient of L = q1 p2 - q2 p1
        grad_L = lambda y: np.array([y[3], -y[2], -y[1], y[0]])
        system, _ = ALL_SYSTEMS[name]()
        for y in sample_states(name):
            f = system.vector_field(y)
            assert abs(grad_L(y) @ f) <= 1e-10 * max(1.0, np.linalg.norm(f))

    @pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
    def test_vectorized_evaluation_matches_loop(self, name):
        system, _ = ALL_SYSTEMS[name]()
        batch = sample_states(name, 7)
        energies = system.energy(batch)
        fields = system.vector_field(batch)
        for k, y in enumerate(batch):
            assert energies[k] == pytest.approx(float(system.energy(y)), abs=0)
            np.testing.assert_array_equal(fields[k], system.vector_field(y))


    @pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
    def test_energy_keeps_the_leading_axes_of_a_block(self, name):
        # a (3, 5, n) block gives a (3, 5) array, each entry bit for bit the
        # energy of its state alone (one state runs on numpy scalars)
        system, _ = ALL_SYSTEMS[name]()
        block = sample_states(name, 15).reshape(3, 5, -1)
        energies = system.energy(block)
        assert energies.shape == (3, 5)
        for index in np.ndindex(3, 5):
            assert energies[index].hex() == float(system.energy(block[index])).hex()


def reference_flow(name, y):
    """The flow (dH/dp, -dH/dq) written out from each Hamiltonian, operation
    for operation, as the reference the fused kernels must reproduce bit for
    bit."""
    q, p = (y[..., :1], y[..., 1:]) if name == "harmonic" else (y[..., :2], y[..., 2:])
    if name == "kepler":
        r2 = np.sum(q * q, axis=-1)
        dq = q / (r2 * np.sqrt(r2))[..., None]
    elif name == "quartic":
        dq = 4.0 * q * np.sum(q**2, axis=-1)[..., None]
    elif name == "henon-heiles":
        q1, q2 = y[..., 0], y[..., 1]
        dq = np.stack([q1 + 2.0 * q1 * q2, q2 + q1 * q1 - q2 * q2], axis=-1)
    else:
        dq = q.copy()
    return np.concatenate([p, -dq], axis=-1)


class TestFlowKernel:
    # one state, a block of rows, a (k, s, n) stack, a (k, s, n) view that
    # is not contiguous (every other stage of a deeper stack: the kernels
    # read the rows in ravel() order) and an empty block; a NaN row gives a
    # NaN field row and leaves the other rows alone
    @pytest.mark.parametrize(
        "shape, nan_row",
        [
            ((), False), ((3,), False), ((3,), True), ((5, 3), False), ((2, 3), True),
            ("strided", False), ((0,), False),
        ],
        ids=["state", "block", "block-nan", "stack", "stack-nan", "stack-strided", "empty"],
    )
    @pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
    def test_flow_is_the_canonical_formula_bit_for_bit(self, name, shape, nan_row):
        system, _ = ALL_SYSTEMS[name]()
        if shape == "strided":
            y = sample_states(name, 24).reshape(4, 6, system.dim)[:, ::2]
            assert y.shape == (4, 3, system.dim) and not y.flags.c_contiguous
        else:
            n = int(np.prod(shape))
            y = sample_states(name, n).reshape(shape + (system.dim,))
        if nan_row:
            y.reshape(-1, system.dim)[1, 0] = np.nan
        f = system.vector_field(y)
        assert f.shape == y.shape
        np.testing.assert_array_equal(f, reference_flow(name, y))

    @pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
    def test_gradient_is_minus_J_times_the_flow(self, name):
        system, _ = ALL_SYSTEMS[name]()
        y = sample_states(name, 6).reshape(2, 3, system.dim)
        f = system.vector_field(y)
        m = system.m
        np.testing.assert_array_equal(
            system.gradient(y), np.concatenate([-f[..., m:], f[..., :m]], axis=-1)
        )


def decimal_energy(name, y):
    """H at a state of Decimals, in the current decimal context."""
    half = Decimal("0.5")
    if name == "harmonic":
        return half * (y[0] * y[0] + y[1] * y[1])
    q1, q2, p1, p2 = y
    kinetic = half * (p1 * p1 + p2 * p2)
    r2 = q1 * q1 + q2 * q2
    if name == "kepler":
        return kinetic - 1 / r2.sqrt()
    if name == "quartic":
        return kinetic + r2 * r2
    return kinetic + half * r2 + q1 * q1 * q2 - q2 * q2 * q2 / 3


def decimal_increment_terms(name, y, d):
    """The terms of H(y + d) - H(y) as each problem's `energy_increment`
    kernel adds them up, evaluated exactly on Decimals (the Henon-Heiles
    cubic's last product split into its three monomials, whose round-off is
    relative to each): they sum to the increment, and their absolute sum
    scales the round-off of the kernel."""
    half = Decimal("0.5")
    if name == "harmonic":
        (q, p), (dq, dp) = y, d
        return [dq * (q + half * dq), dp * (p + half * dp)]
    q1, q2, p1, p2 = y
    d1, d2, d3, d4 = d
    kinetic = [d3 * (p1 + half * d3), d4 * (p2 + half * d4)]
    a1, a2 = d1 * (2 * q1 + d1), d2 * (2 * q2 + d2)
    if name == "kepler":
        r0, r1 = (q1 * q1 + q2 * q2).sqrt(), ((q1 + d1) ** 2 + (q2 + d2) ** 2).sqrt()
        return kinetic + [a / ((r0 + r1) * r0 * r1) for a in (a1, a2)]
    if name == "quartic":
        return kinetic + [a * (2 * (q1 * q1 + q2 * q2) + a1 + a2) for a in (a1, a2)]
    return kinetic + [
        d1 * (q1 + half * d1), d2 * (q2 + half * d2), q2 * d1 * (2 * q1 + d1),
        d2 * (q1 + d1) * (q1 + d1), -d2 * q2 * q2, -d2 * q2 * d2, -d2 * d2 * d2 / 3,
    ]


# The round-off bound of the increment kernels, in units of eps sum|terms|.
# No term passes through more than 13 roundings (Kepler's potential term:
# q + d, hypot, the sums a1 + a2 and r0 + r1, the product r0 r1 and two
# divisions), so a kernel's error is at most gamma_13 sum|terms|, about
# 6.5 eps sum|terms| (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 3); the bound allows 16.  A bound relative to the
# increment itself cannot hold: where the terms cancel, their round-off
# stays the size of the terms.
INCREMENT_ROUNDOFF = 16 * Decimal(np.finfo(float).eps)


def check_increment(name, y, d):
    """Assert that the kernel's increment at (y, d) lies within its
    round-off bound of a fifty-digit evaluation; return sum|terms| / |exact|,
    the factor by which the terms cancel."""
    system, _ = ALL_SYSTEMS[name]()
    with localcontext() as ctx:
        ctx.prec = 50
        y_dec = [Decimal(float(v)) for v in y]
        d_dec = [Decimal(float(v)) for v in d]
        y1_dec = [a + b for a, b in zip(y_dec, d_dec)]
        exact = decimal_energy(name, y1_dec) - decimal_energy(name, y_dec)
        terms = decimal_increment_terms(name, y_dec, d_dec)
        size = sum(abs(t) for t in terms)
        assert abs(sum(terms) - exact) <= Decimal("1e-30") * size
        (got,) = system.energy_increment(y, d[None])
        assert isinstance(got, float)
        assert abs(Decimal(got) - exact) <= INCREMENT_ROUNDOFF * size
        return size / abs(exact)


class TestEnergyIncrement:
    @pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
    def test_matches_a_fifty_digit_evaluation(self, name):
        # increments drawn independently of the flow; at small |d| the
        # subtraction H(y + d) - H(y) misses this bound by orders of magnitude
        rng = np.random.default_rng(2010)
        states = sample_states(name, 60)
        directions = rng.normal(size=states.shape)
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        sizes = 10.0 ** rng.uniform(-12.0, -1.0, len(states))
        for y, d in zip(states, directions * sizes[:, None]):
            check_increment(name, y, d)

    # two draws of the test above, while it seeded from the salted hash(),
    # that missed its former bound of 1e-12 |exact| (by 1.3e-12 and
    # 1.8e-12): the terms cancel to 1/26 000 and 1/58 000 of their absolute
    # sum, and the kernel is within 0.22 and 0.14 eps of that sum
    @pytest.mark.parametrize(
        "y, d",
        [
            (
                ["0x1.b108f95b860a0p-3", "0x1.14e1b30616fbcp+0",
                 "0x1.534a2b4801500p-6", "0x1.c617a0de738c8p-2"],
                ["-0x1.03a5565ee80f4p-21", "0x1.229d23b6c2025p-21",
                 "0x1.598c418781d2ap-21", "0x1.9412db4bdd3afp-21"],
            ),
            (
                ["0x1.219c0ec682374p-2", "-0x1.9f5981d083ad0p-2",
                 "0x1.ab8bc908f4480p-4", "-0x1.54db876aa6280p-5"],
                ["0x1.1f5db975900b3p-24", "0x1.10c1fec650c5dp-27",
                 "0x1.0dd677c52da2dp-28", "0x1.2ed8de9475019p-29"],
            ),
        ],
        ids=["hashseed-107", "hashseed-139"],
    )
    def test_cancelling_henon_heiles_terms_stay_within_their_round_off(self, y, d):
        y, d = (np.array([float.fromhex(v) for v in x]) for x in (y, d))
        assert check_increment("henon-heiles", y, d) > 1e4

    @pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
    def test_row_kernel_gives_each_rows_own_increment(self, name):
        # a block of k increments gives k floats, each bit for bit the
        # increment of its row alone, and within the round-off of the plain
        # difference H(y + d) - H(y), for |d| from 1e-9 to 1e-1: the
        # degeneracy floor 64 eps max(1, |H|) of the root search
        system, _ = ALL_SYSTEMS[name]()
        rng = np.random.default_rng(26)
        eps = np.finfo(float).eps
        for y in sample_states(name, 20):
            block = rng.normal(size=(5, y.size)) * 10.0 ** rng.uniform(-9.0, -1.0, (5, 1))
            rows = system.energy_increment(y, block)
            assert len(rows) == 5 and all(type(v) is float for v in rows)
            for d, got in zip(block, rows):
                (alone,) = system.energy_increment(y, d[None])
                assert got.hex() == alone.hex()
                h0, h1 = float(system.energy(y)), float(system.energy(y + d))
                assert abs(got - (h1 - h0)) <= 64 * eps * max(1.0, abs(h0))


class TestKepler:
    def test_start_state_energy_and_momentum(self):
        system, ic = kepler(0.6)
        assert float(system.energy(ic.y0)) == pytest.approx(-0.5, abs=1e-15)
        L = system.quadratic_invariants[0].fn
        assert float(L(ic.y0)) == pytest.approx(0.8, abs=1e-15)

    def test_gradient_at_start_state(self):
        system, ic = kepler(0.6)
        np.testing.assert_allclose(
            system.gradient(ic.y0), [6.25, 0.0, 0.0, 2.0], rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("e", [-0.1, 1.0, 1.5])
    def test_rejects_bad_eccentricity(self, e):
        with pytest.raises(ValueError):
            kepler(e)

    def test_singularity_raises(self):
        system, _ = kepler(0.3)
        with pytest.raises(SingularPotentialError):
            system.energy(np.array([0.0, 0.0, 0.1, 0.1]))
        with pytest.raises(SingularPotentialError):
            system.gradient(np.array([1e-9, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("path", ["vector_field", "energy"])
    def test_a_nan_row_does_not_hide_a_singular_row(self, path):
        # the min of these radii is NaN, which compares false with any bound
        system, _ = kepler(0.6)
        y = np.array([[np.nan, 0.0, 0.0, 1.0], [1e-9, 0.0, 0.0, 1.0]])
        with pytest.raises(SingularPotentialError):
            getattr(system, path)(y)


class TestQuartic:
    def test_energy_and_momentum_values(self):
        system, ic = get_problem("quartic", y0=(1.0, 0.0, 0.0, 1.0))
        y = ic.y0
        assert float(system.energy(y)) == pytest.approx(1.5, abs=0)
        assert float(system.quadratic_invariants[0].fn(y)) == pytest.approx(1.0, abs=0)

    def test_gradient_on_momentum_free_states(self):
        system, _ = quartic()
        for q1, q2 in [(1.0, 0.0), (0.5, -0.7), (0.0, 2.0)]:
            y = np.array([q1, q2, 0.0, 0.0])
            r2 = q1 * q1 + q2 * q2
            np.testing.assert_allclose(
                system.gradient(y), [4 * q1 * r2, 4 * q2 * r2, 0.0, 0.0], atol=1e-14
            )


class TestHenonHeiles:
    def test_start_energy(self):
        system, ic = henon_heiles()
        assert float(system.energy(ic.y0)) == pytest.approx(0.15, abs=1e-16)

    def test_escape_threshold_at_saddles(self):
        system, _ = henon_heiles()
        saddles = [(0.0, 1.0), (-np.sqrt(3) / 2, -0.5), (np.sqrt(3) / 2, -0.5)]
        for q1, q2 in saddles:
            y = np.array([q1, q2, 0.0, 0.0])
            assert float(system.energy(y)) == pytest.approx(1.0 / 6.0, abs=1e-15)
            # saddle points are equilibria of the potential
            np.testing.assert_allclose(system.gradient(y)[:2], 0.0, atol=1e-15)

    def test_origin_is_equilibrium(self):
        system, _ = henon_heiles()
        np.testing.assert_array_equal(
            system.gradient(np.zeros(4)), np.zeros(4)
        )


class TestHarmonic:
    def test_values(self):
        system, ic = harmonic()
        assert float(system.energy(ic.y0)) == 0.5
        np.testing.assert_array_equal(
            system.vector_field(np.array([0.3, -1.1])), [-1.1, -0.3]
        )


class TestGetProblem:
    def test_lookup_and_override(self):
        system, ic = get_problem("kepler", e=0.2)
        assert float(system.energy(ic.y0)) == pytest.approx(-0.5, abs=1e-14)
        _, ic2 = get_problem("quartic", y0=(1.0, 0.0, 0.0, 1.0))
        np.testing.assert_array_equal(ic2.y0, [1.0, 0.0, 0.0, 1.0])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_problem("three-body")

    def test_eccentricity_only_for_kepler(self):
        # the library names its parameter, not the command-line flag
        message = "^e only applies to the kepler problem, not 'quartic'$"
        with pytest.raises(ValueError, match=message):
            get_problem("quartic", e=0.3)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            get_problem("harmonic", y0=(1.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_start_state_rejected(self, bad):
        with pytest.raises(ValueError, match="y0 must be finite"):
            get_problem("kepler", y0=(0.4, 0.0, 0.0, bad))


class TestKeplerReference:
    @pytest.mark.parametrize("e", [0.999, 0.9999, 0.99999])
    def test_eccentric_anomaly_converges_near_parabolic(self, e):
        # plain Newton from M + e sin M wanders off at some M near 0 and 2 pi
        for t in np.linspace(0.0, 2.0 * np.pi, 2001):
            E = _eccentric_anomaly(e, t)
            assert abs(E - e * np.sin(E) - np.remainder(t, 2.0 * np.pi)) <= 1e-14
            assert np.isfinite(kepler_reference(e, t)).all()

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_time_that_is_not_finite_rejected(self, t):
        # refused at once, not after 100 iterations of Kepler's equation
        with pytest.raises(ValueError, match="time must be finite"):
            kepler_reference(0.6, t)

    def test_time_zero_is_start_state(self):
        _, ic = kepler(0.6)
        np.testing.assert_allclose(kepler_reference(0.6, 0.0), ic.y0, atol=1e-15)

    def test_invariants_along_exact_flow(self):
        system, _ = kepler(0.6)
        L = system.quadratic_invariants[0].fn
        for t in np.linspace(0.0, 50.0, 41):
            y = kepler_reference(0.6, t)
            assert float(system.energy(y)) == pytest.approx(-0.5, abs=1e-13)
            assert float(L(y)) == pytest.approx(0.8, abs=1e-13)

    def test_circular_orbit_period(self):
        _, ic = kepler(0.0)
        np.testing.assert_allclose(
            kepler_reference(0.0, 2.0 * np.pi), ic.y0, rtol=0, atol=1e-12
        )
        # unit circle throughout
        for t in np.linspace(0, 6.0, 13):
            y = kepler_reference(0.0, t)
            assert np.hypot(y[0], y[1]) == pytest.approx(1.0, abs=1e-13)
