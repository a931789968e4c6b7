import numpy as np
import pytest

from sympulse.problems import (
    SingularPotentialError,
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
    rng = np.random.default_rng(hash(name) % 2**32)
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


def reference_flow(name, y):
    """The flow (dH/dp, -dH/dq) written out from each Hamiltonian, operation
    for operation, as the reference the fused kernels must reproduce bit for
    bit."""
    q, p = (y[..., :1], y[..., 1:]) if name == "harmonic" else (y[..., :2], y[..., 2:])
    if name == "kepler":
        r = np.sqrt(np.sum(q * q, axis=-1))
        dq = q / r[..., None] ** 3
    elif name == "quartic":
        dq = 4.0 * q * np.sum(q**2, axis=-1)[..., None]
    elif name == "henon-heiles":
        q1, q2 = y[..., 0], y[..., 1]
        dq = np.stack([q1 + 2.0 * q1 * q2, q2 + q1 * q1 - q2 * q2], axis=-1)
    else:
        dq = q.copy()
    return np.concatenate([p, -dq], axis=-1)


class TestFlowKernel:
    @pytest.mark.parametrize("shape", [(), (3,), (5, 3)])
    @pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
    def test_flow_is_the_canonical_formula_bit_for_bit(self, name, shape):
        system, _ = ALL_SYSTEMS[name]()
        n = int(np.prod(shape))
        y = sample_states(name, n).reshape(shape + (system.dim,))
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


class TestQuartic:
    def test_energy_and_momentum_values(self):
        system, _ = quartic((1.0, 0.0, 0.0, 1.0))
        y = np.array([1.0, 0.0, 0.0, 1.0])
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
        with pytest.raises(ValueError):
            get_problem("quartic", e=0.3)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            get_problem("harmonic", y0=(1.0, 0.0, 0.0))


class TestKeplerReference:
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
