"""Statevector oracle and Grover amplification tests."""

import math
import tracemalloc

import numpy as np
import pytest

from tailamp import mliqae, qsim, riskmodel, stochfem
from tailamp.cli import run_seed

# Four uniform scenarios with ancilla rotation angles (0, 0.70, 1.20, 1.80).
# This fixture is the worked example exercised throughout the suite; the
# expected vectors below were verified independently against the closed-form
# amplitudes sqrt(p_i) (cos(phi_i/2), sin(phi_i/2)).
EXAMPLE_PROBS = (0.25, 0.25, 0.25, 0.25)
EXAMPLE_ANGLES = (0.0, 0.70, 1.20, 1.80)

EXAMPLE_STATE = (
    0.500000, 0.000000, 0.469686, 0.171449,
    0.412668, 0.282321, 0.310805, 0.391663,
)
EXAMPLE_AFTER_ONE_ITERATE = (
    -0.025001, 0.000000, -0.023485, 0.334325,
    -0.020634, 0.550526, -0.015541, 0.763743,
)


def example_spec() -> qsim.OracleSpec:
    return qsim.OracleSpec.from_angles(EXAMPLE_PROBS, EXAMPLE_ANGLES)


def split_iterate_probabilities(spec: qsim.OracleSpec, depth: int) -> list[float]:
    """p(0..depth) from Grover iterates on the real halves (x0, x1) of the state.

    (b, g) are the ancilla-|0> and ancilla-|1> halves of psi = A|0>.  S_chi
    negates x1, I - 2|psi><psi| subtracts c psi with c = 2 (b.x0 - g.x1), and
    the leading minus sign negates both halves: O(N) per iterate, with no
    use of the plane the state stays in.
    """
    b, g = qsim._oracle_halves(spec)
    x0, x1 = b.copy(), g.copy()
    out = [float(np.dot(x1, x1))]
    for _ in range(depth):
        c = 2.0 * (np.dot(b, x0) - np.dot(g, x1))
        x0 *= -1.0
        x0 += c * b
        x1 += c * g
        out.append(float(np.dot(x1, x1)))
    return out


def gate_prepared(spec: qsim.OracleSpec) -> qsim.StateVector:
    """A|0> gate by gate: apply_oracle on the |0> basis state."""
    zero = np.zeros(1 << (spec.n_index_qubits + 1), dtype=complex)
    zero[0] = 1.0
    return qsim.apply_oracle(qsim.StateVector(spec.n_index_qubits, zero), spec)


def random_spec(rng: np.random.Generator, n_scenarios: int) -> qsim.OracleSpec:
    probs = rng.dirichlet(np.ones(n_scenarios))
    gs = rng.uniform(0.0, 1.0, size=n_scenarios)
    return qsim.OracleSpec(probs, gs)


class TestOracleSpec:
    def test_amplitude_is_weighted_response(self):
        spec = qsim.OracleSpec([0.5, 0.5], [0.2, 0.8])
        assert spec.amplitude == pytest.approx(0.5, abs=1e-15)

    def test_from_angles_matches_half_angle_identity(self):
        spec = example_spec()
        expected = np.sin(np.asarray(EXAMPLE_ANGLES) / 2.0) ** 2
        np.testing.assert_allclose(spec.gs, expected, atol=1e-15)

    def test_index_qubits_round_up(self):
        for size, qubits in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (1 << 20, 20)):
            spec = qsim.OracleSpec(np.full(size, 1.0 / size), np.zeros(size))
            assert spec.n_index_qubits == qubits

    def test_one_past_the_size_cap_is_rejected(self):
        size = (1 << qsim.MAX_INDEX_QUBITS) + 1
        with pytest.raises(ValueError, match="size cap"):
            qsim.OracleSpec(np.full(size, 1.0 / size), np.zeros(size))

    def test_rejects_unnormalized_probs(self):
        with pytest.raises(ValueError):
            qsim.OracleSpec([0.5, 0.6], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_probs(self, bad):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            qsim.OracleSpec([bad, 1.0], [0.0, 0.0])

    def test_rejects_out_of_range_response(self):
        with pytest.raises(ValueError):
            qsim.OracleSpec([1.0], [1.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_response(self, bad):
        with pytest.raises(ValueError, match="responses g must be finite"):
            qsim.OracleSpec([0.5, 0.5], [0.2, bad])


class TestOracleState:
    def test_example_amplitudes(self):
        state = qsim.build_oracle_state(example_spec())
        np.testing.assert_allclose(state.amplitudes.real, EXAMPLE_STATE, atol=1e-6)
        np.testing.assert_allclose(state.amplitudes.imag, 0.0, atol=1e-15)

    def test_single_scenario_zero_rotation(self):
        state = qsim.build_oracle_state(qsim.OracleSpec([1.0], [0.0]))
        np.testing.assert_allclose(state.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_full_rotation_puts_all_mass_on_ancilla_one(self):
        state = qsim.build_oracle_state(qsim.OracleSpec([0.5, 0.5], [1.0, 1.0]))
        assert qsim.success_probability(state) == pytest.approx(1.0, abs=1e-12)

    def test_direct_and_gate_paths_agree(self):
        # Up to the statevector benchmark's 16,384 scenarios: the circuit is
        # one layer per qubit, and its adjoint takes A|0> back to |0>.
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 8, 16, 1 << 14):
            spec = random_spec(rng, n)
            assert len(qsim.oracle_gates(spec)) == spec.n_index_qubits + 1
            prepared = gate_prepared(spec).amplitudes
            np.testing.assert_allclose(prepared, qsim.build_oracle_state(spec).amplitudes, rtol=0, atol=1e-12)
            back = qsim.apply_oracle(qsim.StateVector(spec.n_index_qubits, prepared), spec, adjoint=True)
            np.testing.assert_allclose(back.amplitudes, np.eye(1, prepared.size)[0], rtol=0, atol=1e-12)

    def test_gate_path_handles_zero_probability_scenarios(self):
        spec = qsim.OracleSpec([0.5, 0.0, 0.5], [0.3, 0.7, 0.9])
        np.testing.assert_allclose(
            gate_prepared(spec).amplitudes, qsim.build_oracle_state(spec).amplitudes, atol=1e-12
        )

    @pytest.mark.parametrize(
        "probs, gs",
        [
            (np.random.default_rng(13).dirichlet(np.ones(5)), np.random.default_rng(17).uniform(0.0, 1.0, 5)),
            (np.random.default_rng(19).dirichlet(np.ones(1000)), np.random.default_rng(23).uniform(0.0, 1.0, 1000)),
            ([0.5, 0.0, 0.25, 0.0, 0.25], [0.3, 0.7, 0.0, 1.0, 0.9]),
            ([0.2, 0.3, 0.5], [0.0, 1.0, 0.0]),
        ],
        ids=["5", "1000", "zero-weight", "g-0-and-1"],
    )
    def test_halves_are_the_unpadded_half_angle_amplitudes(self, probs, gs):
        spec = qsim.OracleSpec(probs, gs)
        zero, one = qsim._oracle_halves(spec)
        assert zero.shape == one.shape == (spec.n_scenarios,)
        root_p, half = np.sqrt(spec.probs), spec.angles / 2.0
        np.testing.assert_allclose(zero, root_p * np.cos(half), rtol=0, atol=1e-15)
        np.testing.assert_allclose(one, root_p * np.sin(half), rtol=0, atol=1e-15)
        state = qsim.build_oracle_state(spec).amplitudes
        assert not np.any(state[2 * spec.n_scenarios :])

    def test_success_probability_matches_weighted_response(self):
        rng = np.random.default_rng(11)
        for n in range(1, 17):
            spec = random_spec(rng, n)
            state = qsim.build_oracle_state(spec)
            assert qsim.success_probability(state) == pytest.approx(
                spec.amplitude, abs=1e-12
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitude vector has wrong length"):
            qsim.StateVector(2, np.zeros(4))

    def test_state_is_normalized(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, 6)
        assert np.linalg.norm(qsim.build_oracle_state(spec).amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestGrover:
    def test_one_iterate_matches_expected_vector(self):
        spec = example_spec()
        state = qsim.apply_grover(qsim.build_oracle_state(spec), spec, 1)
        np.testing.assert_allclose(
            state.amplitudes.real, EXAMPLE_AFTER_ONE_ITERATE, atol=1e-6
        )

    def test_zero_iterates_is_identity(self):
        spec = example_spec()
        psi = qsim.build_oracle_state(spec)
        out = qsim.apply_grover(psi, spec, 0)
        np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)

    def test_iterates_preserve_norm(self):
        rng = np.random.default_rng(5)
        spec = random_spec(rng, 4)
        state = qsim.build_oracle_state(spec)
        for _ in range(4):
            state = qsim.apply_grover(state, spec, 1)
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_amplified_probability_follows_closed_form(self):
        rng = np.random.default_rng(19)
        for _ in range(6):
            spec = random_spec(rng, 8)
            a = spec.amplitude
            if not 0.01 < a < 0.99:
                continue
            psi = qsim.build_oracle_state(spec)
            for k in range(7):
                state = qsim.apply_grover(psi, spec, k)
                expected = qsim.analytic_success_probability(a, k)
                assert qsim.success_probability(state) == pytest.approx(
                    expected, abs=1e-10
                )

    def test_reflections_compose_into_one_iterate(self):
        spec = example_spec()
        psi = qsim.build_oracle_state(spec)
        step = qsim.reflect_success(psi)
        step = qsim.apply_oracle(step, spec, adjoint=True)
        step = qsim.reflect_zero(step)
        step = qsim.apply_oracle(step, spec)
        composed = -step.amplitudes
        whole = qsim.apply_grover(psi, spec, 1)
        np.testing.assert_allclose(composed, whole.amplitudes, atol=1e-12)

    @pytest.mark.parametrize(
        "spec, loading",
        [
            (qsim.OracleSpec(np.full(8, 0.125), np.linspace(0.0, 0.9, 8)), "h"),
            (qsim.OracleSpec(np.random.default_rng(31).dirichlet(np.ones(8)), np.linspace(0.05, 0.6, 8)), "tree"),
            (qsim.OracleSpec([0.3, 0.1, 0.0, 0.25, 0.35], [0.2, 0.9, 0.4, 0.0, 0.7]), "tree"),
        ],
        ids=["hadamard", "tree", "padded"],
    )
    def test_reflection_identity_matches_the_circuit(self, spec, loading):
        """apply_grover's I - 2|psi><psi| step equals A S_0 A^dagger gate by gate."""
        gates = qsim.oracle_gates(spec)
        assert len(gates) == spec.n_index_qubits + 1
        assert (gates[0][1] is qsim._HADAMARD) == (loading == "h")
        rng = np.random.default_rng(37)
        dim = 1 << (spec.n_index_qubits + 1)
        noise = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        starts = [
            qsim.build_oracle_state(spec),
            qsim.StateVector(spec.n_index_qubits, noise / np.linalg.norm(noise)),
        ]
        for start in starts:
            chain = start
            for k in range(1, 5):
                chain = qsim.reflect_success(chain)
                chain = qsim.apply_oracle(chain, spec, adjoint=True)
                chain = qsim.reflect_zero(chain)
                chain = qsim.apply_oracle(chain, spec)
                chain = qsim.StateVector(chain.n_index_qubits, -chain.amplitudes)
                whole = qsim.apply_grover(start, spec, k)
                np.testing.assert_allclose(whole.amplitudes, chain.amplitudes, rtol=0, atol=1e-12)

    def test_rejects_negative_iterate_count(self):
        spec = example_spec()
        with pytest.raises(ValueError):
            qsim.apply_grover(qsim.build_oracle_state(spec), spec, -1)
        calls = (
            qsim.StatevectorOracle(spec).success_probability,
            qsim.AnalyticOracle(spec.amplitude).success_probability,
            lambda k: qsim.analytic_success_probability(spec.amplitude, k),
        )
        for call in calls:
            with pytest.raises(ValueError, match="iterate count must be nonnegative"):
                call(-1)

    def test_oracle_adjoint_inverts_oracle(self):
        rng = np.random.default_rng(23)
        spec = random_spec(rng, 5)
        psi = qsim.build_oracle_state(spec)
        back = qsim.apply_oracle(psi, spec, adjoint=True)
        expected = np.zeros_like(back.amplitudes)
        expected[0] = 1.0
        np.testing.assert_allclose(back.amplitudes, expected, atol=1e-12)


class TestAnalyticResponse:
    def test_example_amplified_value(self):
        assert qsim.analytic_success_probability(0.262500, 1) == pytest.approx(
            0.998156, abs=1e-6
        )

    def test_zero_amplitude_stays_zero(self):
        for k in (0, 1, 5, 20):
            assert qsim.analytic_success_probability(0.0, k) == 0.0

    def test_half_amplitude_identity_at_depth_zero(self):
        assert qsim.analytic_success_probability(0.5, 0) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_rejects_out_of_range_amplitude(self):
        with pytest.raises(ValueError, match=r"amplitude must lie in \[0, 1\]"):
            qsim.analytic_success_probability(1.2, 0)


class TestSampling:
    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(0)
        assert qsim.sample_shots(0.0, 50, rng) == 0
        assert qsim.sample_shots(1.0, 50, rng) == 50

    def test_rejects_out_of_range_inputs(self):
        rng = np.random.default_rng(0)
        for p in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match="probability out of range"):
                qsim.sample_shots(p, 50, rng)
        with pytest.raises(ValueError, match="shot count must be nonnegative"):
            qsim.sample_shots(0.5, -1, rng)

    def test_empirical_frequency_near_truth(self):
        rng = np.random.default_rng(42)
        m = 100_000
        h = qsim.sample_shots(0.3, m, rng)
        sigma = math.sqrt(0.3 * 0.7 / m)
        assert abs(h / m - 0.3) < 5 * sigma

    def test_seeded_draws_are_reproducible(self):
        a = qsim.sample_shots(0.4, 1000, np.random.default_rng(9))
        b = qsim.sample_shots(0.4, 1000, np.random.default_rng(9))
        assert a == b


class TestMeasurementModels:
    def test_statevector_and_analytic_models_agree(self):
        spec = example_spec()
        sv = qsim.StatevectorOracle(spec)
        an = qsim.AnalyticOracle(spec.amplitude)
        for k in range(6):
            assert sv.success_probability(k) == pytest.approx(
                an.success_probability(k), abs=1e-10
            )

    @pytest.mark.parametrize("g, theta", [(0.0, 0.0), (1.0, math.pi / 2.0)])
    def test_rotation_angle_is_exact_at_the_edges(self, g, theta):
        probs = np.random.default_rng(37).dirichlet(np.ones(7))
        assert qsim.StatevectorOracle(qsim.OracleSpec(probs, np.full(7, g)))._theta == theta

    def test_oracle_build_holds_no_padded_buffers(self):
        # One past a power of two, a padded register is almost twice the
        # scenario count; the unpadded halves and sqrt(p) take 3 N floats.
        n = (1 << 14) + 1
        rng = np.random.default_rng(53)
        spec = qsim.OracleSpec(rng.dirichlet(np.ones(n)), rng.uniform(0.0, 1.0, n))
        qsim.StatevectorOracle(spec)
        tracemalloc.start()
        try:
            qsim.StatevectorOracle(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * n

    def test_statevector_model_answers_depths_in_any_order(self):
        fresh = qsim.StatevectorOracle(example_spec())
        in_order = [fresh.success_probability(k) for k in range(6)]
        sv = qsim.StatevectorOracle(example_spec())
        depths = (3, 1, 3, 1, 5)
        got = [sv.success_probability(k) for k in depths]
        assert got == [in_order[k] for k in depths]

    def test_statevector_model_follows_closed_form_to_depth_40(self):
        rng = np.random.default_rng(29)
        spec = qsim.OracleSpec(rng.dirichlet(np.ones(1024)), rng.uniform(0.0, 0.05, 1024))
        assert qsim.oracle_gates(spec)[0][1] is not qsim._HADAMARD
        sv = qsim.StatevectorOracle(spec)
        for k in range(41):
            assert sv.success_probability(k) == pytest.approx(
                qsim.analytic_success_probability(spec.amplitude, k), abs=1e-10
            )

    @pytest.mark.parametrize(
        "spec, loading",
        [
            (qsim.OracleSpec(np.random.default_rng(41).dirichlet(np.ones(48)), np.random.default_rng(43).uniform(0.0, 0.05, 48)), "tree"),
            (qsim.OracleSpec(np.full(64, 1.0 / 64), np.random.default_rng(47).uniform(0.0, 0.4, 64)), "h"),
        ],
        ids=["tree", "hadamard"],
    )
    def test_split_iterates_match_the_complex_reference_to_depth_400(self, spec, loading):
        assert (qsim.oracle_gates(spec)[0][1] is qsim._HADAMARD) == (loading == "h")
        sv = qsim.StatevectorOracle(spec)
        psi = qsim.build_oracle_state(spec)
        for k, split in enumerate(split_iterate_probabilities(spec, 400)):
            want = qsim.success_probability(qsim.apply_grover(psi, spec, k))
            assert split == pytest.approx(want, rel=0, abs=1e-12)
            assert sv.success_probability(k) == pytest.approx(want, rel=0, abs=1e-12)

    def test_rotation_angle_follows_the_split_iterate_to_depth_4000(self):
        rng = np.random.default_rng(31)
        spec = qsim.OracleSpec(rng.dirichlet(np.ones(1024)), rng.uniform(0.0, 0.05, 1024))
        assert qsim.oracle_gates(spec)[0][1] is not qsim._HADAMARD
        sv = qsim.StatevectorOracle(spec)
        for k, split in enumerate(split_iterate_probabilities(spec, 4000)):
            assert sv.success_probability(k) == pytest.approx(split, rel=0, abs=1e-11)

    @pytest.mark.parametrize(
        "n_scenarios, budget",
        [(1024, 4_000), (1024, 32_000), (16_384, 64_000), (16_384, 100_000_000)],
        ids=["4000", "32000", "16384-64000", "16384-1e8"],
    )
    def test_statevector_model_drives_the_same_runs_as_the_closed_form(self, n_scenarios, budget):
        ens = stochfem.build_scenario_ensemble("bar1d", n_scenarios, 1)
        s = riskmodel.ScenarioSet(ens.probs, ens.responses["compliance"], ens.alpha_level)
        spec = riskmodel.to_oracle_spec(s, riskmodel.normalize_hinge(s, riskmodel.var_threshold(s)))
        cfg = mliqae.ControllerConfig(budget=budget)
        for rep in range(25):
            seed = run_seed(0, "mliqae", budget, rep)
            sv = mliqae.run(qsim.StatevectorOracle(spec), cfg, np.random.default_rng(seed))
            an = mliqae.run(qsim.AnalyticOracle(spec.amplitude), cfg, np.random.default_rng(seed))
            assert [(b.kind, b.k, b.m, b.h) for b in sv.ledger] == [
                (b.kind, b.k, b.m, b.h) for b in an.ledger
            ]
            assert sv.a_hat == an.a_hat
