"""Random-field machinery and finite element solver tests."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tailamp.cli import BenchConfig
from tailamp.mliqae import ControllerConfig
from tailamp import stochfem
from tailamp.riskmodel import ScenarioSet, cvar_from_amplitude, discrete_cvar, mc_estimate_cvar, var_threshold
from tailamp.stochfem import (
    _PLANE_BLOCK,
    QOI_NAMES,
    KernelModel,
    PlaneStressSolver,
    build_bar_mesh,
    build_cantilever_mesh,
    build_lbracket_mesh,
    build_scenario_ensemble,
    checked,
    gaussian_kernel,
    nystrom_basis,
    read_ensemble,
    sample_field,
    solve_bar_1d,
    solve_plane_stress_q4,
    write_ensemble,
)


def on_line(x) -> np.ndarray:
    """Points (x, 0): a line is the plane's y = 0 axis."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([x, np.zeros_like(x)])


LINE_POINTS = on_line(np.linspace(0.0, 1.0, 25))
# The centroids of a 20-element bar on [0, 1].
BAR_CENTROIDS = on_line((np.arange(20) + 0.5) / 20)


class TestKernel:
    def test_unit_diagonal(self):
        k = gaussian_kernel(LINE_POINTS, LINE_POINTS, 0.3, 1.0)
        assert np.allclose(np.diag(k), 1.0, atol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.0, 1.0, (12, 2))
        k = gaussian_kernel(pts, pts, 0.4, 0.7)
        assert np.allclose(k, k.T, atol=1e-15)

    def test_known_value_one_dimensional(self):
        k = gaussian_kernel([[0.0, 0.0]], [[0.3, 0.0]], 0.5, 1.0)
        assert k[0, 0] == pytest.approx(math.exp(-0.5 * 0.09 / 0.25), abs=1e-15)

    @pytest.mark.parametrize("ly", [1e-3, 1.0, 1e3])
    def test_line_on_the_y_axis_is_the_one_dimensional_kernel_bit_for_bit(self, ly):
        x = np.random.default_rng(2).uniform(0.0, 1.0, 40)
        dx = x[:, None] - x[None, :]
        want = np.exp(-0.5 * (dx / 0.3) ** 2)
        assert np.array_equal(gaussian_kernel(on_line(x), on_line(x), 0.3, ly), want)

    def test_anisotropy_separates_axes(self):
        kx = gaussian_kernel([[0.0, 0.0]], [[0.3, 0.0]], 0.5, 0.1)
        ky = gaussian_kernel([[0.0, 0.0]], [[0.0, 0.3]], 0.5, 0.1)
        assert kx[0, 0] > ky[0, 0]
        assert kx[0, 0] == pytest.approx(math.exp(-0.5 * (0.3 / 0.5) ** 2), abs=1e-15)
        assert ky[0, 0] == pytest.approx(math.exp(-0.5 * (0.3 / 0.1) ** 2), abs=1e-15)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            KernelModel(0.0, 1.0, 0.3, 3, LINE_POINTS)
        with pytest.raises(ValueError):
            KernelModel(0.3, 1.0, -0.1, 3, LINE_POINTS)
        with pytest.raises(
            ValueError, match=r"^bad value 26 for parameter 'rank': must not exceed the 25 sample points$"
        ):
            KernelModel(0.3, 1.0, 0.3, 26, LINE_POINTS)
        with pytest.raises(ValueError):
            KernelModel(0.3, 1.0, 0.3, 0, LINE_POINTS)
        for shape in ((25, 1), (25, 3)):
            with pytest.raises(ValueError, match=r"sample points must be \(M, 2\)"):
                KernelModel(0.3, 1.0, 0.3, 3, np.zeros(shape))


class TestNystromBasis:
    def test_eigenvalues_positive_and_descending(self):
        basis = nystrom_basis(KernelModel(0.3, 1.0, 0.5, 8, LINE_POINTS))
        lam = basis.eigenvalues
        assert np.all(lam > 0.0)
        assert np.all(np.diff(lam) <= 0.0)

    def test_sample_point_orthogonality(self):
        # phi_j(x_m) = sqrt(lam_j) u_mj, so the sample-point matrix must
        # satisfy Phi^T Phi = diag(lam) with orthonormal u columns.
        basis = nystrom_basis(KernelModel(0.3, 1.0, 0.5, 8, LINE_POINTS))
        phi = basis.evaluate(LINE_POINTS)
        assert np.allclose(phi.T @ phi, np.diag(basis.eigenvalues), atol=1e-8)

    def test_reconstructs_kernel_on_samples(self):
        basis = nystrom_basis(KernelModel(0.3, 1.0, 0.5, 12, LINE_POINTS))
        phi = basis.evaluate(LINE_POINTS)
        gram = gaussian_kernel(LINE_POINTS, LINE_POINTS, 0.3, 1.0)
        assert np.abs(phi @ phi.T - gram).max() < 1e-6

    def test_reconstructs_kernel_at_probe_points(self):
        basis = nystrom_basis(KernelModel(0.3, 1.0, 0.5, 12, LINE_POINTS))
        rng = np.random.default_rng(7)
        probes = on_line(rng.uniform(0.0, 1.0, 30))
        phi = basis.evaluate(probes)
        assert np.abs(phi @ phi.T - gaussian_kernel(probes, probes, 0.3, 1.0)).max() < 1e-6

    def test_captured_energy_fraction(self):
        # The Gaussian kernel spectrum decays fast: a dozen modes carry
        # essentially the whole trace (which equals the point count).
        basis = nystrom_basis(KernelModel(0.3, 1.0, 0.5, 12, LINE_POINTS))
        assert basis.eigenvalues.sum() / LINE_POINTS.shape[0] > 0.999

    def test_long_correlation_gives_constant_first_mode(self):
        with pytest.warns(UserWarning):
            basis = nystrom_basis(KernelModel(1e6, 1.0, 0.5, 2, LINE_POINTS))
        m = LINE_POINTS.shape[0]
        assert basis.eigenvalues[0] == pytest.approx(m, rel=1e-9)
        phi1 = basis.evaluate(LINE_POINTS)[:, 0]
        assert np.allclose(np.abs(phi1), 1.0, atol=1e-6)

    def test_rank_reduction_warns(self):
        with pytest.warns(UserWarning, match="reducing rank"):
            basis = nystrom_basis(KernelModel(0.3, 1.0, 0.5, 25, LINE_POINTS))
        assert basis.eigenvalues.size < 25


class TestSampleField:
    def test_zero_sigma_gives_unit_modulus(self):
        model = KernelModel(0.3, 1.0, 0.0, 8, LINE_POINTS)
        basis = nystrom_basis(model)
        modulus = sample_field(model, basis.evaluate(BAR_CENTROIDS), np.random.default_rng(0))
        assert np.all(modulus == 1.0)

    def test_positivity_and_latent_shape(self):
        model = KernelModel(0.3, 1.0, 0.8, 8, LINE_POINTS)
        basis = nystrom_basis(model)
        phi = basis.evaluate(BAR_CENTROIDS)
        rng = np.random.default_rng(3)
        for _ in range(50):
            modulus = sample_field(model, phi, rng)
            assert modulus.shape == (BAR_CENTROIDS.shape[0],)
            assert np.all(modulus > 0.0)

    def test_seeded_draws_repeat(self):
        model = KernelModel(0.3, 1.0, 0.5, 8, LINE_POINTS)
        basis = nystrom_basis(model)
        a = sample_field(model, basis.evaluate(BAR_CENTROIDS), np.random.default_rng(11))
        b = sample_field(model, basis.evaluate(BAR_CENTROIDS), np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_log_field_covariance_matches_kernel(self):
        sigma = 0.5
        model = KernelModel(0.3, 1.0, sigma, 12, LINE_POINTS)
        basis = nystrom_basis(model)
        probes = on_line([0.1, 0.45, 0.9])
        phi = basis.evaluate(probes)
        rng = np.random.default_rng(17)
        n_draws = 10_000
        logs = np.empty((n_draws, probes.shape[0]))
        for i in range(n_draws):
            logs[i] = np.log(sample_field(model, phi, rng))
        emp = np.cov(logs, rowvar=False)
        want = sigma**2 * gaussian_kernel(probes, probes, 0.3, 1.0)
        assert np.abs(emp - want).max() < 0.02


class TestBar1D:
    def test_uniform_modulus_closed_form(self):
        mesh = build_bar_mesh(2.0, 16)
        qoi = solve_bar_1d(mesh, np.full(16, 3.0), P=5.0, A=0.5)
        # tip = PL/(EA), compliance = P * tip, axial stress = P/A.
        assert qoi.tip_displacement == pytest.approx(5.0 * 2.0 / (3.0 * 0.5), rel=1e-12)
        assert qoi.compliance == pytest.approx(5.0 * qoi.tip_displacement, rel=1e-12)
        assert qoi.vm_max == pytest.approx(10.0, rel=1e-12)

    def test_series_spring_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            mesh = build_bar_mesh(float(rng.uniform(0.5, 3.0)), n)
            moduli = rng.uniform(0.2, 5.0, n)
            p = float(rng.uniform(0.1, 4.0))
            area = float(rng.uniform(0.3, 2.0))
            qoi = solve_bar_1d(mesh, moduli, P=p, A=area)
            want = (p / area) * np.sum(mesh.elem_length / moduli)
            assert qoi.tip_displacement == pytest.approx(want, rel=1e-10)

    def test_stiffness_scaling_halves_compliance(self):
        mesh = build_bar_mesh(1.0, 20)
        rng = np.random.default_rng(5)
        moduli = rng.uniform(0.5, 2.0, 20)
        c1 = solve_bar_1d(mesh, moduli).compliance
        c2 = solve_bar_1d(mesh, 2.0 * moduli).compliance
        assert c2 == pytest.approx(0.5 * c1, rel=1e-12)

    def test_input_validation(self):
        mesh = build_bar_mesh(1.0, 10)
        with pytest.raises(ValueError):
            solve_bar_1d(mesh, np.ones(9))
        with pytest.raises(ValueError):
            solve_bar_1d(mesh, np.zeros(10))
        for bad in (np.inf, np.nan):
            moduli = np.ones(10)
            moduli[3] = bad
            with pytest.raises(ValueError, match="positive and finite"):
                solve_bar_1d(mesh, moduli)
        with pytest.raises(ValueError):
            build_bar_mesh(0.0, 10)

    def test_mesh_compares_by_value(self):
        # The bar mesh holds no array, so it takes dataclass equality.
        assert build_bar_mesh(1.0, 10) == build_bar_mesh(1.0, 10)
        assert build_bar_mesh(1.0, 10) != build_bar_mesh(1.0, 11)
        assert build_bar_mesh(1.0, 10) != build_bar_mesh(2.0, 10)


def solve_one(solver, moduli, traction=1.0):
    """Displacements of one field and its QoIs, from responses on a block of one."""
    u = solver.solve(moduli, traction)
    qoi = solver.responses(u[None, :], moduli[None, :], traction)
    return u, {name: values[0] for name, values in qoi.items()}


class TestPlaneStress:
    def test_patch_test_reproduces_linear_field(self):
        # Prescribing a linear displacement field on the whole boundary must
        # reproduce it exactly at interior nodes for any element size, the
        # classic completeness check for the bilinear quadrilateral.
        mesh = build_cantilever_mesh(1.3, 0.7, 5, 4)
        solver = PlaneStressSolver(mesh, nu=0.3)

        def field(xy):
            return np.column_stack(
                [0.02 * xy[:, 0] + 0.01 * xy[:, 1], -0.015 * xy[:, 0] + 0.03 * xy[:, 1]]
            )

        xy = mesh.coords
        on_edge = (
            np.isclose(xy[:, 0], 0.0)
            | np.isclose(xy[:, 0], 1.3)
            | np.isclose(xy[:, 1], 0.0)
            | np.isclose(xy[:, 1], 0.7)
        )
        edge_nodes = np.flatnonzero(on_edge)
        dofs = np.concatenate([2 * edge_nodes, 2 * edge_nodes + 1])
        vals = np.concatenate(
            [field(xy)[edge_nodes, 0], field(xy)[edge_nodes, 1]]
        )
        moduli = np.full(mesh.n_elems, 1.7)
        u = solver.solve_prescribed(moduli, dofs, vals)
        want = field(xy)
        got = u.reshape(-1, 2)
        assert np.abs(got - want).max() < 1e-10

    def test_energy_identity(self):
        mesh = build_cantilever_mesh(2.0, 1.0, 8, 4)
        solver = PlaneStressSolver(mesh)
        rng = np.random.default_rng(9)
        moduli = rng.uniform(0.5, 2.0, mesh.n_elems)
        u, qoi = solve_one(solver, moduli, traction=1.3)
        external = float((1.3 * mesh.unit_load) @ u)
        ue = u[solver.dof_map]
        internal = float(np.sum(moduli * np.einsum("ea,ab,eb->e", ue, solver.ke_unit, ue)))
        assert external == pytest.approx(internal, rel=1e-8)
        assert qoi["compliance"] == pytest.approx(external, rel=1e-12)

    def test_cantilever_tip_matches_beam_theory(self):
        # Slender uniform cantilever: the resultant of the unit shear
        # traction is P = height, and the tip deflection should approach
        # P L^3 / (3 E I) with a small shear-deformation excess.
        mesh = build_cantilever_mesh(5.0, 1.0, 80, 16)
        qoi = solve_plane_stress_q4(mesh, np.ones(mesh.n_elems), nu=0.3)
        beam = 1.0 * 5.0**3 / (3.0 * (1.0 / 12.0))
        assert abs(qoi.tip_displacement - beam) / beam < 0.10

    def test_modulus_scaling_affine_in_displacement(self):
        mesh = build_cantilever_mesh(2.0, 1.0, 8, 4)
        solver = PlaneStressSolver(mesh)
        rng = np.random.default_rng(31)
        moduli = rng.uniform(0.5, 2.0, mesh.n_elems)
        u1, qoi1 = solve_one(solver, moduli)
        u2, qoi2 = solve_one(solver, 3.0 * moduli)
        assert np.allclose(u2, u1 / 3.0, rtol=1e-10, atol=1e-14)
        assert qoi2["vmmax"] == pytest.approx(qoi1["vmmax"], rel=1e-10)

    def test_traction_scaling_is_linear(self):
        mesh = build_cantilever_mesh(2.0, 1.0, 8, 4)
        solver = PlaneStressSolver(mesh)
        moduli = np.ones(mesh.n_elems)
        _, qoi1 = solve_one(solver, moduli, traction=1.0)
        _, qoi2 = solve_one(solver, moduli, traction=2.5)
        assert qoi2["tipdisp"] == pytest.approx(2.5 * qoi1["tipdisp"], rel=1e-12)
        assert qoi2["compliance"] == pytest.approx(2.5**2 * qoi1["compliance"], rel=1e-12)

    def test_solver_validation(self):
        for dims, name in (((0.0, 1.0, 4, 2), "length"), ((2.0, 1.0, 0, 2), "nx")):
            with pytest.raises(ValueError, match=f"for parameter '{name}': must be"):
                build_cantilever_mesh(*dims)
        mesh = build_cantilever_mesh(2.0, 1.0, 4, 2)
        with pytest.raises(ValueError):
            PlaneStressSolver(mesh, nu=0.5)
        solver = PlaneStressSolver(mesh)
        with pytest.raises(ValueError):
            solver.solve(np.ones(3))
        with pytest.raises(ValueError):
            solver.solve(np.zeros(mesh.n_elems))
        for bad in (np.inf, np.nan):
            moduli = np.ones(mesh.n_elems)
            moduli[2] = bad
            with pytest.raises(ValueError, match="positive and finite"):
                solver.solve(moduli)
            with pytest.raises(ValueError, match="positive and finite"):
                solver.solve_prescribed(moduli, mesh.fixed_dofs, np.zeros(mesh.fixed_dofs.size))


def dense_stiffness(solver, moduli):
    """Full stiffness matrix, summed entry by entry from the element matrices."""
    k = np.zeros((solver.n_dof, solver.n_dof))
    for e, dofs in enumerate(solver.dof_map):
        k[np.ix_(dofs, dofs)] += moduli[e] * solver.ke_unit
    return k


class TestBandedSolve:
    """The banded Cholesky path against a dense solve of the same system."""

    MESHES = {
        "cantilever": lambda: build_cantilever_mesh(2.0, 1.0, 12, 6),
        "lbracket": lambda: build_lbracket_mesh(1.0, 0.4, 10),
        "tall": lambda: build_cantilever_mesh(1.0, 2.0, 4, 9),
    }

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_solve_matches_dense(self, name):
        mesh = self.MESHES[name]()
        solver = PlaneStressSolver(mesh, nu=0.27)
        rng = np.random.default_rng(41)
        moduli = np.exp(rng.normal(0.0, 0.5, mesh.n_elems))
        free = np.setdiff1d(np.arange(solver.n_dof), mesh.fixed_dofs)
        f = 1.7 * mesh.unit_load
        want = np.zeros(solver.n_dof)
        want[free] = np.linalg.solve(dense_stiffness(solver, moduli)[np.ix_(free, free)], f[free])
        got = solver.solve(moduli, traction=1.7)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_prescribed_solve_matches_dense(self, name):
        mesh = self.MESHES[name]()
        solver = PlaneStressSolver(mesh)
        rng = np.random.default_rng(43)
        moduli = np.exp(rng.normal(0.0, 0.5, mesh.n_elems))
        fixed = rng.choice(solver.n_dof, size=solver.n_dof // 5, replace=False)
        fixed = np.union1d(fixed, mesh.fixed_dofs)
        values = rng.normal(0.0, 0.01, fixed.size)
        free = np.setdiff1d(np.arange(solver.n_dof), fixed)
        k = dense_stiffness(solver, moduli)
        want = np.zeros(solver.n_dof)
        want[fixed] = values
        want[free] = np.linalg.solve(k[np.ix_(free, free)], -k[np.ix_(free, fixed)] @ values)
        got = solver.solve_prescribed(moduli, fixed, values)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_every_dof_prescribed_returns_the_prescribed_values(self):
        # No dof is free: the banded solve is empty and u is the data itself.
        mesh = build_cantilever_mesh(2.0, 1.0, 4, 2)
        solver = PlaneStressSolver(mesh)
        values = np.random.default_rng(47).normal(0.0, 0.01, solver.n_dof)
        got = solver.solve_prescribed(np.ones(mesh.n_elems), np.arange(solver.n_dof), values)
        assert np.array_equal(got, values)

    def test_band_stays_in_natural_dof_order(self):
        # x-major numbering: an element spans ny + 3 nodes, so the half
        # bandwidth is 2 * (ny + 1) + 3 dofs without any reordering.
        for nx, ny in ((32, 16), (4, 9)):
            solver = PlaneStressSolver(build_cantilever_mesh(2.0, 1.0, nx, ny))
            assert solver.band.shape == (2 * (ny + 1) + 4, solver.n_dof - 2 * (ny + 1))


def von_mises_argmax(solver, u, moduli):
    """Element index holding the peak von Mises stress."""
    return int(np.argmax(solver._element_peak_stress(u, moduli)))


class TestLBracket:
    def test_element_count_is_exact(self):
        mesh = build_lbracket_mesh(1.0, 0.4, 25)
        assert mesh.n_elems == 25 * 25 - 15 * 15

    def test_pitch_must_tile_exactly(self):
        with pytest.raises(ValueError):
            build_lbracket_mesh(1.0, 0.3, 7)
        with pytest.raises(ValueError, match=r"'leg_width': must be a finite number > 0"):
            build_lbracket_mesh(1.0, 0.0, 25)
        with pytest.raises(ValueError, match=r"'leg_width': must lie in \(0, leg_length = 1.0\)"):
            build_lbracket_mesh(1.0, 1.0, 25)

    def test_stress_peaks_at_reentrant_corner(self):
        mesh = build_lbracket_mesh(1.0, 0.4, 25)
        solver = PlaneStressSolver(mesh)
        moduli = np.ones(mesh.n_elems)
        u = solver.solve(moduli)
        idx = von_mises_argmax(solver, u, moduli)
        cx, cy = mesh.centroids[idx]
        h = 1.0 / 25
        assert max(abs(cx - 0.4), abs(cy - 0.4)) <= 2.0 * h

    def test_peak_stress_and_its_element_agree(self):
        mesh = build_lbracket_mesh(1.0, 0.4, 15)
        solver = PlaneStressSolver(mesh)
        moduli = np.random.default_rng(0).uniform(0.5, 2.0, mesh.n_elems)
        u, qoi = solve_one(solver, moduli)
        idx = von_mises_argmax(solver, u, moduli)
        # Stress at a fixed displacement scales with each element's modulus;
        # zeroing all but the argmax element must leave the peak unchanged.
        peak = solver._element_peak_stress(u, moduli).max()
        assert peak == qoi["vmmax"]
        only = np.zeros_like(moduli)
        only[idx] = moduli[idx]
        assert solver._element_peak_stress(u, only).max() == peak

    def test_corner_stress_grows_under_refinement(self):
        # The re-entrant corner is singular, so the discrete peak stress
        # must increase monotonically as the mesh refines.
        peaks = []
        for n in (15, 25, 35):
            mesh = build_lbracket_mesh(1.0, 0.4, n)
            qoi = solve_plane_stress_q4(mesh, np.ones(mesh.n_elems))
            peaks.append(qoi.vm_max)
        assert peaks[0] < peaks[1] < peaks[2]


# Each real parameter of a constructor: (constructor, parameter, a benchmark that
# takes the same parameter) -> a call of the constructor with value for it.
REAL_PARAMETERS = {
    ("build_bar_mesh", "length", "bar1d"): lambda v: build_bar_mesh(v, 4),
    ("build_cantilever_mesh", "length", "cantilever"): lambda v: build_cantilever_mesh(v, 1.0, 4, 2),
    ("build_cantilever_mesh", "height", "cantilever"): lambda v: build_cantilever_mesh(2.0, v, 4, 2),
    ("build_lbracket_mesh", "leg_length", "lbracket"): lambda v: build_lbracket_mesh(v, 0.4, 25),
    ("build_lbracket_mesh", "leg_width", "lbracket"): lambda v: build_lbracket_mesh(1.0, v, 25),
    ("KernelModel", "length_scale_x", "cantilever"): lambda v: KernelModel(v, 1.0, 0.3, 2, LINE_POINTS),
    ("KernelModel", "length_scale_y", "cantilever"): lambda v: KernelModel(1.0, v, 0.3, 2, LINE_POINTS),
    ("KernelModel", "sigma", "cantilever"): lambda v: KernelModel(1.0, 1.0, v, 2, LINE_POINTS),
    ("PlaneStressSolver", "nu", "cantilever"): lambda v: PlaneStressSolver(
        build_cantilever_mesh(2.0, 1.0, 4, 2), v
    ),
}


# Each run setting of an entry point: (entry point, setting) -> (whether it is
# an integer, a call of the entry point with value for it).
FOUR_SCENARIOS = ScenarioSet(np.full(4, 0.25), np.arange(4.0), 0.5)
RUN_SETTINGS = {
    ("ControllerConfig", "budget"): (True, lambda v: ControllerConfig(budget=v)),
    ("ControllerConfig", "delta_tot"): (False, lambda v: ControllerConfig(budget=100, delta_tot=v)),
    ("ControllerConfig", "epsilon_a"): (False, lambda v: ControllerConfig(budget=100, epsilon_a=v)),
    ("BenchConfig", "alpha_level"): (False, lambda v: BenchConfig(alpha_level=v)),
    ("BenchConfig", "budget"): (True, lambda v: BenchConfig(budgets=[v])),
    ("BenchConfig", "repetitions"): (True, lambda v: BenchConfig(repetitions=v)),
    ("BenchConfig", "seed"): (True, lambda v: BenchConfig(seed=v)),
    ("BenchConfig", "n_scenarios"): (True, lambda v: BenchConfig(n_scenarios=v)),
    ("build_scenario_ensemble", "n_scenarios"): (True, lambda v: build_scenario_ensemble("bar1d", v, 1)),
    ("build_scenario_ensemble", "seed"): (True, lambda v: build_scenario_ensemble("bar1d", 8, v)),
    ("build_scenario_ensemble", "alpha_level"): (
        False, lambda v: build_scenario_ensemble("bar1d", 8, 1, alpha_level=v)
    ),
    ("ScenarioSet", "alpha_level"): (False, lambda v: ScenarioSet(np.ones(2) / 2, np.ones(2), v)),
    ("cvar_from_amplitude", "alpha_level"): (False, lambda v: cvar_from_amplitude(0.5, 0.0, 1.0, v)),
    ("mc_estimate_cvar", "budget"): (
        True, lambda v: mc_estimate_cvar(FOUR_SCENARIOS, 1.0, v, np.random.default_rng(0))
    ),
}
# The values just outside each setting's range.
RANGE_EDGES = {
    "alpha_level": [0.0, 1.0],
    "delta_tot": [0.0, 1.0],
    "epsilon_a": [-5e-324],
    "seed": [-1],
    "budget": [0],
    "repetitions": [0],
    "n_scenarios": [0],
}
BAD_RUN_SETTINGS = [
    (key, value)
    for key, (integer, _) in sorted(RUN_SETTINGS.items())
    for value in [True, False, math.nan, math.inf, -math.inf, "0.9", None]
    + ([2.5, 4.0] if integer else []) + RANGE_EDGES[key[1]]
]


class TestConstructorParameters:
    """The constructors and entry points check each parameter and run setting
    by the one rule and message of stochfem.checked, which the CLI prints."""

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
    )
    @pytest.mark.parametrize("key", sorted(REAL_PARAMETERS), ids="-".join)
    def test_rejects_a_non_finite_real_parameter(self, key, value):
        _, name, benchmark = key
        with pytest.raises(ValueError) as raised:
            REAL_PARAMETERS[key](value)
        message = str(raised.value)
        assert message.startswith(f"bad value {value!r} for parameter {name!r}: must be a finite number")
        assert "\n" not in message
        with pytest.raises(ValueError) as cli:
            build_scenario_ensemble(benchmark, 1, 0, overrides={name: value})
        assert str(cli.value) == message

    def test_integer_parameters_take_integers_of_at_least_one(self):
        for call, name, ceiling in (
            (lambda: build_bar_mesh(1.0, 0), "n_elems", 2**50 - 1),
            (lambda: build_bar_mesh(1.0, 4.0), "n_elems", 2**50 - 1),
            (lambda: build_bar_mesh(1.0, 2**50), "n_elems", 2**50 - 1),
            (lambda: build_cantilever_mesh(2.0, 1.0, True, 2), "nx", 2**60 - 2),
            (lambda: build_cantilever_mesh(2.0, 1.0, 4, -1), "ny", 2**60 - 2),
            (lambda: build_cantilever_mesh(2.0, 1.0, 4, 2**60 - 1), "ny", 2**60 - 2),
            (lambda: KernelModel(1.0, 1.0, 0.3, 2.5, LINE_POINTS), "rank", 2**60 - 2),
            (lambda: KernelModel(1.0, 1.0, 0.3, True, LINE_POINTS), "rank", 2**60 - 2),
            (lambda: KernelModel(1.0, 1.0, 0.3, 0, LINE_POINTS), "rank", 2**60 - 2),
        ):
            with pytest.raises(ValueError, match=rf"for parameter '{name}': must be an integer in \[1, {ceiling}\]$"):
                call()

    # Bytes of the array each count sizes: a line of count + 1 entries, the
    # bar's (1024, n_elems) block of level draws, a square grid of
    # (count + 1)**2 points of 2 coordinates; 8 bytes an entry.
    LINE, BAR_BLOCK, SQUARE = (lambda c: 8 * (c + 1)), (lambda c: 8 * 1024 * c), (lambda c: 16 * (c + 1) ** 2)

    @pytest.mark.parametrize(
        "name, ceiling, size",
        [
            ("n_scenarios", 2**60 - 2, LINE),
            ("n_levels", 2**60 - 2, LINE),
            ("nx", 2**60 - 2, LINE),
            ("ny", 2**60 - 2, LINE),
            ("rank", 2**60 - 2, LINE),
            ("n_elems", 2**50 - 1, BAR_BLOCK),
            ("n_elems_per_unit", 759_250_123, SQUARE),
            ("n_sample_grid", 759_250_123, SQUARE),
        ],
    )
    def test_each_count_takes_its_ceiling_and_no_more(self, name, ceiling, size):
        # The largest count whose array numpy can hold; checked makes no array.
        assert size(ceiling) <= 2**63 - 1 < size(ceiling + 1)
        checked(name, ceiling)
        with pytest.raises(ValueError, match=rf"^bad value {ceiling + 1} for parameter '{name}'"):
            checked(name, ceiling + 1)

    @pytest.mark.parametrize(
        "key, value", BAD_RUN_SETTINGS, ids=[f"{e}-{n}-{v!r}" for (e, n), v in BAD_RUN_SETTINGS]
    )
    def test_rejects_a_bad_run_setting_with_the_message_of_checked(self, key, value):
        call = RUN_SETTINGS[key][1]
        with pytest.raises(ValueError) as rule:
            checked(key[1], value)
        assert str(rule.value).startswith(f"bad value {value!r} for parameter {key[1]!r}: must be ")
        with pytest.raises(ValueError) as raised:
            call(value)
        assert raised.type is ValueError and raised.value.__context__ is None
        assert str(raised.value) == str(rule.value)

    @pytest.mark.parametrize(
        "key", sorted(key for key, (integer, _) in RUN_SETTINGS.items() if not integer), ids="-".join
    )
    def test_an_integer_too_large_for_a_float_is_not_a_finite_setting(self, key):
        # math.isfinite raises OverflowError on it; checked says which setting is bad instead.
        with pytest.raises(ValueError) as raised:
            RUN_SETTINGS[key][1](10**400)
        assert raised.type is ValueError and raised.value.__context__ is None
        assert str(raised.value).startswith(f"bad value {10**400} for parameter {key[1]!r}: must be a finite number")

    def test_takes_a_run_setting_at_its_range_edge(self):
        assert BenchConfig(seed=0, alpha_level=5e-324, budgets=[1], repetitions=1, n_scenarios=1).seed == 0
        assert build_scenario_ensemble("bar1d", 1, 0, alpha_level=1.0 - 2**-53).n_scenarios == 1
        cfg = ControllerConfig(budget=1, delta_tot=1.0 - 2**-53, epsilon_a=0.0)
        assert (cfg.budget, cfg.epsilon_a) == (1, 0.0)
        for budget in (1, np.int64(3)):
            assert math.isfinite(mc_estimate_cvar(FOUR_SCENARIOS, 1.0, budget, np.random.default_rng(0)))


class TestEnsembles:
    def test_same_seed_rebuild_is_identical(self):
        a = build_scenario_ensemble("bar1d", 64, seed=5)
        b = build_scenario_ensemble("bar1d", 64, seed=5)
        assert np.array_equal(a.probs, b.probs)
        for name in a.responses:
            assert np.array_equal(a.responses[name], b.responses[name])

    def test_round_trip_through_file_is_exact(self, tmp_path):
        ens = build_scenario_ensemble("bar1d", 32, seed=3)
        path = tmp_path / "scatter.txt"
        write_ensemble(path, ens)
        # Files written before the threshold lines left the header still
        # carry them; the reader skips them.
        old_format = tmp_path / "old_format.txt"
        lines = path.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("# columns"))
        etas = [var_threshold(ScenarioSet(ens.probs, ens.responses[n], ens.alpha_level)) for n in QOI_NAMES]
        lines[at:at] = [
            "# eta " + " ".join(f"{n} {eta:.17g}" for n, eta in zip(QOI_NAMES, etas)) + "\n",
            "# q_max " + " ".join(f"{n} {ens.responses[n].max():.17g}" for n in QOI_NAMES) + "\n",
        ]
        old_format.write_text("".join(lines))
        # A blank line between data rows is skipped.
        blank_line = tmp_path / "blank_line.txt"
        lines = path.read_text().splitlines(keepends=True)
        blank_line.write_text("".join(lines[:-2] + ["\n"] + lines[-2:]))
        for back in (read_ensemble(path), read_ensemble(old_format), read_ensemble(blank_line)):
            assert back.benchmark == ens.benchmark
            assert back.alpha_level == ens.alpha_level
            assert back.seed == ens.seed
            assert back.params == ens.params
            assert np.array_equal(back.probs, ens.probs)
            for name in ens.responses:
                assert np.array_equal(back.responses[name], ens.responses[name])

    def test_write_replaces_the_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "scatter.txt"
        path.write_text("stale\n")
        write_ensemble(path, build_scenario_ensemble("bar1d", 8, seed=3))
        assert read_ensemble(path).n_scenarios == 8
        assert [p.name for p in tmp_path.iterdir()] == ["scatter.txt"]

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "scatter.txt"
        path.write_text("stale\n")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("tailamp.stochfem.os.replace", refuse)
        with pytest.raises(OSError):
            write_ensemble(path, build_scenario_ensemble("bar1d", 8, seed=3))
        assert path.read_text() == "stale\n"
        assert [p.name for p in tmp_path.iterdir()] == ["scatter.txt"]

    def test_tail_average_dominates_mean(self):
        ens = build_scenario_ensemble("bar1d", 128, seed=7)
        s = ScenarioSet(ens.probs, ens.responses["compliance"], ens.alpha_level)
        cvar = discrete_cvar(s)
        assert math.isfinite(cvar)
        assert cvar >= float(np.mean(ens.responses["compliance"]))

    def test_two_dimensional_benchmark_small_build(self):
        ens = build_scenario_ensemble(
            "cantilever",
            4,
            seed=1,
            overrides={"nx": 8, "ny": 4, "rank": 6, "n_sample_grid": 4},
        )
        assert ens.n_scenarios == 4
        for name in ("compliance", "tipdisp", "vmmax"):
            assert np.all(ens.responses[name] > 0.0)

    @pytest.mark.parametrize(
        "kind, overrides",
        [
            ("bar1d", {}),
            ("bar1d", {"n_elems": 7, "n_levels": 4}),
            ("cantilever", {"nx": 4, "ny": 3, "rank": 4, "n_sample_grid": 3}),
        ],
    )
    def test_prefix_is_stable_across_the_block_boundary(self, kind, overrides):
        short = build_scenario_ensemble(kind, 1024, seed=8, overrides=overrides)
        long = build_scenario_ensemble(kind, 1500, seed=8, overrides=overrides)
        for name in short.responses:
            assert np.array_equal(long.responses[name][:1024], short.responses[name])

    def test_bar_ensemble_is_one_draw_and_one_solve_per_scenario(self):
        ens = build_scenario_ensemble("bar1d", 1100, seed=4, overrides={"load": 2.5, "area": 0.8})
        p = ens.params
        mesh = build_bar_mesh(p["length"], p["n_elems"])
        levels = np.geomspace(p["level_lo"], p["level_hi"], p["n_levels"])
        rng = np.random.default_rng(4)
        for i in range(ens.n_scenarios):
            moduli = levels[rng.integers(0, levels.size, size=mesh.n_elems)]
            qoi = solve_bar_1d(mesh, moduli, P=2.5, A=0.8)
            assert ens.responses["tipdisp"][i] == qoi.tip_displacement
            assert ens.responses["compliance"][i] == qoi.compliance
            assert ens.responses["vmmax"][i] == qoi.vm_max

    @pytest.mark.parametrize(
        "kind, overrides",
        [
            ("cantilever", {"nx": 5, "ny": 3, "rank": 5, "n_sample_grid": 3, "sigma": 0.8}),
            ("lbracket", {"n_elems_per_unit": 10, "rank": 5, "n_sample_grid": 3, "sigma": 0.8}),
        ],
    )
    def test_plane_ensemble_is_one_draw_and_one_solve_per_scenario(self, kind, overrides):
        # Two whole blocks and a partial one: each response has the bits of one
        # field draw and one solve of that scenario alone.
        n = 2 * _PLANE_BLOCK + 5
        ens = build_scenario_ensemble(kind, n, seed=6, overrides=overrides)
        p = ens.params
        if kind == "cantilever":
            mesh = build_cantilever_mesh(p["length"], p["height"], p["nx"], p["ny"])
        else:
            mesh = build_lbracket_mesh(p["leg_length"], p["leg_width"], p["n_elems_per_unit"])
        x_hi, y_hi = mesh.coords.max(axis=0)
        points = stochfem._grid_sample_points(x_hi, y_hi, p["n_sample_grid"])
        model = KernelModel(p["length_scale_x"], p["length_scale_y"], p["sigma"], p["rank"], points)
        phi = nystrom_basis(model).evaluate(mesh.centroids)
        rng = np.random.default_rng(6)
        for i in range(n):
            qoi = solve_plane_stress_q4(mesh, sample_field(model, phi, rng), p["nu"], p["traction"])
            assert ens.responses["compliance"][i] == qoi.compliance
            assert ens.responses["tipdisp"][i] == qoi.tip_displacement
            assert ens.responses["vmmax"][i] == qoi.vm_max

    # A modulus field that cannot be solved, of each kind.  Stiff and soft
    # elements side by side (1e200 against 1) leave a band that Cholesky finds
    # not positive definite, though every modulus is positive and finite.
    BAD_FIELDS = {
        "inf": lambda m: np.where(np.arange(m.size) == 5, np.inf, m),
        "nan": lambda m: np.where(np.arange(m.size) == 5, np.nan, m),
        "zero": lambda m: np.where(np.arange(m.size) == 5, 0.0, m),
        "negative": lambda m: -m,
        "indefinite": lambda m: np.where(np.arange(m.size) % 2 == 0, 1e200, 1.0),
    }
    BAD_MODULUS = "moduli must be positive and finite"
    INDEFINITE = r"\d+th leading minor not positive definite"

    @pytest.mark.parametrize(
        "kinds",
        [("inf",), ("nan",), ("zero",), ("negative",), ("indefinite",), ("indefinite", "inf"), ("nan", "indefinite")],
        ids="-then-".join,
    )
    def test_the_error_names_the_first_scenario_that_cannot_be_solved(self, kinds, monkeypatch):
        # The bad scenarios sit two apart in the middle of the second block, so a
        # check of the whole block must not report the later one first.
        first = _PLANE_BLOCK + 5
        bad = {first + 2 * j: self.BAD_FIELDS[kind] for j, kind in enumerate(kinds)}
        draw, drawn = stochfem.sample_field, []

        def field(model, phi, rng):
            drawn.append(None)
            return bad.get(len(drawn) - 1, lambda m: m)(draw(model, phi, rng))

        monkeypatch.setattr(stochfem, "sample_field", field)
        overrides = {"nx": 4, "ny": 3, "rank": 4, "n_sample_grid": 3}
        with pytest.raises(ValueError) as raised:
            build_scenario_ensemble("cantilever", 3 * _PLANE_BLOCK, seed=2, overrides=overrides)
        reason = self.INDEFINITE if kinds[0] == "indefinite" else re.escape(self.BAD_MODULUS)
        want = rf"bad value 0\.3 for parameter 'sigma': scenario {first}'s modulus field cannot be solved \({reason}\)"
        assert re.fullmatch(want, str(raised.value))

    @pytest.mark.parametrize(
        "kind, overrides, message",
        [
            ("bar1d", {"n_elems": 2.7}, "parameter 'n_elems': must be an integer"),
            ("bar1d", {"n_levels": True}, "parameter 'n_levels': must be an integer"),
            ("bar1d", {"n_levels": 0}, "parameter 'n_levels': must be an integer in [1, 1152921504606846974]"),
            ("bar1d", {"n_elems": "20"}, "parameter 'n_elems': must be an integer"),
            ("bar1d", {"area": 0.0}, "parameter 'area': must be a finite number > 0"),
            ("bar1d", {"level_hi": math.inf}, "parameter 'level_hi': must be a finite number"),
            ("bar1d", {"level_lo": -1.0}, "parameter 'level_lo': must be a finite number > 0"),
            ("bar1d", {"load": math.nan}, "parameter 'load': must be a finite number"),
            ("bar1d", {"length": False}, "parameter 'length': must be a finite number"),
            ("cantilever", {"traction": math.nan}, "parameter 'traction': must be a finite"),
            ("cantilever", {"nu": 0.5}, "parameter 'nu': must be a finite number in (-1, 0.5)"),
            ("cantilever", {"sigma": -0.1}, "parameter 'sigma': must be a finite number >= 0"),
            ("cantilever", {"nx": 4.0}, "parameter 'nx': must be an integer"),
            ("lbracket", {"rank": 17, "n_sample_grid": 4}, "'rank': must not exceed the 16 sample points"),
        ],
    )
    def test_rejects_bad_parameters_by_name(self, kind, overrides, message, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the parameters were checked")

        monkeypatch.setattr(PlaneStressSolver, "solve", no_solve)
        monkeypatch.setattr("tailamp.stochfem._bar_responses", no_solve)
        with pytest.raises(ValueError) as info:
            build_scenario_ensemble(kind, 4, seed=0, overrides=overrides)
        assert message in str(info.value)

    def test_integral_and_real_overrides_keep_the_parameter_types(self):
        ens = build_scenario_ensemble(
            "bar1d", 4, seed=0,
            overrides={"n_elems": np.int64(6), "length": 2, "area": np.float32(0.5)},
        )
        assert ens.params["n_elems"] == 6 and type(ens.params["n_elems"]) is int
        assert ens.params["length"] == 2.0 and type(ens.params["length"]) is float
        assert type(ens.params["area"]) is float

    @pytest.mark.parametrize(
        "kind, overrides, unloaded",
        [
            ("cantilever", {"nx": 4, "ny": 2, "rank": 4, "n_sample_grid": 3}, "scipy.sparse"),
            ("bar1d", {}, "scipy.linalg"),
        ],
    )
    def test_building_leaves_heavy_modules_unimported(self, kind, overrides, unloaded):
        # The solve path needs neither scipy.sparse nor, for the closed-form
        # bar, scipy.linalg; a fresh interpreter shows what a build loads.
        code = (
            "import sys\n"
            "from tailamp.stochfem import build_scenario_ensemble\n"
            f"build_scenario_ensemble({kind!r}, 8, 1, overrides={overrides!r})\n"
            "print('scipy.sparse' in sys.modules, 'scipy.linalg' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = dict(zip(("scipy.sparse", "scipy.linalg"), proc.stdout.split()))
        assert loaded["scipy.sparse"] == "False"
        assert loaded[unloaded] == "False"

    def test_rejects_unknown_inputs(self):
        with pytest.raises(ValueError):
            build_scenario_ensemble("torus", 8, seed=0)
        with pytest.raises(ValueError):
            build_scenario_ensemble("bar1d", 0, seed=0)
        with pytest.raises(ValueError):
            build_scenario_ensemble("bar1d", 8, seed=0, overrides={"spam": 1})
        with pytest.raises(ValueError, match=re.escape("unknown bar1d parameters: ['eggs', 'spam']")):
            build_scenario_ensemble("bar1d", 8, seed=0, overrides={"spam": 1, "eggs": 2})
        # Keys that do not compare with each other are listed too.
        with pytest.raises(ValueError, match=re.escape("unknown bar1d parameters: [1, 'spam']")):
            build_scenario_ensemble("bar1d", 8, seed=0, overrides={"spam": 1, 1: 2})


class TestEnsembleFileValidation:
    """Each malformed file fails with one ValueError line that names it."""

    @pytest.fixture
    def lines(self, tmp_path):
        path = tmp_path / "good.txt"
        write_ensemble(path, build_scenario_ensemble("bar1d", 6, seed=2))
        return path.read_text().splitlines()

    def _read(self, tmp_path, lines):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_ensemble(path)
        message = str(info.value)
        assert "\n" not in message and "bad.txt" in message
        return message

    def test_header_only_file(self, tmp_path, lines):
        header = [ln for ln in lines if ln.startswith("#")]
        assert "0 data rows" in self._read(tmp_path, header)

    def test_truncated_file(self, tmp_path, lines):
        assert "5 data rows" in self._read(tmp_path, lines[:-1])

    def test_extra_row(self, tmp_path, lines):
        extra = "6 " + lines[-1].split(" ", 1)[1]
        assert "7 data rows" in self._read(tmp_path, lines + [extra])

    def test_short_row(self, tmp_path, lines):
        lines[-2] = lines[-2].rsplit(" ", 1)[0]
        assert "4 columns, expected 5" in self._read(tmp_path, lines)

    def test_long_row(self, tmp_path, lines):
        lines[-1] += " 1.0"
        assert "6 columns, expected 5" in self._read(tmp_path, lines)

    def test_index_out_of_order(self, tmp_path, lines):
        a, b = len(lines) - 2, len(lines) - 1
        lines[a], lines[b] = lines[b], lines[a]
        assert "index column" in self._read(tmp_path, lines)

    @pytest.mark.parametrize("key", ["benchmark", "alpha_level", "seed", "n_scenarios", "params", "columns"])
    def test_missing_header_key(self, tmp_path, lines, key):
        kept = [ln for ln in lines if not ln.startswith(f"# {key} ")]
        assert f"missing header keys {key}" in self._read(tmp_path, kept)

    def test_unparsable_header_value(self, tmp_path, lines):
        lines = [("# seed x" if ln.startswith("# seed ") else ln) for ln in lines]
        assert "'x'" in self._read(tmp_path, lines)

    def test_unparsable_data_value(self, tmp_path, lines):
        lines[-1] = lines[-1].replace(lines[-1].split()[1], "nope", 1)
        assert "'nope'" in self._read(tmp_path, lines)

    def test_negative_seed(self, tmp_path, lines):
        lines = [("# seed -7" if ln.startswith("# seed ") else ln) for ln in lines]
        message = self._read(tmp_path, lines)
        assert message.endswith("bad.txt: bad value -7 for parameter 'seed': must be an integer >= 0")

    def test_nonpositive_scenario_count(self, tmp_path, lines):
        kept = [("# n_scenarios 0" if ln.startswith("# n_scenarios ") else ln)
                for ln in lines if ln.startswith("#")]
        want = "bad value 0 for parameter 'n_scenarios': must be an integer in [1, 1152921504606846974]"
        assert want in self._read(tmp_path, kept)
