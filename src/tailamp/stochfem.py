"""Correlated lognormal modulus fields and desk-scale FEM scenario ensembles.

Scenario generation has two halves.  A Nystrom low-rank basis turns an
anisotropic Gaussian covariance kernel into r evaluable approximate
eigenfunctions, so one standard-normal vector of length r yields a spatially
correlated log-modulus field at the element centroids.  Deterministic linear
FEM solves (two-node bar, bilinear plane-stress quadrilateral) then map each
modulus realization to scalar quantities of interest: compliance, a tip
displacement, and the peak von Mises stress.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

QOI_NAMES = ("compliance", "tipdisp", "vmmax")


# --- random field ------------------------------------------------------------


@dataclass(frozen=True)
class KernelModel:
    """Anisotropic Gaussian covariance kernel with Nystrom sample points."""

    length_scale_x: float
    length_scale_y: float
    sigma: float
    rank: int
    sample_points: np.ndarray  # (M, d) with d = 1 or 2

    def __post_init__(self):
        if self.length_scale_x <= 0.0 or self.length_scale_y <= 0.0:
            raise ValueError("length scales must be positive")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        pts = np.atleast_2d(np.asarray(self.sample_points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] not in (1, 2):
            raise ValueError("sample points must be (M, 1) or (M, 2)")
        if not 1 <= self.rank <= pts.shape[0]:
            raise ValueError("rank must lie in [1, M]")
        object.__setattr__(self, "sample_points", pts)


def gaussian_kernel(x, x_prime, lx: float, ly: float = 1.0) -> np.ndarray:
    """Pairwise correlation exp(-[(dx/lx)^2 + (dy/ly)^2] / 2).

    Accepts (n, d) point arrays with d = 1 or 2; 1-d points use only the
    first term.
    """
    a = np.atleast_2d(np.asarray(x, dtype=float))
    b = np.atleast_2d(np.asarray(x_prime, dtype=float))
    dx = a[:, 0][:, None] - b[:, 0][None, :]
    quad = (dx / lx) ** 2
    if a.shape[1] > 1:
        dy = a[:, 1][:, None] - b[:, 1][None, :]
        quad = quad + (dy / ly) ** 2
    return np.exp(-0.5 * quad)


@dataclass(frozen=True)
class NystromBasis:
    """Evaluable approximate eigenfunctions of the covariance kernel.

    The stored convention is phi_j(x) = sum_m k(x, x_m) u_mj / sqrt(lam_j),
    so phi_j(x_m) = sqrt(lam_j) u_mj at the sample points and the field
    expansion needs no further eigenvalue scaling.
    """

    sample_points: np.ndarray
    eigenvalues: np.ndarray    # (r,), descending, strictly positive
    weights: np.ndarray        # (M, r), columns u_j / sqrt(lam_j)
    length_scale_x: float
    length_scale_y: float

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.size)

    def evaluate(self, points) -> np.ndarray:
        """phi_j at arbitrary points; returns (n_points, r)."""
        kx = gaussian_kernel(points, self.sample_points, self.length_scale_x, self.length_scale_y)
        return kx @ self.weights


def nystrom_basis(model: KernelModel) -> NystromBasis:
    """Eigendecompose the sample Gram matrix and keep the top-r pairs.

    Eigenvalues at or below 1e-10 of the largest are dropped as numerically
    nonpositive; if fewer than the requested rank survive, the rank is
    reduced with a warning.
    """
    # scipy.linalg is imported on first use: it costs about 6 MB of resident
    # memory that a process which only reads ensembles never needs.
    from scipy import linalg

    gram = gaussian_kernel(
        model.sample_points, model.sample_points, model.length_scale_x, model.length_scale_y
    )
    lam, vecs = linalg.eigh(gram)
    lam = lam[::-1]
    vecs = vecs[:, ::-1]
    keep = lam > 1e-10 * lam[0]
    n_pos = int(np.count_nonzero(keep))
    r = model.rank
    if n_pos < r:
        warnings.warn(
            f"kernel supports only {n_pos} positive modes; reducing rank from {r}",
            stacklevel=2,
        )
        r = n_pos
    lam_r = lam[:r]
    weights = vecs[:, :r] / np.sqrt(lam_r)[None, :]
    return NystromBasis(
        sample_points=model.sample_points,
        eigenvalues=lam_r,
        weights=weights,
        length_scale_x=model.length_scale_x,
        length_scale_y=model.length_scale_y,
    )


@dataclass(frozen=True)
class FieldRealization:
    """One latent draw and the positive modulus it induces per element."""

    xi: np.ndarray
    modulus: np.ndarray


def sample_field(model: KernelModel, phi: np.ndarray, rng: np.random.Generator) -> FieldRealization:
    """Draw xi ~ N(0, I_r); E = exp(sigma * phi @ xi) with phi the basis at the centroids."""
    xi = rng.standard_normal(phi.shape[1])
    return FieldRealization(xi=xi, modulus=np.exp(model.sigma * (phi @ xi)))


# --- meshes -------------------------------------------------------------------


@dataclass(frozen=True)
class Mesh1D:
    """Uniform two-node bar mesh on [0, length], left end fixed."""

    length: float
    n_elems: int
    node_x: np.ndarray

    @property
    def centroids(self) -> np.ndarray:
        return 0.5 * (self.node_x[:-1] + self.node_x[1:])[:, None]

    @property
    def elem_length(self) -> float:
        return self.length / self.n_elems


def build_bar_mesh(length: float = 1.0, n_elems: int = 20) -> Mesh1D:
    if length <= 0.0 or n_elems < 1:
        raise ValueError("need positive length and at least one element")
    return Mesh1D(length=length, n_elems=n_elems, node_x=np.linspace(0.0, length, n_elems + 1))


@dataclass(frozen=True)
class MeshQ4:
    """Structured mesh of congruent 4-node rectangles.

    Element nodes are ordered counterclockwise (sw, se, ne, nw).  fixed_dofs
    are clamped to zero in the standard solve; unit_load is the consistent
    nodal load of a unit-magnitude traction on the loaded face.
    """

    coords: np.ndarray        # (N, 2)
    elems: np.ndarray         # (E, 4) int
    hx: float
    hy: float
    fixed_dofs: np.ndarray    # int dof indices
    unit_load: np.ndarray     # (2N,)
    tip_node: int             # where tip_displacement is read (y dof)

    @property
    def n_nodes(self) -> int:
        return int(self.coords.shape[0])

    @property
    def n_elems(self) -> int:
        return int(self.elems.shape[0])

    @property
    def centroids(self) -> np.ndarray:
        return self.coords[self.elems].mean(axis=1)


def _structured_quads(active, xs, ys):
    """Assemble a compressed node numbering over the active cells of a grid.

    active is a boolean (nx, ny) cell mask; node order follows the full grid
    (x-major), which makes the numbering deterministic.
    """
    nx, ny = active.shape
    used = np.zeros((nx + 1, ny + 1), dtype=bool)
    idx = np.argwhere(active)
    for i, j in idx:
        used[i : i + 2, j : j + 2] = True
    node_id = -np.ones((nx + 1, ny + 1), dtype=int)
    order = np.argwhere(used)  # lexicographic: x-major, deterministic
    node_id[order[:, 0], order[:, 1]] = np.arange(order.shape[0])
    coords = np.column_stack([xs[order[:, 0]], ys[order[:, 1]]])
    elems = np.array(
        [
            (node_id[i, j], node_id[i + 1, j], node_id[i + 1, j + 1], node_id[i, j + 1])
            for i, j in idx
        ],
        dtype=int,
    )
    return coords, elems, node_id


def _edge_loads(coords, edge_nodes, seg_len):
    """Consistent nodal forces for a unit downward traction along one face."""
    load = np.zeros(2 * coords.shape[0])
    for a, b in edge_nodes:
        for n in (a, b):
            load[2 * n + 1] -= 0.5 * seg_len
    return load


def build_cantilever_mesh(
    length: float = 2.0, height: float = 1.0, nx: int = 32, ny: int = 16
) -> MeshQ4:
    """Rectangular cantilever: clamped at x = 0, unit shear traction at x = length."""
    if length <= 0.0 or height <= 0.0 or nx < 1 or ny < 1:
        raise ValueError("invalid cantilever dimensions")
    xs = np.linspace(0.0, length, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    active = np.ones((nx, ny), dtype=bool)
    coords, elems, node_id = _structured_quads(active, xs, ys)
    left = node_id[0, :]
    fixed = np.sort(np.concatenate([2 * left, 2 * left + 1]))
    hy = height / ny
    edge = [(node_id[nx, j], node_id[nx, j + 1]) for j in range(ny)]
    load = _edge_loads(coords, edge, hy)
    tip = int(node_id[nx, int(round(ny / 2))])
    return MeshQ4(
        coords=coords,
        elems=elems,
        hx=length / nx,
        hy=hy,
        fixed_dofs=fixed,
        unit_load=load,
        tip_node=tip,
    )


def build_lbracket_mesh(
    leg_length: float = 1.0, leg_width: float = 0.4, n_elems_per_unit: int = 25
) -> MeshQ4:
    """L-shaped bracket: clamped top face, downward traction on the arm end.

    The domain is the unit-leg L (square minus the upper-right block).  The
    grid pitch must tile the leg width exactly so the re-entrant corner lies
    on mesh lines.
    """
    if not 0.0 < leg_width < leg_length:
        raise ValueError("need 0 < leg_width < leg_length")
    n_total = leg_length * n_elems_per_unit
    n_width = leg_width * n_elems_per_unit
    if abs(n_total - round(n_total)) > 1e-9 or abs(n_width - round(n_width)) > 1e-9:
        raise ValueError("element pitch must tile both leg length and width exactly")
    n_total = int(round(n_total))
    n_width = int(round(n_width))
    xs = np.linspace(0.0, leg_length, n_total + 1)
    ys = np.linspace(0.0, leg_length, n_total + 1)
    ii, jj = np.meshgrid(np.arange(n_total), np.arange(n_total), indexing="ij")
    active = (ii < n_width) | (jj < n_width)
    coords, elems, node_id = _structured_quads(active, xs, ys)
    top = node_id[: n_width + 1, n_total]
    fixed = np.sort(np.concatenate([2 * top, 2 * top + 1]))
    h = leg_length / n_total
    edge = [(node_id[n_total, j], node_id[n_total, j + 1]) for j in range(n_width)]
    load = _edge_loads(coords, edge, h)
    tip = int(node_id[n_total, int(round(n_width / 2))])
    return MeshQ4(
        coords=coords,
        elems=elems,
        hx=h,
        hy=h,
        fixed_dofs=fixed,
        unit_load=load,
        tip_node=tip,
    )


# --- solvers ------------------------------------------------------------------


@dataclass(frozen=True)
class QoIVector:
    compliance: float
    tip_displacement: float
    vm_max: float

    def as_dict(self) -> dict:
        return {
            "compliance": self.compliance,
            "tipdisp": self.tip_displacement,
            "vmmax": self.vm_max,
        }


def solve_bar_1d(mesh: Mesh1D, moduli: np.ndarray, P: float = 1.0, A: float = 1.0) -> QoIVector:
    """Axial two-node bar with element-wise modulus; left node clamped.

    Assembles the tridiagonal stiffness and solves; the axial stress is
    P/A in every element by equilibrium, so vm_max is constant and carried
    only for schema uniformity.
    """
    moduli = np.asarray(moduli, dtype=float)
    if moduli.shape != (mesh.n_elems,):
        raise ValueError("one modulus per element required")
    if np.any(moduli <= 0.0):
        raise ValueError("moduli must be positive")
    ke = moduli * A / mesh.elem_length  # spring constants
    n = mesh.n_elems
    # Reduced system on nodes 1..n (node 0 clamped), tridiagonal.
    diag = ke.copy()
    diag[:-1] += ke[1:]
    lower = -ke[1:]
    ab = np.zeros((3, n))
    ab[0, 1:] = lower
    ab[1, :] = diag
    ab[2, :-1] = lower
    f = np.zeros(n)
    f[-1] = P
    from scipy import linalg  # imported on first use, as in nystrom_basis

    u = linalg.solve_banded((1, 1), ab, f)
    tip = float(u[-1])
    return QoIVector(compliance=P * tip, tip_displacement=tip, vm_max=abs(P / A))


def _q4_unit_stiffness(hx: float, hy: float, nu: float):
    """Unit-modulus plane-stress Q4 stiffness and per-gauss-point B matrices."""
    d1 = np.array(
        [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, (1.0 - nu) / 2.0]]
    ) / (1.0 - nu * nu)
    gp = 1.0 / math.sqrt(3.0)
    corners = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    ke = np.zeros((8, 8))
    b_mats = []
    det_j = (hx / 2.0) * (hy / 2.0)
    for xi in (-gp, gp):
        for eta in (-gp, gp):
            b = np.zeros((3, 8))
            for i, (cx, cy) in enumerate(corners):
                dn_dx = cx * (1.0 + cy * eta) / 4.0 * (2.0 / hx)
                dn_dy = cy * (1.0 + cx * xi) / 4.0 * (2.0 / hy)
                b[0, 2 * i] = dn_dx
                b[1, 2 * i + 1] = dn_dy
                b[2, 2 * i] = dn_dy
                b[2, 2 * i + 1] = dn_dx
            ke += b.T @ d1 @ b * det_j
            b_mats.append(b)
    return ke, d1, b_mats


@dataclass(frozen=True)
class PlaneStressResult:
    u: np.ndarray
    qoi: QoIVector


class PlaneStressSolver:
    """Reusable assembly/solve context for one mesh and Poisson ratio.

    Congruent elements mean a single unit stiffness matrix serves every
    element; per-realization assembly is just a scale-and-scatter.
    """

    def __init__(self, mesh: MeshQ4, nu: float = 0.3):
        if not -1.0 < nu < 0.5:
            raise ValueError("Poisson ratio out of the plane-stress range")
        self.mesh = mesh
        self.nu = nu
        self.ke_unit, self.d1, self.b_mats = _q4_unit_stiffness(mesh.hx, mesh.hy, nu)
        dofs = np.empty((mesh.n_elems, 8), dtype=int)
        dofs[:, 0::2] = 2 * mesh.elems
        dofs[:, 1::2] = 2 * mesh.elems + 1
        self.dof_map = dofs
        self.rows = np.repeat(dofs, 8, axis=1).ravel()
        self.cols = np.tile(dofs, (1, 8)).ravel()
        n_dof = 2 * mesh.n_nodes
        free = np.ones(n_dof, dtype=bool)
        free[mesh.fixed_dofs] = False
        self.free = np.flatnonzero(free)
        self.n_dof = n_dof

    def assemble(self, moduli: np.ndarray):
        # scipy.sparse is imported on first use: it costs about 3 MB of
        # resident memory that no other part of the package needs.
        from scipy import sparse

        moduli = np.asarray(moduli, dtype=float)
        if moduli.shape != (self.mesh.n_elems,):
            raise ValueError("one modulus per element required")
        if np.any(moduli <= 0.0):
            raise ValueError("moduli must be positive")
        data = (moduli[:, None, None] * self.ke_unit[None, :, :]).ravel()
        k = sparse.coo_matrix(
            (data, (self.rows, self.cols)), shape=(self.n_dof, self.n_dof)
        )
        return k.tocsr()

    def solve(self, moduli: np.ndarray, traction: float = 1.0) -> PlaneStressResult:
        from scipy.sparse.linalg import spsolve

        k = self.assemble(moduli)
        f = traction * self.mesh.unit_load
        u = np.zeros(self.n_dof)
        kff = k[self.free][:, self.free]
        u[self.free] = spsolve(kff.tocsc(), f[self.free])
        compliance = float(f @ u)
        tip = abs(float(u[2 * self.mesh.tip_node + 1]))
        vm = self.von_mises_max(u, np.asarray(moduli, dtype=float))
        return PlaneStressResult(u=u, qoi=QoIVector(compliance, tip, vm))

    def solve_prescribed(
        self, moduli: np.ndarray, dirichlet_dofs: np.ndarray, dirichlet_values: np.ndarray
    ) -> np.ndarray:
        """Solve with inhomogeneous Dirichlet data and no applied load."""
        from scipy.sparse.linalg import spsolve

        k = self.assemble(moduli)
        n = self.n_dof
        u = np.zeros(n)
        u[dirichlet_dofs] = dirichlet_values
        free = np.ones(n, dtype=bool)
        free[dirichlet_dofs] = False
        free = np.flatnonzero(free)
        if free.size:
            rhs = -(k[free] @ u)
            kff = k[free][:, free]
            u[free] = spsolve(kff.tocsc(), rhs)
        return u

    def _element_peak_stress(self, u: np.ndarray, moduli: np.ndarray) -> np.ndarray:
        """Peak von Mises stress of each element over its Gauss points, (E,)."""
        ue = u[self.dof_map]  # (E, 8)
        peak = np.zeros(self.mesh.n_elems)
        for b in self.b_mats:
            strain = ue @ b.T             # (E, 3)
            stress = (strain @ self.d1.T) * moduli[:, None]
            sx, sy, txy = stress[:, 0], stress[:, 1], stress[:, 2]
            peak = np.maximum(peak, np.sqrt(sx * sx - sx * sy + sy * sy + 3.0 * txy * txy))
        return peak

    def von_mises_max(self, u: np.ndarray, moduli: np.ndarray) -> float:
        return float(self._element_peak_stress(u, moduli).max())

    def von_mises_argmax(self, u: np.ndarray, moduli: np.ndarray) -> int:
        """Element index holding the peak von Mises stress."""
        return int(np.argmax(self._element_peak_stress(u, moduli)))


def solve_plane_stress_q4(
    mesh: MeshQ4, moduli: np.ndarray, nu: float = 0.3, traction: float = 1.0
) -> QoIVector:
    """One-shot plane-stress solve; see PlaneStressSolver for batch use."""
    return PlaneStressSolver(mesh, nu).solve(moduli, traction).qoi


# --- scenario ensembles ---------------------------------------------------------

BAR1D_DEFAULTS = {
    "length": 1.0,
    "area": 1.0,
    "load": 1.0,
    "n_elems": 20,
    "n_levels": 15,
    "level_lo": 0.5,
    "level_hi": 2.0,
}

CANTILEVER_DEFAULTS = {
    "length": 2.0,
    "height": 1.0,
    "nx": 32,
    "ny": 16,
    "nu": 0.3,
    "traction": 1.0,
    "sigma": 0.3,
    "length_scale_x": 0.4,
    "length_scale_y": 0.4,
    "rank": 12,
    "n_sample_grid": 8,
}

LBRACKET_DEFAULTS = {
    "leg_length": 1.0,
    "leg_width": 0.4,
    "n_elems_per_unit": 25,
    "nu": 0.3,
    "traction": 1.0,
    "sigma": 0.3,
    "length_scale_x": 0.4,
    "length_scale_y": 0.4,
    "rank": 12,
    "n_sample_grid": 8,
}

BENCHMARK_DEFAULTS = {
    "bar1d": BAR1D_DEFAULTS,
    "cantilever": CANTILEVER_DEFAULTS,
    "lbracket": LBRACKET_DEFAULTS,
}


@dataclass(frozen=True)
class Ensemble:
    """Cached scenario responses: the estimation oracle is a lookup table."""

    benchmark: str
    alpha_level: float
    seed: int
    params: dict
    probs: np.ndarray
    responses: dict[str, np.ndarray] = field(repr=False)

    @property
    def n_scenarios(self) -> int:
        return int(self.probs.size)


def write_ensemble(path, ens: Ensemble) -> None:
    """Persist an ensemble as columnar text.

    Header lines carry the benchmark identity, the confidence level, the
    seed, the generation parameters, and the derived threshold and maximum
    response per QoI; data rows are (index, p_i, compliance, tipdisp,
    vmmax).  All floats use 17 significant digits so a reread is exact.
    A temporary file replaces path at the end, so no reader sees half a file.
    """
    from . import riskmodel

    lines = [
        f"# benchmark {ens.benchmark}",
        f"# alpha_level {ens.alpha_level:.17g}",
        f"# seed {ens.seed}",
        f"# n_scenarios {ens.n_scenarios}",
        f"# params {json.dumps(ens.params, sort_keys=True)}",
    ]
    sets = [riskmodel.ScenarioSet(ens.probs, ens.responses[n], ens.alpha_level) for n in QOI_NAMES]
    etas = [riskmodel.var_threshold(s) for s in sets]
    peaks = [float(np.max(s.responses)) for s in sets]
    for tag, vals in (("eta", etas), ("q_max", peaks)):
        lines.append(f"# {tag} " + " ".join(f"{n} {v:.17g}" for n, v in zip(QOI_NAMES, vals)))
    lines.append("# columns index p " + " ".join(QOI_NAMES))
    for i in range(ens.n_scenarios):
        row = [str(i), f"{ens.probs[i]:.17g}"]
        row += [f"{ens.responses[name][i]:.17g}" for name in QOI_NAMES]
        lines.append(" ".join(row))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_ensemble(path) -> Ensemble:
    """Reload a persisted ensemble; floats round-trip exactly.

    A malformed file (missing header key, unparsable value, wrong column or
    row count, index column not 0..n-1) raises one ValueError line naming it.
    """
    header, rows = {}, []
    width = 2 + len(QOI_NAMES)
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if line.startswith("#"):
                    key, _, rest = line[1:].strip().partition(" ")
                    header[key] = rest
                elif line:
                    row = [float(v) for v in line.split()]
                    if len(row) != width:
                        raise ValueError(f"line {lineno}: {len(row)} columns, expected {width}")
                    rows.append(row)
        keys = ("benchmark", "alpha_level", "seed", "n_scenarios", "params")
        missing = [k for k in keys if k not in header]
        if missing:
            raise ValueError(f"missing header keys {', '.join(missing)}")
        n = int(header["n_scenarios"])
        if n < 1:
            raise ValueError("n_scenarios must be positive")
        if len(rows) != n:
            raise ValueError(f"{len(rows)} data rows, but the header says n_scenarios {n}")
        data = np.array(rows)
        if not np.array_equal(data[:, 0], np.arange(n)):
            raise ValueError(f"index column must run 0..{n - 1} in order")
        return Ensemble(
            benchmark=header["benchmark"],
            alpha_level=float(header["alpha_level"]),
            seed=int(header["seed"]),
            params=json.loads(header["params"]),
            probs=data[:, 1].copy(),
            responses={name: data[:, 2 + j].copy() for j, name in enumerate(QOI_NAMES)},
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _grid_sample_points(x_hi: float, y_hi: float, n: int) -> np.ndarray:
    xs = np.linspace(0.0, x_hi, n)
    ys = np.linspace(0.0, y_hi, n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _ensemble_2d(benchmark: str, n_scenarios: int, params: dict, rng) -> Iterator[QoIVector]:
    if benchmark == "cantilever":
        mesh = build_cantilever_mesh(
            params["length"], params["height"], params["nx"], params["ny"]
        )
        box = (params["length"], params["height"])
    else:
        mesh = build_lbracket_mesh(
            params["leg_length"], params["leg_width"], params["n_elems_per_unit"]
        )
        box = (params["leg_length"], params["leg_length"])
    model = KernelModel(
        length_scale_x=params["length_scale_x"],
        length_scale_y=params["length_scale_y"],
        sigma=params["sigma"],
        rank=params["rank"],
        sample_points=_grid_sample_points(box[0], box[1], params["n_sample_grid"]),
    )
    phi = nystrom_basis(model).evaluate(mesh.centroids)
    solver = PlaneStressSolver(mesh, params["nu"])
    for _ in range(n_scenarios):
        yield solver.solve(sample_field(model, phi, rng).modulus, params["traction"]).qoi


def _ensemble_bar(n_scenarios: int, params: dict, rng) -> Iterator[QoIVector]:
    mesh = build_bar_mesh(params["length"], params["n_elems"])
    levels = np.geomspace(params["level_lo"], params["level_hi"], params["n_levels"])
    for _ in range(n_scenarios):
        idx = rng.integers(0, levels.size, size=mesh.n_elems)
        yield solve_bar_1d(mesh, levels[idx], params["load"], params["area"])


def build_scenario_ensemble(
    benchmark: str,
    n_scenarios: int,
    seed: int,
    alpha_level: float = 0.95,
    overrides: dict | None = None,
) -> Ensemble:
    """Draw n_scenarios modulus realizations, solve each, weight uniformly.

    The 1D bar draws element moduli independently from a discrete
    log-uniform level set; the 2D benchmarks use the correlated lognormal
    field.  Responses are cached per QoI so downstream estimators treat the
    ensemble as a lookup table.
    """
    if benchmark not in BENCHMARK_DEFAULTS:
        raise ValueError(f"unknown benchmark {benchmark!r}")
    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    params = dict(BENCHMARK_DEFAULTS[benchmark])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(f"unknown parameter {key!r} for {benchmark}")
        try:
            params[key] = type(params[key])(value)
        except (TypeError, ValueError):
            raise ValueError(f"bad value {value!r} for parameter {key!r}") from None
    rng = np.random.default_rng(seed)
    if benchmark == "bar1d":
        qois = _ensemble_bar(n_scenarios, params, rng)
    else:
        qois = _ensemble_2d(benchmark, n_scenarios, params, rng)
    responses = {name: np.empty(n_scenarios) for name in QOI_NAMES}
    for i, qoi in enumerate(qois):
        for name, value in qoi.as_dict().items():
            responses[name][i] = value
    probs = np.full(n_scenarios, 1.0 / n_scenarios)
    return Ensemble(
        benchmark=benchmark,
        alpha_level=alpha_level,
        seed=seed,
        params=params,
        probs=probs,
        responses=responses,
    )
