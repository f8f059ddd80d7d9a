"""Correlated lognormal modulus fields and desk-scale FEM scenario ensembles.

Scenario generation has two halves.  A Nystrom low-rank basis turns an
anisotropic Gaussian covariance kernel into r evaluable approximate
eigenfunctions; sample_field draws one standard-normal vector of length r
and returns the spatially correlated lognormal modulus it induces at the
element centroids.  Deterministic linear FEM solves then map each modulus
realization to scalar quantities of interest: compliance, a tip
displacement, and the peak von Mises stress.

Each model states its QoIs once, for a block of scenarios; a single
scenario is a block of one.  The two-node bar needs no solve: its elements
are springs in series, so _bar_responses evaluates the tip displacement in
the closed form P/A * sum_e L_e / E_e.  The bilinear plane-stress
quadrilateral models solve K_ff u = f by banded Cholesky (LAPACK ?pbsv on
lower band storage) in natural dof order, which the x-major node numbering
keeps narrow.  A band map built once per mesh scatters the scaled unit
element matrix straight into LAPACK's column-major band layout, so no
sparse matrix is ever formed and the band is factored in place.
PlaneStressSolver.solve solves one field, at the cost of its band assembly
and one ?pbsv, and raises when it cannot; PlaneStressSolver.responses gives
the QoIs of a block of solved fields, with the peak stress taken once per
block.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import warnings
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

QOI_NAMES = ("compliance", "tipdisp", "vmmax")


def checked_scenarios(probs, values, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Scenario weights and one value per scenario as float arrays, checked.

    Both must be matching 1-d arrays with at least one scenario; the weights
    must be finite, nonnegative and sum to 1 within 1e-9, and the values
    finite.  name is the values' name in the error messages.
    """
    probs = np.asarray(probs, dtype=float)
    values = np.asarray(values, dtype=float)
    if probs.ndim != 1 or probs.shape != values.shape:
        raise ValueError(f"probs and {name} must be matching 1-d arrays")
    if probs.size < 1:
        raise ValueError("need at least one scenario")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite")
    if np.any(probs < 0.0):
        raise ValueError("probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1 within 1e-9")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return probs, values


# --- random field ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Anisotropic Gaussian covariance kernel on the plane; a line is the y = 0 axis."""

    length_scale_x: float
    length_scale_y: float
    sigma: float
    rank: int
    sample_points: np.ndarray  # (M, 2)

    def __post_init__(self):
        for name in ("length_scale_x", "length_scale_y", "sigma"):
            checked(name, getattr(self, name))
        pts = np.asarray(self.sample_points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("sample points must be (M, 2)")
        if not 1 <= self.rank <= pts.shape[0]:
            raise ValueError("rank must lie in [1, M]")
        object.__setattr__(self, "sample_points", pts)


def gaussian_kernel(x, x_prime, lx: float, ly: float) -> np.ndarray:
    """Pairwise correlation exp(-[(dx/lx)^2 + (dy/ly)^2] / 2) of (n, 2) and (m, 2) points.

    A line is the plane's y = 0 axis: there dy = 0, so the y term adds
    exactly 0.0 and the values are those of the one-dimensional kernel.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(x_prime, dtype=float)
    dx = a[:, 0][:, None] - b[:, 0][None, :]
    dy = a[:, 1][:, None] - b[:, 1][None, :]
    with np.errstate(over="ignore"):  # an overflow is an infinite distance, whose exp is exactly 0
        return np.exp(-0.5 * ((dx / lx) ** 2 + (dy / ly) ** 2))


@dataclass(frozen=True, eq=False)
class NystromBasis:
    """Evaluable approximate eigenfunctions of the covariance kernel.

    The stored convention is phi_j(x) = sum_m k(x, x_m) u_mj / sqrt(lam_j),
    so phi_j(x_m) = sqrt(lam_j) u_mj at the sample points and the field
    expansion needs no further eigenvalue scaling.
    """

    model: KernelModel         # kernel and sample points x_m
    eigenvalues: np.ndarray    # (r,), descending, strictly positive
    weights: np.ndarray        # (M, r), columns u_j / sqrt(lam_j)

    def evaluate(self, points) -> np.ndarray:
        """phi_j at (n, 2) points; returns (n, r)."""
        m = self.model
        return gaussian_kernel(points, m.sample_points, m.length_scale_x, m.length_scale_y) @ self.weights


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
    return NystromBasis(model, lam_r, vecs[:, :r] / np.sqrt(lam_r)[None, :])


def sample_field(model: KernelModel, phi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Modulus per element E = exp(sigma * phi @ xi), xi ~ N(0, I_r), phi the basis at the centroids."""
    xi = rng.standard_normal(phi.shape[1])
    with np.errstate(over="ignore"):  # an overflow is an infinite modulus, which solvers reject
        return np.exp(model.sigma * (phi @ xi))


# --- meshes -------------------------------------------------------------------


@dataclass(frozen=True)
class Mesh1D:
    """Uniform two-node bar mesh on [0, length], left end fixed."""

    length: float
    n_elems: int

    @property
    def elem_length(self) -> float:
        return self.length / self.n_elems


def build_bar_mesh(length: float = 1.0, n_elems: int = 20) -> Mesh1D:
    checked("length", length)
    checked("n_elems", n_elems, integer=True)
    return Mesh1D(length=length, n_elems=n_elems)


@dataclass(frozen=True, eq=False)
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
    i, j = idx.T
    elems = np.column_stack([node_id[i, j], node_id[i + 1, j], node_id[i + 1, j + 1], node_id[i, j + 1]])
    return coords, elems, node_id


def _q4_mesh(active, xs, ys, hx: float, hy: float, clamped, n_loaded: int) -> MeshQ4:
    """Q4 mesh of the active cells, clamped at grid nodes, loaded on its right face.

    clamped indexes the (len(xs), len(ys)) node grid.  The first n_loaded
    segments of the face x = xs[-1] carry a unit downward traction, half of
    each segment's length on each of its nodes; the tip is their middle node.
    """
    coords, elems, node_id = _structured_quads(active, xs, ys)
    fixed_nodes = node_id[clamped]
    loaded = node_id[-1, : n_loaded + 1]
    load = np.zeros(2 * coords.shape[0])
    load[2 * loaded + 1] = -hy
    load[2 * loaded[[0, -1]] + 1] = -0.5 * hy
    fixed = np.sort(np.concatenate([2 * fixed_nodes, 2 * fixed_nodes + 1]))
    return MeshQ4(coords, elems, hx, hy, fixed, load, tip_node=int(loaded[round(n_loaded / 2)]))


def build_cantilever_mesh(
    length: float = 2.0, height: float = 1.0, nx: int = 32, ny: int = 16
) -> MeshQ4:
    """Rectangular cantilever: clamped at x = 0, unit shear traction at x = length."""
    checked("length", length)
    checked("height", height)
    checked("nx", nx, integer=True)
    checked("ny", ny, integer=True)
    xs = np.linspace(0.0, length, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    active = np.ones((nx, ny), dtype=bool)
    return _q4_mesh(active, xs, ys, length / nx, height / ny, np.s_[0, :], ny)


def build_lbracket_mesh(
    leg_length: float = 1.0, leg_width: float = 0.4, n_elems_per_unit: int = 25
) -> MeshQ4:
    """L-shaped bracket: clamped top face, downward traction on the arm end.

    The domain is the unit-leg L (square minus the upper-right block).  The
    grid pitch must tile the leg width exactly so the re-entrant corner lies
    on mesh lines.
    """
    checked("leg_length", leg_length)
    checked("leg_width", leg_width)
    if not leg_width < leg_length:
        raise ValueError(
            f"bad value {leg_width!r} for parameter 'leg_width': "
            f"must lie in (0, leg_length = {leg_length!r})"
        )
    n_total = leg_length * n_elems_per_unit
    n_width = leg_width * n_elems_per_unit
    for name, cells in (("leg_length", n_total), ("leg_width", n_width)):
        if not math.isfinite(cells) or abs(cells - round(cells)) > 1e-9:
            raise ValueError(
                f"bad value {n_elems_per_unit!r} for parameter 'n_elems_per_unit': "
                f"{name} * n_elems_per_unit = {cells:g} is not a whole number of elements"
            )
    n_total = int(round(n_total))
    n_width = int(round(n_width))
    xs = np.linspace(0.0, leg_length, n_total + 1)
    ys = np.linspace(0.0, leg_length, n_total + 1)
    ii, jj = np.meshgrid(np.arange(n_total), np.arange(n_total), indexing="ij")
    active = (ii < n_width) | (jj < n_width)
    h = leg_length / n_total
    return _q4_mesh(active, xs, ys, h, h, np.s_[: n_width + 1, -1], n_width)


# --- solvers ------------------------------------------------------------------


@dataclass(frozen=True)
class QoIVector:
    compliance: float
    tip_displacement: float
    vm_max: float


def _checked_moduli(moduli, n_elems: int) -> np.ndarray:
    moduli = np.asarray(moduli, dtype=float)
    if moduli.shape != (n_elems,):
        raise ValueError("one modulus per element required")
    # NaN fails both comparisons, so this also rejects it.
    if not np.all((moduli > 0.0) & (moduli < np.inf)):
        raise ValueError("moduli must be positive and finite")
    return moduli


def _qoi_vector(responses: Mapping[str, np.ndarray]) -> QoIVector:
    """The one row of a block-of-one response map, as a QoIVector."""
    return QoIVector(*(float(responses[name][0]) for name in QOI_NAMES))


def _bar_responses(elem_length: float, moduli: np.ndarray, P: float, A: float) -> dict[str, np.ndarray]:
    """Each of QOI_NAMES, (B,), for a (B, n_elems) block of bar moduli.

    The elements act as springs in series, so the tip displacement is the
    closed form P/A * sum_e L_e / E_e and the compliance P times it.  The
    axial stress is P/A in every element by equilibrium, so vmmax is
    constant and carried only for schema uniformity.
    """
    with np.errstate(over="ignore"):  # an overflow is an infinite displacement; ensembles reject it
        tip = P / A * np.sum(elem_length / moduli, axis=-1)
    return {"compliance": P * tip, "tipdisp": tip, "vmmax": np.full(tip.shape, abs(P / A))}


def solve_bar_1d(mesh: Mesh1D, moduli: np.ndarray, P: float = 1.0, A: float = 1.0) -> QoIVector:
    """Axial two-node bar with element-wise modulus, left node clamped: _bar_responses on a block of one."""
    moduli = _checked_moduli(moduli, mesh.n_elems)
    return _qoi_vector(_bar_responses(mesh.elem_length, moduli[None, :], P, A))


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


@dataclass(frozen=True, eq=False)
class _BandMap:
    """Scatter map from element-matrix entries into the banded K_ff.

    K_ff is K restricted to the free dofs in natural order, held in LAPACK
    lower band storage: entry (i, j), i >= j, lives at ab[i - j, j], and ab
    is column-major, as LAPACK reads it.  Entry t of the map adds
    moduli[elem[t]] * ke[t] to the flat column-major slot pos[t].
    """

    free: np.ndarray    # free dof indices, ascending
    pos: np.ndarray     # flat column-major index into ab
    elem: np.ndarray    # element of each entry
    ke: np.ndarray      # unit-modulus value of each entry
    shape: tuple        # (half-bandwidth + 1, number of free dofs)
    pbsv: Callable      # LAPACK dpbsv

    def solve(self, moduli: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Assemble K_ff for these moduli and solve it by banded Cholesky."""
        ab = np.bincount(
            self.pos, weights=moduli[self.elem] * self.ke, minlength=self.shape[0] * self.shape[1]
        ).reshape(self.shape, order="F")
        # The lower form: on the default meshes it ran about 5x faster than the
        # upper form with two OpenBLAS threads, and no slower with one.  The
        # band is already in LAPACK's layout, so ?pbsv factors it in place;
        # rhs is copied, since a block of scenarios shares it.
        _, x, info = self.pbsv(ab, rhs, lower=1, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
        return x


class PlaneStressSolver:
    """Reusable assembly/solve context for one mesh and Poisson ratio.

    Congruent elements mean a single unit stiffness matrix serves every
    element.  The band map of the stiffness is built once, so each
    realization costs one scale, one bincount into band storage and one
    banded Cholesky solve.  solve solves one realization; responses takes a
    block of solved realizations and computes their peak stresses together.
    The x-major node numbering already keeps the band narrow (half-bandwidth
    2 * (ny + 1) + 3 on the cantilever), so the dofs stay in natural order.
    """

    def __init__(self, mesh: MeshQ4, nu: float = 0.3):
        checked("nu", nu)
        self.mesh = mesh
        self.ke_unit, self.d1, self.b_mats = _q4_unit_stiffness(mesh.hx, mesh.hy, nu)
        dofs = np.empty((mesh.n_elems, 8), dtype=int)
        dofs[:, 0::2] = 2 * mesh.elems
        dofs[:, 1::2] = 2 * mesh.elems + 1
        self.dof_map = dofs
        self.n_dof = 2 * mesh.coords.shape[0]
        self.band = self._band(mesh.fixed_dofs)

    def _band(self, fixed_dofs: np.ndarray) -> _BandMap:
        """Band map of K_ff for the dofs not in fixed_dofs, kept in natural order."""
        # scipy.linalg is imported on first use, as in nystrom_basis.
        from scipy.linalg import get_lapack_funcs

        free = np.setdiff1d(np.arange(self.n_dof), fixed_dofs)
        index = np.full(self.n_dof, -1)
        index[free] = np.arange(free.size)
        loc = index[self.dof_map]  # (E, 8): free index of each element dof, -1 if fixed
        rows, cols = loc[:, :, None], loc[:, None, :]
        elem, a, b = np.nonzero((cols >= 0) & (rows >= cols))
        i, j = loc[elem, a], loc[elem, b]
        shape = (int((i - j).max(initial=0)) + 1, free.size)
        (pbsv,) = get_lapack_funcs(("pbsv",), (self.ke_unit,))
        return _BandMap(free, j * shape[0] + (i - j), elem, self.ke_unit[a, b], shape, pbsv)

    def solve(self, moduli: np.ndarray, traction: float = 1.0) -> np.ndarray:
        """Displacements (n_dof,) of one modulus field under traction times the unit load.

        Raises ValueError unless moduli holds one positive, finite modulus per
        element, and LinAlgError when the band is not positive definite.
        """
        moduli = _checked_moduli(moduli, self.mesh.n_elems)
        u = np.zeros(self.n_dof)
        u[self.band.free] = self.band.solve(moduli, (traction * self.mesh.unit_load)[self.band.free])
        return u

    def responses(self, u: np.ndarray, moduli: np.ndarray, traction: float = 1.0) -> dict[str, np.ndarray]:
        """Each of QOI_NAMES, (B,), for a block of solved fields: u (B, n_dof), moduli (B, E)."""
        f = traction * self.mesh.unit_load
        return {
            # One dot per row: a (B, n_dof) @ f product rounds differently.
            "compliance": np.array([f @ row for row in u]),
            "tipdisp": np.abs(u[:, 2 * self.mesh.tip_node + 1]),
            "vmmax": self._element_peak_stress(u, moduli).max(axis=1),
        }

    def solve_prescribed(
        self, moduli: np.ndarray, dirichlet_dofs: np.ndarray, dirichlet_values: np.ndarray
    ) -> np.ndarray:
        """Solve with inhomogeneous Dirichlet data and no applied load."""
        moduli = _checked_moduli(moduli, self.mesh.n_elems)
        u = np.zeros(self.n_dof)
        u[dirichlet_dofs] = dirichlet_values
        band = self._band(dirichlet_dofs)
        # K @ u_d, element by element: u is zero on the free dofs here.
        fe = moduli[:, None] * (u[self.dof_map] @ self.ke_unit)
        k_ud = np.bincount(self.dof_map.ravel(), weights=fe.ravel(), minlength=self.n_dof)
        u[band.free] = band.solve(moduli, -k_ud[band.free])
        return u

    def _element_peak_stress(self, u: np.ndarray, moduli: np.ndarray) -> np.ndarray:
        """Peak von Mises stress of each element over its Gauss points.

        u holds displacements and moduli element moduli over their last axes,
        (..., n_dof) and (..., E); returns (..., E).  Each Gauss point's
        strain and stress products run over the elements of every row at once.
        """
        ue = u[..., self.dof_map].reshape(-1, 8)
        scale = moduli.reshape(-1, 1)
        peak = np.zeros(ue.shape[0])
        for b in self.b_mats:
            stress = ((ue @ b.T) @ self.d1.T) * scale
            sx, sy, txy = stress[:, 0], stress[:, 1], stress[:, 2]
            # The square of the stress: sqrt is correctly rounded and monotone,
            # so the root of the largest square is the largest root.
            peak = np.maximum(peak, sx * sx - sx * sy + sy * sy + 3.0 * txy * txy)
        return np.sqrt(peak).reshape(moduli.shape)


def solve_plane_stress_q4(
    mesh: MeshQ4, moduli: np.ndarray, nu: float = 0.3, traction: float = 1.0
) -> QoIVector:
    """One-shot plane-stress solve; see PlaneStressSolver for batch use."""
    solver = PlaneStressSolver(mesh, nu)
    u = solver.solve(moduli, traction)
    return _qoi_vector(solver.responses(u[None, :], np.asarray(moduli, dtype=float)[None, :], traction))


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

# Material, load and random-field defaults shared by both plane-stress benchmarks.
_PLANE_STRESS_DEFAULTS = {
    "nu": 0.3,
    "traction": 1.0,
    "sigma": 0.3,
    "length_scale_x": 0.4,
    "length_scale_y": 0.4,
    "rank": 12,
    "n_sample_grid": 8,
}

CANTILEVER_DEFAULTS = {"length": 2.0, "height": 1.0, "nx": 32, "ny": 16, **_PLANE_STRESS_DEFAULTS}

LBRACKET_DEFAULTS = {
    "leg_length": 1.0,
    "leg_width": 0.4,
    "n_elems_per_unit": 25,
    **_PLANE_STRESS_DEFAULTS,
}

BENCHMARK_DEFAULTS = {
    "bar1d": BAR1D_DEFAULTS,
    "cantilever": CANTILEVER_DEFAULTS,
    "lbracket": LBRACKET_DEFAULTS,
}

# Range of each parameter and run setting beyond its type: (test, what the
# message says).  An integer one not named here takes any integer >= 1.  A
# count that sizes an array takes at most numpy's largest count, so a larger
# one fails here by name, not inside numpy.
_POSITIVE = (lambda v: v > 0.0, " > 0")
_NONNEGATIVE = (lambda v: v >= 0.0, " >= 0")
_UNIT_OPEN = (lambda v: 0.0 < v < 1.0, " in (0, 1)")
_AT_LEAST_ONE = (lambda v: v >= 1, " >= 1")
_MAX_COUNT = int(np.iinfo(np.intp).max)
_COUNT = (lambda v: 1 <= v <= _MAX_COUNT, f" in [1, {_MAX_COUNT}]")
_PARAM_RANGES = {
    **dict.fromkeys(
        ("n_elems", "n_levels", "nx", "ny", "n_elems_per_unit", "rank", "n_sample_grid", "n_scenarios"),
        _COUNT,
    ),
    "length": _POSITIVE,
    "area": _POSITIVE,
    "level_lo": _POSITIVE,
    "level_hi": _POSITIVE,
    "height": _POSITIVE,
    "leg_length": _POSITIVE,
    "leg_width": _POSITIVE,
    "length_scale_x": _POSITIVE,
    "length_scale_y": _POSITIVE,
    "sigma": _NONNEGATIVE,
    "nu": (lambda v: -1.0 < v < 0.5, " in (-1, 0.5)"),
    "alpha_level": _UNIT_OPEN,
    "delta_tot": _UNIT_OPEN,
    "epsilon_a": _NONNEGATIVE,
    "seed": _NONNEGATIVE,
}

# Scenarios drawn per block by the bar ensemble; bounds its temporaries.
_BAR_BLOCK = 1024
# Scenarios solved per block by the plane-stress ensembles.  Blocks of 8 to
# 32 built as fast; at 8 the largest stress temporary, (block * n_elems, 8),
# stays below the default cantilever's band, and the heap no larger than
# with one scenario at a time (BENCH_plane_blocks.json).
_PLANE_BLOCK = 8


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Cached scenario responses: the estimation oracle is a lookup table.

    `probs` and every `responses` array are made read-only, and `responses`
    is a read-only view of its dict, so a QoI's tail derived once and kept in
    `tails` (see `cli._tail`) stays that of the ensemble.
    """

    benchmark: str
    alpha_level: float
    seed: int
    params: dict
    probs: np.ndarray
    responses: Mapping[str, np.ndarray] = field(repr=False)
    tails: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "responses", MappingProxyType(dict(self.responses)))
        for array in (self.probs, *self.responses.values()):
            array.flags.writeable = False

    @property
    def n_scenarios(self) -> int:
        return int(self.probs.size)


def write_ensemble(path, ens: Ensemble) -> None:
    """Persist an ensemble as columnar text.

    Header lines carry the benchmark identity, the confidence level, the
    seed and the generation parameters; data rows are (index, p_i,
    compliance, tipdisp, vmmax).  The tail threshold and maximum response
    per QoI live in the truth sidecar that `tailamp generate` writes next to
    this file.  All floats use 17 significant digits so a reread is exact.
    A temporary file replaces path at the end, so no reader sees half a file.
    """
    header = [
        f"benchmark {ens.benchmark}",
        f"alpha_level {ens.alpha_level:.17g}",
        f"seed {ens.seed}",
        f"n_scenarios {ens.n_scenarios}",
        f"params {json.dumps(ens.params, sort_keys=True)}",
        "columns index p " + " ".join(QOI_NAMES),
    ]
    data = np.column_stack(
        [np.arange(ens.n_scenarios), ens.probs, *(ens.responses[name] for name in QOI_NAMES)]
    )
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        # The name ends in .tmp, so savetxt never gzips it.
        np.savetxt(tmp, data, fmt="%.17g", header="\n".join(header), comments="# ")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_ensemble(path) -> Ensemble:
    """Reload a persisted ensemble; floats round-trip exactly.

    A malformed file (missing header key, unparsable value, alpha_level,
    n_scenarios or seed failing checked, params not a JSON object, wrong
    column or row count, index column not 0..n-1, weights or a response
    column failing checked_scenarios) raises one ValueError line naming it.
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
        alpha_level, seed, n = float(header["alpha_level"]), int(header["seed"]), int(header["n_scenarios"])
        checked("alpha_level", alpha_level)
        checked("seed", seed, integer=True)
        checked("n_scenarios", n, integer=True)
        params = json.loads(header["params"])
        if not isinstance(params, dict):
            raise ValueError(f"params must be a JSON object, got {header['params']}")
        if len(rows) != n:
            raise ValueError(f"{len(rows)} data rows, but the header says n_scenarios {n}")
        data = np.array(rows)
        if not np.array_equal(data[:, 0], np.arange(n)):
            raise ValueError(f"index column must run 0..{n - 1} in order")
        probs = data[:, 1].copy()
        responses = {name: data[:, 2 + j].copy() for j, name in enumerate(QOI_NAMES)}
        for name, values in responses.items():
            checked_scenarios(probs, values, name)
        return Ensemble(
            benchmark=header["benchmark"],
            alpha_level=alpha_level,
            seed=seed,
            params=params,
            probs=probs,
            responses=responses,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _grid_sample_points(x_hi: float, y_hi: float, n: int) -> np.ndarray:
    xs = np.linspace(0.0, x_hi, n)
    ys = np.linspace(0.0, y_hi, n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _ensemble_2d(benchmark: str, n_scenarios: int, params: dict, rng) -> dict[str, np.ndarray]:
    if benchmark == "cantilever":
        mesh = build_cantilever_mesh(
            params["length"], params["height"], params["nx"], params["ny"]
        )
    else:
        mesh = build_lbracket_mesh(
            params["leg_length"], params["leg_width"], params["n_elems_per_unit"]
        )
    # Both meshes start at the origin, so the sample grid spans their bounding box.
    x_hi, y_hi = mesh.coords.max(axis=0)
    model = KernelModel(
        length_scale_x=params["length_scale_x"],
        length_scale_y=params["length_scale_y"],
        sigma=params["sigma"],
        rank=params["rank"],
        sample_points=_grid_sample_points(x_hi, y_hi, params["n_sample_grid"]),
    )
    phi = nystrom_basis(model).evaluate(mesh.centroids)
    solver = PlaneStressSolver(mesh, params["nu"])
    responses = {name: np.empty(n_scenarios) for name in QOI_NAMES}
    traction = params["traction"]
    for start in range(0, n_scenarios, _PLANE_BLOCK):
        block = min(_PLANE_BLOCK, n_scenarios - start)
        moduli = np.array([sample_field(model, phi, rng) for _ in range(block)])
        u = np.empty((block, solver.n_dof))
        for i, row in enumerate(moduli):
            try:
                u[i] = solver.solve(row, traction)
            except ValueError as exc:  # LinAlgError is a ValueError
                # The mesh and every other parameter are checked already: the
                # field exp(sigma * z) itself spans too many decades to solve.
                raise ValueError(
                    f"bad value {params['sigma']!r} for parameter 'sigma': "
                    f"scenario {start + i}'s modulus field cannot be solved ({exc})"
                ) from None
        for name, values in solver.responses(u, moduli, traction).items():
            responses[name][start : start + block] = values
    return responses


def _ensemble_bar(n_scenarios: int, params: dict, rng) -> dict[str, np.ndarray]:
    """Level draws in blocks of _BAR_BLOCK scenarios, one closed form per block.

    A (block, n_elems) draw yields the same stream as one draw of n_elems
    per scenario, so the ensemble does not depend on the block size; the
    blocks only bound the temporaries.
    """
    mesh = build_bar_mesh(params["length"], params["n_elems"])
    levels = np.geomspace(params["level_lo"], params["level_hi"], params["n_levels"])
    load, area = params["load"], params["area"]
    responses = {name: np.empty(n_scenarios) for name in QOI_NAMES}
    for start in range(0, n_scenarios, _BAR_BLOCK):
        stop = min(start + _BAR_BLOCK, n_scenarios)
        idx = rng.integers(0, levels.size, size=(stop - start, mesh.n_elems))
        for name, values in _bar_responses(mesh.elem_length, levels[idx], load, area).items():
            responses[name][start:stop] = values
    return responses


def _finite(value: numbers.Real) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def checked(name: str, value, integer: bool = False) -> None:
    """Raise one ValueError naming parameter name unless value lies in its range.

    An integer parameter takes an integer (never a float to be truncated),
    any other a finite number, which an integer too large for a float is
    not; either must lie in its _PARAM_RANGES range, which for an integer
    defaults to >= 1.  A bool is neither.
    """
    rule, where = _PARAM_RANGES.get(name, _AT_LEAST_ONE if integer else (None, ""))
    if integer:
        ok, kind = isinstance(value, numbers.Integral), "an integer"
    else:
        ok, kind = isinstance(value, numbers.Real) and _finite(value), "a finite number"
    if isinstance(value, bool) or not (ok and (rule is None or rule(value))):
        raise ValueError(f"bad value {value!r} for parameter {name!r}: must be {kind}{where}")


def _checked_params(benchmark: str, overrides: dict) -> dict:
    """Defaults with the overrides applied, each passed through checked under its name."""
    params = dict(BENCHMARK_DEFAULTS[benchmark])
    for key in overrides:
        if key not in params:
            raise ValueError(f"unknown parameter {key!r} for {benchmark}")
    for key, default in params.items():
        value = overrides.get(key, default)
        checked(key, value, integer=isinstance(default, int))
        params[key] = type(default)(value)
    if "rank" in params and params["rank"] > params["n_sample_grid"] ** 2:
        raise ValueError(
            f"bad value {params['rank']!r} for parameter 'rank': "
            f"must not exceed n_sample_grid**2 = {params['n_sample_grid'] ** 2}"
        )
    return params


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
    ensemble as a lookup table.  The settings and every parameter are
    checked by name before any mesh is built, so a bad one fails with one
    ValueError line.
    """
    if benchmark not in BENCHMARK_DEFAULTS:
        raise ValueError(f"unknown benchmark {benchmark!r}")
    checked("n_scenarios", n_scenarios, integer=True)
    checked("seed", seed, integer=True)
    checked("alpha_level", alpha_level)
    params = _checked_params(benchmark, overrides or {})
    rng = np.random.default_rng(seed)
    if benchmark == "bar1d":
        responses = _ensemble_bar(n_scenarios, params, rng)
    else:
        responses = _ensemble_2d(benchmark, n_scenarios, params, rng)
    probs = np.full(n_scenarios, 1.0 / n_scenarios)
    return Ensemble(
        benchmark=benchmark,
        alpha_level=alpha_level,
        seed=seed,
        params=params,
        probs=probs,
        responses=responses,
    )
