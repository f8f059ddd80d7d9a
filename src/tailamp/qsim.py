"""Desk-scale statevector simulation of the tail-amplitude oracle.

The oracle A prepares sum_i sqrt(p_i) |i> (sqrt(1-g_i)|0> + sqrt(g_i)|1>)
over an index register and one ancilla, so the probability of measuring the
ancilla in |1> equals a = sum_i p_i g_i.  Grover amplification G = -A S_0
A^dagger S_chi boosts that probability to sin^2((2k+1) theta) with
a = sin^2(theta).  Everything here is exact linear algebra on the oracle's
amplitudes; it exists to certify the estimation pipeline, not to scale.

Two paths share the oracle amplitudes.  The complex gate path (StateVector,
build_oracle_state, apply_oracle, apply_grover, the reflections and
success_probability) is the reference: build_oracle_state writes A|0> in
closed form, apply_oracle runs A gate by gate on any state, and every
iterate runs on the full statevector, at O(N) each.  A is n + 1 layers, one
per qubit: each applies real 2x2 matrices (a Hadamard, or one R_y rotation
per setting of the more significant qubits) as one broadcast matmul, and
A^dagger is the reversed list of transposes.
StatevectorOracle, which the controller drives, uses the fact that
amplification keeps A|0> in the real plane spanned by its ancilla-|0> and
ancilla-|1> halves, where each iterate rotates by 2 theta (Brassard, Hoyer,
Mosca & Tapp 2002, Quantum amplitude amplification and estimation, Contemp.
Math. 305): it builds the two halves once and reads theta off them.
The halves are sqrt(p_i (1 - g_i)) and sqrt(p_i g_i), one entry per scenario
with no padding, built in O(N) from square roots and products:
cos(asin(sqrt(g))) is sqrt(1 - g), so no trigonometric function is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .stochfem import checked_scenarios

MAX_INDEX_QUBITS = 20


@dataclass(frozen=True, eq=False)
class OracleSpec:
    """Scenario probabilities and normalized tail responses g_i in [0, 1].

    The ancilla rotation angle for scenario i is phi_i = 2 arcsin(sqrt(g_i)).
    """

    probs: np.ndarray
    gs: np.ndarray

    def __post_init__(self):
        probs, gs = checked_scenarios(self.probs, self.gs, "responses g")
        if np.any((gs < 0.0) | (gs > 1.0)):
            raise ValueError("responses g must lie in [0, 1]")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "gs", gs)
        if self.n_index_qubits > MAX_INDEX_QUBITS:
            raise ValueError("scenario count exceeds the simulator's size cap")

    @classmethod
    def from_angles(cls, probs, angles) -> "OracleSpec":
        """Build from ancilla rotation angles phi_i instead of responses."""
        angles = np.asarray(angles, dtype=float)
        return cls(np.asarray(probs, dtype=float), np.sin(angles / 2.0) ** 2)

    @property
    def n_scenarios(self) -> int:
        return int(self.probs.size)

    @property
    def n_index_qubits(self) -> int:
        return (self.probs.size - 1).bit_length()

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.arcsin(np.sqrt(self.gs))

    @property
    def amplitude(self) -> float:
        """Exact success amplitude a = sum_i p_i g_i."""
        return float(np.dot(self.probs, self.gs))


@dataclass(eq=False)
class StateVector:
    """Flat statevector over n index qubits plus one ancilla.

    Basis order is |q_0 q_1 ... q_{n-1} a> with q_0 the most significant bit
    and the ancilla the least significant, so scenario i occupies the
    amplitude pair (2i, 2i+1).
    """

    n_index_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        expected = 1 << (self.n_index_qubits + 1)
        if amps.shape != (expected,):
            raise ValueError("amplitude vector has wrong length")
        self.amplitudes = amps


# --- gate kernels -----------------------------------------------------------
#
# Every gate is a (level, u) layer on qubit `level`: u is one real 2x2 matrix
# for every setting of the more significant qubits, or a (2**level, 2, 2)
# stack with one matrix per setting.  Qubit n is the ancilla, so matrix i of
# its layer rotates scenario i's amplitude pair (2i, 2i+1).  Every matrix is
# real orthogonal, so the adjoint of a gate list is the reversed list of
# transposes.

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _ry(beta: np.ndarray) -> np.ndarray:
    """The (beta.size, 2, 2) stack of rotations R_y(beta_j); R_y(0) is the identity."""
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    return np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)


def _loading_gates(n: int, masses: np.ndarray) -> list:
    """Layers taking n index qubits from |0...0> to sum sqrt(masses_i)|i>.

    masses are the 2**n padded probabilities.  A plain Hadamard layer when
    they are exactly uniform.  Otherwise level l is one uniformly controlled
    R_y (Grover & Rudolph 2002, arXiv:quant-ph/0208112): the rotation at each
    node of the binary mass tree sends sqrt(parent) to (sqrt(left), sqrt(right)).
    """
    if np.all(np.abs(masses - 1.0 / masses.size) <= 1e-12):
        return [(level, _HADAMARD) for level in range(n)]
    gates = []
    for level in reversed(range(n)):
        pairs = masses.reshape(-1, 2)
        gates.append((level, _ry(2.0 * np.arctan2(np.sqrt(pairs[:, 1]), np.sqrt(pairs[:, 0])))))
        masses = pairs.sum(axis=1)
    gates.reverse()  # shallow levels first
    return gates


def oracle_gates(spec: OracleSpec) -> list:
    """Full gate list for A: probability loading, then one ancilla R_y layer."""
    n = spec.n_index_qubits
    probs, angles = np.pad([spec.probs, spec.angles], ((0, 0), (0, (1 << n) - spec.n_scenarios)))
    return _loading_gates(n, probs) + [(n, _ry(angles))]


def _oracle_halves(spec: OracleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Real amplitudes of A|0> with the ancilla in |0> and in |1>.

    Entry i of each half is scenario i: sqrt(p_i) sqrt(1 - g_i) and
    sqrt(p_i) sqrt(g_i), which equal sqrt(p_i) cos(phi_i / 2) and
    sqrt(p_i) sin(phi_i / 2).  Each half has one entry per scenario and no
    padding; building both takes O(N) square roots and products.
    """
    root_p = np.sqrt(spec.probs)
    zero = np.subtract(1.0, spec.gs)
    np.sqrt(zero, out=zero)
    zero *= root_p
    one = np.sqrt(spec.gs)
    one *= root_p
    return zero, one


def build_oracle_state(spec: OracleSpec) -> StateVector:
    """Prepare A|0> from its closed-form amplitudes.

    The unpadded halves fill the first 2 n_scenarios slots of the register;
    the padding past them stays zero.  apply_oracle applied to the |0> basis
    state gives the same state gate by gate; the tests hold the two to 1e-12.
    """
    amps = np.zeros(1 << (spec.n_index_qubits + 1), dtype=complex)
    used = amps[: 2 * spec.n_scenarios]
    used[0::2], used[1::2] = _oracle_halves(spec)
    return StateVector(spec.n_index_qubits, amps)


def reflect_success(state: StateVector) -> StateVector:
    """S_chi: flip the sign of every amplitude with the ancilla in |1>."""
    amps = state.amplitudes.copy()
    amps[1::2] *= -1.0
    return StateVector(state.n_index_qubits, amps)


def reflect_zero(state: StateVector) -> StateVector:
    """S_0: flip the sign of the all-zeros basis amplitude only."""
    amps = state.amplitudes.copy()
    amps[0] *= -1.0
    return StateVector(state.n_index_qubits, amps)


def apply_oracle(state: StateVector, spec: OracleSpec, adjoint: bool = False) -> StateVector:
    """Apply A (or A^dagger) as its gate sequence to an arbitrary state.

    One Grover iterate decomposes as -A S_0 A^dagger S_chi; composing this
    with the two reflections reproduces apply_grover step by step, which the
    tests use to pin each intermediate state.
    """
    amps = state.amplitudes.copy()
    gates = oracle_gates(spec)
    for level, u in reversed(gates) if adjoint else gates:
        v = amps.reshape(1 << level, 2, -1)
        v[...] = (np.swapaxes(u, -1, -2) if adjoint else u) @ v
    return StateVector(state.n_index_qubits, amps)


def apply_grover(state: StateVector, spec: OracleSpec, k: int = 1) -> StateVector:
    """Apply k Grover iterates G = -A S_0 A^dagger S_chi.

    S_chi flips the sign of every ancilla-|1> amplitude.  S_0 = I - 2|0><0|
    makes A S_0 A^dagger = I - 2|psi><psi| with psi = A|0>, so an iterate
    costs O(N) and no gates; apply_oracle gives the same map gate by gate.
    """
    if k < 0:
        raise ValueError("iterate count must be nonnegative")
    amps = state.amplitudes.copy()
    psi = build_oracle_state(spec).amplitudes
    for _ in range(k):
        amps[1::2] *= -1.0
        amps -= (2.0 * np.vdot(psi, amps)) * psi
        amps *= -1.0
    return StateVector(state.n_index_qubits, amps)


def success_probability(state: StateVector) -> float:
    """Probability of measuring the ancilla in |1>."""
    return float(np.sum(np.abs(state.amplitudes[1::2]) ** 2))


def _amplified(theta: float, k: int) -> float:
    """sin^2((2k+1) theta): the ancilla-|1> probability after k iterates."""
    if k < 0:
        raise ValueError("iterate count must be nonnegative")
    return math.sin((2 * k + 1) * theta) ** 2


def analytic_success_probability(a: float, k: int) -> float:
    """Closed-form amplified response sin^2((2k+1) asin(sqrt(a)))."""
    return AnalyticOracle(a).success_probability(k)


def sample_shots(p: float, m: int, rng: np.random.Generator) -> int:
    """Draw the success count of one m-shot batch at success probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability out of range")
    if m < 0:
        raise ValueError("shot count must be nonnegative")
    return int(rng.binomial(m, p))


class AnalyticOracle:
    """Measurement model driven by the closed-form response curve.

    Fast path for benchmarks: no statevector is held, only the true
    amplitude and its angle.  The complex apply_grover is the reference both
    measurement models are tested against.
    """

    def __init__(self, a: float):
        if not 0.0 <= a <= 1.0:
            raise ValueError("amplitude must lie in [0, 1]")
        self.a = float(a)
        self._theta = math.asin(math.sqrt(self.a))

    def success_probability(self, k: int) -> float:
        return _amplified(self._theta, k)


class StatevectorOracle:
    """Measurement model backed by the oracle's statevector.

    Grover iterates never leave the plane spanned by the ancilla-|0> half b
    and the ancilla-|1> half g of A|0>, where A|0> sits at angle
    theta = atan2(|g|, |b|) from b and each iterate rotates it by 2 theta,
    so p(k) = sin^2((2k+1) theta).  Only theta, taken from the unpadded
    halves sqrt(p (1 - g)) and sqrt(p g), is kept: building it costs O(N)
    square roots and two norms, with no trigonometric function per scenario.
    """

    def __init__(self, spec: OracleSpec):
        b, g = _oracle_halves(spec)
        self._theta = math.atan2(np.linalg.norm(g), np.linalg.norm(b))

    def success_probability(self, k: int) -> float:
        return _amplified(self._theta, k)
