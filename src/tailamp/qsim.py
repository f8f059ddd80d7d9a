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
iterate runs on the full statevector, at O(N) each.
StatevectorOracle, which the controller drives, uses the fact that
amplification keeps A|0> in the real plane spanned by its ancilla-|0> and
ancilla-|1> halves, where each iterate rotates by 2 theta (Brassard, Hoyer,
Mosca & Tapp 2002, Quantum amplitude amplification and estimation, Contemp.
Math. 305): it builds the two halves once, in O(N), and reads theta off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_INDEX_QUBITS = 20
_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class OracleSpec:
    """Scenario probabilities and normalized tail responses g_i in [0, 1].

    The ancilla rotation angle for scenario i is phi_i = 2 arcsin(sqrt(g_i)).
    """

    probs: np.ndarray
    gs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        gs = np.asarray(self.gs, dtype=float)
        if probs.ndim != 1 or probs.shape != gs.shape:
            raise ValueError("probs and gs must be matching 1-d arrays")
        if probs.size < 1:
            raise ValueError("need at least one scenario")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1 within 1e-9")
        if not np.all(np.isfinite(gs)):
            raise ValueError("responses g must be finite")
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
        n = 0
        while (1 << n) < self.probs.size:
            n += 1
        return n

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.arcsin(np.sqrt(self.gs))

    @property
    def amplitude(self) -> float:
        """Exact success amplitude a = sum_i p_i g_i."""
        return float(np.dot(self.probs, self.gs))

    def padded_probs(self) -> np.ndarray:
        out = np.zeros(1 << self.n_index_qubits)
        out[: self.probs.size] = self.probs
        return out


@dataclass
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
# Gates are (tag, *args) tuples applied in list order.  Only three kinds are
# needed: Hadamards on index qubits, prefix-controlled R_y rotations on index
# qubits (the probability-loading tree), and per-scenario R_y rotations on
# the ancilla.


def _apply_h(amps: np.ndarray, level: int) -> None:
    v = amps.reshape(1 << level, 2, -1)
    a = v[:, 0, :].copy()
    b = v[:, 1, :]
    v[:, 0, :] = (a + b) * _SQRT_HALF
    v[:, 1, :] = (a - b) * _SQRT_HALF


def _apply_tree_ry(amps: np.ndarray, level: int, prefix: int, beta: float) -> None:
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    v = amps.reshape(1 << level, 2, -1)
    a = v[prefix, 0, :].copy()
    b = v[prefix, 1, :]
    v[prefix, 0, :] = c * a - s * b
    v[prefix, 1, :] = s * a + c * b


def _apply_ancilla_ry(amps: np.ndarray, scenario: int, phi: float) -> None:
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    a = amps[2 * scenario]
    b = amps[2 * scenario + 1]
    amps[2 * scenario] = c * a - s * b
    amps[2 * scenario + 1] = s * a + c * b


def _apply_gates(amps: np.ndarray, gates) -> None:
    for gate in gates:
        tag = gate[0]
        if tag == "h":
            _apply_h(amps, gate[1])
        elif tag == "tree":
            _apply_tree_ry(amps, gate[1], gate[2], gate[3])
        else:
            _apply_ancilla_ry(amps, gate[1], gate[2])


def _adjoint(gates) -> list:
    out = []
    for gate in reversed(gates):
        tag = gate[0]
        if tag == "h":
            out.append(gate)
        elif tag == "tree":
            out.append(("tree", gate[1], gate[2], -gate[3]))
        else:
            out.append(("anc", gate[1], -gate[2]))
    return out


def _loading_gates(spec: OracleSpec) -> list:
    """Gates taking the index register from |0...0> to sum sqrt(p_i)|i>.

    A plain Hadamard layer when the padded distribution is exactly uniform,
    otherwise a binary tree of prefix-controlled R_y rotations that splits
    probability mass level by level.
    """
    n = spec.n_index_qubits
    padded = spec.padded_probs()
    if n == 0:
        return []
    if np.all(np.abs(padded - 1.0 / padded.size) <= 1e-12):
        return [("h", level) for level in range(n)]
    gates = []
    masses = padded
    for level in reversed(range(n)):
        parents = masses.reshape(-1, 2).sum(axis=1)
        # Rotation at each occupied node sends sqrt(parent) to
        # (sqrt(left), sqrt(right)).
        for prefix in range(parents.size):
            left = masses[2 * prefix]
            right = masses[2 * prefix + 1]
            if parents[prefix] > 0.0 and right > 0.0:
                beta = 2.0 * math.atan2(math.sqrt(right), math.sqrt(left))
                gates.append(("tree", level, prefix, beta))
        masses = parents
    gates.reverse()  # shallow levels first
    return gates


def oracle_gates(spec: OracleSpec) -> list:
    """Full gate list for A: probability loading then ancilla rotations."""
    gates = _loading_gates(spec)
    for i, phi in enumerate(spec.angles):
        if phi != 0.0:
            gates.append(("anc", i, phi))
    return gates


def _oracle_halves(spec: OracleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Real amplitudes of A|0> with the ancilla in |0> and in |1>.

    Entry i of each half is scenario i: sqrt(p_i) cos(phi_i / 2) and
    sqrt(p_i) sin(phi_i / 2), zero on the padding.
    """
    size = 1 << spec.n_index_qubits
    zero, one = np.zeros(size), np.zeros(size)
    root_p = np.sqrt(spec.probs)
    half = spec.angles / 2.0
    zero[: spec.n_scenarios] = root_p * np.cos(half)
    one[: spec.n_scenarios] = root_p * np.sin(half)
    return zero, one


def build_oracle_state(spec: OracleSpec) -> StateVector:
    """Prepare A|0> from its closed-form amplitudes.

    apply_oracle applied to the |0> basis state gives the same state gate by
    gate; the tests hold the two to 1e-12.
    """
    amps = np.zeros(1 << (spec.n_index_qubits + 1), dtype=complex)
    amps[0::2], amps[1::2] = _oracle_halves(spec)
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
    gates = oracle_gates(spec)
    if adjoint:
        gates = _adjoint(gates)
    amps = state.amplitudes.copy()
    _apply_gates(amps, gates)
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
    if not 0.0 <= a <= 1.0:
        raise ValueError("amplitude must lie in [0, 1]")
    return _amplified(math.asin(math.sqrt(a)), k)


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
    so p(k) = sin^2((2k+1) theta).  Only theta, taken from the halves, is
    kept.
    """

    def __init__(self, spec: OracleSpec):
        b, g = _oracle_halves(spec)
        self._theta = math.atan2(np.linalg.norm(g), np.linalg.norm(b))

    def success_probability(self, k: int) -> float:
        return _amplified(self._theta, k)
