"""Finite-dimensional bipartite quantum strategies and their induced correlations.

A :class:`Strategy` is a shared pure state together with one projective
measurement per question on each side.  The joint state lives on
C^dA (x) C^dB with the Alice-major index layout ``i * dB + j``; every reshape
in this package relies on that single convention.  Mixed states are excluded:
purify before constructing a strategy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .correlation import Correlation

__all__ = [
    "Strategy",
    "Observable",
    "ValidationIssue",
    "ValidationReport",
    "StrategyError",
    "InvalidStrategyError",
    "induce",
    "validate",
    "observable_to_projectors",
    "projected_substate",
    "restrict_questions",
    "direct_sum_strategies",
    "random_strategy",
    "haar_unitary",
    "STATE_NORM_TOL",
    "PROJECTOR_TOL",
    "EIGENVALUE_CLUSTER_TOL",
]

STATE_NORM_TOL = 1e-12
PROJECTOR_TOL = 1e-10
EIGENVALUE_CLUSTER_TOL = 1e-8


class StrategyError(ValueError):
    """Malformed strategy data or an operation on incompatible shapes."""


class InvalidStrategyError(StrategyError):
    """A strategy failed validation where a valid one is required."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(f"invalid strategy: {report.summary()}")
        self.report = report


def _as_measurements(meas, dim: int, side: str) -> tuple[tuple[np.ndarray, ...], ...]:
    questions = []
    counts = set()
    for x, elements in enumerate(meas):
        row = []
        for a, mat in enumerate(elements):
            arr = np.array(mat, dtype=complex)
            if arr.shape != (dim, dim):
                raise StrategyError(
                    f"{side} measurement ({x},{a}) has shape {arr.shape}, expected ({dim},{dim})"
                )
            arr.setflags(write=False)
            row.append(arr)
        counts.add(len(row))
        questions.append(tuple(row))
    if not questions:
        raise StrategyError(f"{side} needs at least one question")
    if len(counts) != 1:
        raise StrategyError(f"{side} questions disagree on answer count: {sorted(counts)}")
    return tuple(questions)


@dataclass(frozen=True, eq=False)
class Strategy:
    """Pure state plus per-question projective measurements for both parties.

    The constructor checks shapes only; the numeric invariants (unit norm,
    Hermitian idempotent elements, completeness) are the job of
    :func:`validate`, so that deliberately broken strategies can be built and
    flagged.
    """

    dA: int
    dB: int
    state: np.ndarray
    alice_meas: tuple[tuple[np.ndarray, ...], ...]
    bob_meas: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        if self.dA < 1 or self.dB < 1:
            raise StrategyError(f"dimensions must be positive: ({self.dA},{self.dB})")
        state = np.array(self.state, dtype=complex).reshape(-1)
        if state.size != self.dA * self.dB:
            raise StrategyError(
                f"state length {state.size} != dA*dB = {self.dA * self.dB}"
            )
        state.setflags(write=False)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "alice_meas", _as_measurements(self.alice_meas, self.dA, "alice"))
        object.__setattr__(self, "bob_meas", _as_measurements(self.bob_meas, self.dB, "bob"))

    @property
    def m(self) -> int:
        return len(self.alice_meas)

    @property
    def n(self) -> int:
        return len(self.bob_meas)

    @property
    def r(self) -> int:
        return len(self.alice_meas[0])

    @property
    def s(self) -> int:
        return len(self.bob_meas[0])

    def state_matrix(self) -> np.ndarray:
        """State as a dA x dB coefficient matrix (Alice-major layout)."""
        return self.state.reshape(self.dA, self.dB)

    def to_dict(self) -> dict:
        return {
            "dA": self.dA,
            "dB": self.dB,
            "state": _complex_to_pairs(self.state),
            "alice_meas": [[_complex_to_pairs(p) for p in q] for q in self.alice_meas],
            "bob_meas": [[_complex_to_pairs(p) for p in q] for q in self.bob_meas],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Strategy":
        return cls(
            dA=int(data["dA"]),
            dB=int(data["dB"]),
            state=_pairs_to_complex(data["state"]),
            alice_meas=[[_pairs_to_complex(p) for p in q] for q in data["alice_meas"]],
            bob_meas=[[_pairs_to_complex(p) for p in q] for q in data["bob_meas"]],
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Strategy":
        return cls.from_dict(json.loads(text))


def _complex_to_pairs(arr: np.ndarray) -> list:
    stacked = np.stack([np.real(arr), np.imag(arr)], axis=-1)
    return stacked.tolist()


def _pairs_to_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


@dataclass(frozen=True)
class Observable:
    """Hermitian operator with spectrum contained in {-1, 0, +1}."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise StrategyError(f"observable must be square, got {arr.shape}")
        herm = float(np.linalg.norm(arr - arr.conj().T))
        if herm > PROJECTOR_TOL:
            raise StrategyError(f"observable is not Hermitian: residual {herm:.3e}")
        cube = float(np.linalg.norm(arr @ arr @ arr - arr))
        if cube > 1e-9:
            raise StrategyError(
                f"observable spectrum leaves {{-1,0,1}}: ||M^3 - M|| = {cube:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # state_norm | hermitian | idempotent | completeness | orthogonality
    side: str | None
    question: int | None
    answers: tuple[int, ...] | None
    residual: float

    def describe(self) -> str:
        where = ""
        if self.side is not None:
            where = f" [{self.side} x={self.question}"
            if self.answers is not None:
                where += f" a={','.join(map(str, self.answers))}"
            where += "]"
        return f"{self.kind}{where}: residual {self.residual:.3e}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def max_residual(self) -> float:
        return max((i.residual for i in self.issues), default=0.0)

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(issue.describe() for issue in self.issues)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "issues": [
                {
                    "kind": i.kind,
                    "side": i.side,
                    "question": i.question,
                    "answers": list(i.answers) if i.answers is not None else None,
                    "residual": i.residual,
                }
                for i in self.issues
            ],
        }


def validate(
    s: Strategy,
    state_tol: float = STATE_NORM_TOL,
    projector_tol: float = PROJECTOR_TOL,
) -> ValidationReport:
    """Report every broken strategy invariant with its Frobenius residual.

    An empty report means the strategy is valid: unit-norm state, Hermitian
    idempotent measurement elements, per-question completeness, and mutual
    orthogonality of elements belonging to the same question.
    """
    issues: list[ValidationIssue] = []
    norm_residual = abs(float(np.linalg.norm(s.state)) - 1.0)
    if norm_residual > state_tol:
        issues.append(ValidationIssue("state_norm", None, None, None, norm_residual))

    for side, dim, meas in (("A", s.dA, s.alice_meas), ("B", s.dB, s.bob_meas)):
        eye = np.eye(dim)
        for x, elements in enumerate(meas):
            total = np.zeros((dim, dim), dtype=complex)
            for a, proj in enumerate(elements):
                total = total + proj
                herm = float(np.linalg.norm(proj - proj.conj().T))
                if herm > projector_tol:
                    issues.append(ValidationIssue("hermitian", side, x, (a,), herm))
                idem = float(np.linalg.norm(proj @ proj - proj))
                if idem > projector_tol:
                    issues.append(ValidationIssue("idempotent", side, x, (a,), idem))
            comp = float(np.linalg.norm(total - eye))
            if comp > projector_tol:
                issues.append(ValidationIssue("completeness", side, x, None, comp))
            for a in range(len(elements)):
                for a2 in range(a + 1, len(elements)):
                    ortho = float(np.linalg.norm(elements[a] @ elements[a2]))
                    if ortho > projector_tol:
                        issues.append(
                            ValidationIssue("orthogonality", side, x, (a, a2), ortho)
                        )
    return ValidationReport(tuple(issues))


def induce(s: Strategy, check: bool = True) -> Correlation:
    """Correlation induced by a strategy: p(a,b|x,y) = <psi| A_x^a (x) B_y^b |psi>.

    With the state as a dA x dB matrix psi, this is the Frobenius pairing
    p(a,b|x,y) = sum_jl (psi^H A_x^a psi)[j,l] * B_y^b[j,l]: two matrix
    products per Alice element, then one O(dB^2) sum per Bob element.

    The strategy must pass :func:`validate`.  Imaginary parts of the inner
    products are asserted below 1e-10 and discarded.
    """
    if check:
        report = validate(s)
        if not report.ok:
            raise InvalidStrategyError(report)
    psi = s.state_matrix()
    psi_h = psi.conj().T
    table = np.empty((s.m, s.n, s.r, s.s))
    worst_imag = 0.0
    for x, elements in enumerate(s.alice_meas):
        for a, proj in enumerate(elements):
            # np.vdot conjugates its first argument, which undoes this conj
            local_conj = (psi_h @ proj @ psi).conj()
            for y, bob_elements in enumerate(s.bob_meas):
                for b, bob in enumerate(bob_elements):
                    val = complex(np.vdot(local_conj, bob))
                    worst_imag = max(worst_imag, abs(val.imag))
                    table[x, y, a, b] = val.real
    if worst_imag > 1e-10:
        raise StrategyError(
            f"induced probabilities have imaginary part {worst_imag:.3e} > 1e-10"
        )
    return Correlation(table, norm_tol=1e-10)


def observable_to_projectors(
    obs: Observable | np.ndarray,
    plus_answer: int = 0,
    minus_answer: int = 1,
    kernel_answer: int | None = None,
    num_answers: int | None = None,
    cluster_tol: float = EIGENVALUE_CLUSTER_TOL,
) -> list[np.ndarray]:
    """Split an observable into eigenspace projectors routed to answer indices.

    Eigenvalues are clustered onto {-1, 0, +1} at ``cluster_tol``; anything
    outside that band is an error.  Answers backing a nonzero eigenspace must
    be distinct; answer slots that receive no eigenspace hold zero matrices.
    """
    if not isinstance(obs, Observable):
        obs = Observable(np.asarray(obs, dtype=complex))
    evals, evecs = np.linalg.eigh(obs.matrix)
    targets = np.rint(evals)
    off = np.abs(evals - targets)
    if float(off.max(initial=0.0)) > cluster_tol or not set(np.unique(targets)) <= {-1.0, 0.0, 1.0}:
        bad = int(np.argmax(off))
        raise StrategyError(
            f"eigenvalue {evals[bad]!r} outside the {{-1,0,1}} band at tol {cluster_tol:.1e}"
        )
    routing = {1.0: plus_answer, -1.0: minus_answer, 0.0: kernel_answer}
    active: dict[float, int] = {}
    for label in (1.0, -1.0, 0.0):
        dim = int(np.sum(targets == label))
        if dim == 0:
            continue
        answer = routing[label]
        if answer is None:
            raise StrategyError("kernel eigenspace is nonzero but no kernel answer given")
        active[label] = answer
    if len(set(active.values())) != len(active):
        raise StrategyError(f"answers {active} collide on nonzero eigenspaces")
    if num_answers is None:
        num_answers = max(active.values(), default=0) + 1
    if any(a >= num_answers or a < 0 for a in active.values()):
        raise StrategyError(f"answer indices {active} out of range({num_answers})")

    d = obs.dim
    projectors = [np.zeros((d, d), dtype=complex) for _ in range(num_answers)]
    for label, answer in active.items():
        basis = evecs[:, targets == label]
        projectors[answer] = basis @ basis.conj().T
    return projectors


def projected_substate(
    s: Strategy, side: str, question: int, answers: Iterable[int]
) -> np.ndarray:
    """Apply the summed answer projector on one side: (sum_a Pi^a (x) I)|psi>.

    The result is unnormalized; its squared norm is the probability mass the
    given answers carry on that question.
    """
    if side not in ("A", "B"):
        raise StrategyError(f"side must be 'A' or 'B', got {side!r}")
    meas = s.alice_meas if side == "A" else s.bob_meas
    dim = s.dA if side == "A" else s.dB
    count = s.r if side == "A" else s.s
    if not (0 <= question < len(meas)):
        raise StrategyError(f"question {question} out of range({len(meas)})")
    answers = [int(a) for a in answers]
    if any(not (0 <= a < count) for a in answers):
        raise StrategyError(f"answers {answers} out of range({count})")
    proj = np.zeros((dim, dim), dtype=complex)
    for a in answers:
        proj = proj + meas[question][a]
    psi = s.state_matrix()
    out = proj @ psi if side == "A" else psi @ proj.T
    return out.reshape(-1)


def restrict_questions(s: Strategy, xs: Sequence[int], ys: Sequence[int]) -> Strategy:
    """Keep only the given questions on each side (state and answers unchanged)."""
    xs = [int(x) for x in xs]
    ys = [int(y) for y in ys]
    if not xs or not ys:
        raise StrategyError("question subsets must be nonempty")
    if any(not (0 <= x < s.m) for x in xs) or any(not (0 <= y < s.n) for y in ys):
        raise StrategyError(f"question subsets ({xs},{ys}) out of range")
    return Strategy(
        dA=s.dA,
        dB=s.dB,
        state=s.state,
        alice_meas=[s.alice_meas[x] for x in xs],
        bob_meas=[s.bob_meas[y] for y in ys],
    )


def direct_sum_strategies(blocks: Sequence[tuple[float, Strategy]]) -> Strategy:
    """Embed strategies block-diagonally with contiguous answer ranges.

    The combined state is the weighted orthogonal sum of the block states
    (weight w contributes amplitude sqrt(w)); each block's answers keep their
    declaration order.  Inducing the result gives the direct sum of the
    induced block correlations with the same weights.
    """
    if not blocks:
        raise StrategyError("direct_sum_strategies requires at least one block")
    weights = [float(w) for w, _ in blocks]
    parts = [s for _, s in blocks]
    if any(w < 0.0 for w in weights):
        raise StrategyError("weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise StrategyError(f"weights must sum to 1, got {sum(weights)!r}")
    m, n = parts[0].m, parts[0].n
    if any((s.m, s.n) != (m, n) for s in parts):
        raise StrategyError("blocks must share question counts")
    dA = sum(s.dA for s in parts)
    dB = sum(s.dB for s in parts)
    psi = np.zeros((dA, dB), dtype=complex)
    oa = ob = 0
    offsets = []
    for w, s in zip(weights, parts):
        psi[oa : oa + s.dA, ob : ob + s.dB] = np.sqrt(w) * s.state_matrix()
        offsets.append((oa, ob))
        oa += s.dA
        ob += s.dB

    alice_meas = []
    for x in range(m):
        elements = []
        for (oa_i, _), s in zip(offsets, parts):
            for a in range(s.r):
                emb = np.zeros((dA, dA), dtype=complex)
                emb[oa_i : oa_i + s.dA, oa_i : oa_i + s.dA] = s.alice_meas[x][a]
                elements.append(emb)
        alice_meas.append(elements)
    bob_meas = []
    for y in range(n):
        elements = []
        for (_, ob_i), s in zip(offsets, parts):
            for b in range(s.s):
                emb = np.zeros((dB, dB), dtype=complex)
                emb[ob_i : ob_i + s.dB, ob_i : ob_i + s.dB] = s.bob_meas[y][b]
                elements.append(emb)
        bob_meas.append(elements)
    return Strategy(dA=dA, dB=dB, state=psi.reshape(-1), alice_meas=alice_meas, bob_meas=bob_meas)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def _random_measurements(
    rng: np.random.Generator, dim: int, questions: int, answers: int
) -> list[list[np.ndarray]]:
    """One Haar-random projective measurement per question, split as in :func:`random_strategy`."""
    sizes = [dim // answers + (1 if i < dim % answers else 0) for i in range(answers)]
    out = []
    for _ in range(questions):
        u = haar_unitary(rng, dim)
        elements = []
        col = 0
        for size in sizes:
            block = u[:, col : col + size]
            elements.append(block @ block.conj().T)
            col += size
        out.append(elements)
    return out


def random_strategy(
    rng: np.random.Generator,
    dA: int = 2,
    dB: int = 2,
    m: int = 2,
    n: int = 2,
    r: int = 2,
    s: int = 2,
) -> Strategy:
    """Haar-random pure state with random projective measurements.

    Eigenspace dimensions are split as evenly as possible over the answers;
    when there are more answers than dimensions the trailing answers get zero
    projectors (still a valid projective measurement).
    """
    state = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
    state /= np.linalg.norm(state)
    return Strategy(
        dA=dA,
        dB=dB,
        state=state,
        alice_meas=_random_measurements(rng, dA, m, r),
        bob_meas=_random_measurements(rng, dB, n, s),
    )
