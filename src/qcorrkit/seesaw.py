"""See-saw search for the best fixed-dimension approximation to a correlation.

Alternating minimization of the squared Euclidean distance between a target
table and the correlation of a dimension-d model.  The iterate is kept in
relaxed form (a mixed state on C^d (x) C^d and one POVM per question) so
every block subproblem is a convex quadratic.  Both kinds of block run one
pairwise Frank-Wolfe core (away steps, exact line search, pruning of spent
atoms) and differ only in their linear-minimization oracle and atoms:

* state block: atoms are pure states, and the oracle returns the smallest
  eigenvector of the gradient, formed as sum_xa A_x^a (x) C_xa by matmuls;
* measurement block: atoms are whole POVMs of one question, and the oracle
  returns a projective measurement that assigns, eigen-direction by
  eigen-direction of the gradient, full weight to the minimizing outcome.

Exact line search keeps the objective non-increasing across every step.
Results are heuristic upper bounds on the true infimum; no optimality
certificate is produced.  On request the relaxed iterate is rounded to an
honest projective strategy on a larger space (purification plus one ancilla
register per side), which reproduces its correlation exactly.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .correlation import Correlation
from .separating import truncation_distance
from .strategy import Strategy, _atom_image, _frozen, _random_measurements

__all__ = [
    "SeesawConfig",
    "SeesawResult",
    "RestartTrace",
    "SeesawError",
    "optimize",
    "upper_bound_from_truncation",
]


class SeesawError(ValueError):
    """Invalid configuration or target for the see-saw search."""


@dataclass(frozen=True)
class SeesawConfig:
    """Knobs for one search run.

    ``local_dim`` is the per-party dimension d of the relaxed model.  Only
    the Euclidean metric is supported: the objective must stay a quadratic
    for the block subproblems to be convex.  ``rounding="projective"``
    additionally returns a strategy on the dilated space.
    """

    local_dim: int
    max_outer_iters: int = 80
    restarts: int = 10
    seed: int = 0
    convergence_tol: float = 1e-10
    rounding: str = "none"
    state_steps: int = 40
    meas_steps: int = 12
    polish_iters: int = 0

    def __post_init__(self) -> None:
        if self.local_dim < 1:
            raise SeesawError(f"local_dim must be >= 1, got {self.local_dim}")
        if self.max_outer_iters < 1 or self.restarts < 1:
            raise SeesawError("max_outer_iters and restarts must be >= 1")
        if self.rounding not in ("none", "projective"):
            raise SeesawError(f"unknown rounding mode {self.rounding!r}")
        if self.state_steps < 1 or self.meas_steps < 1:
            raise SeesawError("state_steps and meas_steps must be >= 1")
        if self.polish_iters < 0:
            raise SeesawError("polish_iters must be >= 0")


@dataclass
class RestartTrace:
    restart: int
    objectives: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


@dataclass(eq=False)
class SeesawResult:
    """Best relaxed iterate over all restarts, plus per-restart traces.

    ``distance`` is the Euclidean distance of the best iterate's correlation
    from the target.  ``alice_povms`` and ``bob_povms`` have shape
    (questions, answers, d, d).  ``strategy`` (and ``dilated_dims``) are
    populated only under projective rounding; the dilated dimensions are
    reported separately from the search dimension.
    """

    distance: float
    rho: np.ndarray
    alice_povms: np.ndarray
    bob_povms: np.ndarray
    traces: list[RestartTrace]
    config: SeesawConfig
    converged: bool
    strategy: Strategy | None = None
    dilated_dims: tuple[int, int] | None = None

    def trace_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["restart", "iter", "objective"])
        for trace in self.traces:
            for i, obj in enumerate(trace.objectives):
                writer.writerow([trace.restart, i, repr(float(obj))])
        return buf.getvalue()

    def summary_dict(self) -> dict:
        return {
            "distance": self.distance,
            "local_dim": self.config.local_dim,
            "restarts": self.config.restarts,
            "converged": self.converged,
            "iterations": [t.iterations for t in self.traces],
            "final_objectives": [t.objectives[-1] for t in self.traces],
            "dilated_dims": list(self.dilated_dims) if self.dilated_dims else None,
        }


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def _realign(rho: np.ndarray, d: int, e: int) -> np.ndarray:
    # R[(k,i),(l,j)] = rho[(i,j),(k,l)], so tr[rho (A (x) B)] = vec(A) . R . vec(B)
    return rho.reshape(d, e, d, e).transpose(2, 0, 3, 1).reshape(d * d, e * e)


def _reduced(ops: np.ndarray, realigned: np.ndarray) -> np.ndarray:
    # row k is vec tr_A[rho (O_k (x) I)]^T for a stack of O_k; realigned.T traces out B
    return ops.reshape(-1, realigned.shape[0]) @ realigned


def _all_probs(rho: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    # p[(x,a),(y,b)] = Re tr[rho (A_x^a (x) B_y^b)] as two GEMMs on the realigned rho
    d, e = alice.shape[-1], bob.shape[-1]
    return np.real(_reduced(alice, _realign(rho, d, e)) @ bob.reshape(-1, e * e).T)


def _state_grad(res: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    # sum res[(x,a),(y,b)] A_x^a (x) B_y^b = sum_xa A_x^a (x) C_xa with C = res @ B
    (m, r, d, _), (n, s, e, _) = alice.shape, bob.shape
    grad = alice.reshape(m * r, d * d).T @ (res.reshape(m * r, n * s) @ bob.reshape(n * s, e * e))
    return grad.reshape(d, d, e, e).transpose(0, 2, 1, 3).reshape(d * e, d * e)


def _pairwise_fw(
    atoms: list,
    weights,
    images,
    res: np.ndarray,
    lmo: Callable[[np.ndarray], tuple[object, np.ndarray]],
    steps: int,
) -> tuple[list, np.ndarray, np.ndarray]:
    """Pairwise conditional gradient over the convex hull of a block's atoms.

    The iterate is sum_j weights[j] * atoms[j] and images[j] is atom j's image
    in residual space, so the block objective is ||res||^2 with res the
    iterate's image minus the targets and its gradient pairs with any point
    as 2 res . image.  ``lmo(res)`` returns the vertex minimizing that
    pairing and its image.  Each step takes the better, by exact line search,
    of a pairwise swap from the worst active atom onto the vertex and a plain
    step toward it; away steps avoid the zigzag stalls of the plain method
    near low-rank optima.  Atoms are opaque here: the caller assembles the
    final iterate from the returned atoms and weights.
    """
    weights = np.array(weights, dtype=float)
    images = np.array(images)
    cur_img = weights @ images
    for _ in range(steps):
        vertex, v_img = lmo(res)
        step_fw = v_img - cur_img
        # stop once the Frank-Wolfe gap is under 1e-6 of the objective
        if 2.0 * float(res @ step_fw) > -1e-6 * max(float(res @ res), 1e-120):
            break
        away = int(np.argmax(images @ res))
        # minimize ||res + gamma*step||^2 over gamma in [0, cap]
        candidates = []
        for step, cap in ((v_img - images[away], weights[away]), (step_fw, 1.0)):
            denom, slope = float(step @ step), float(res @ step)
            gamma = 0.0 if denom <= 0.0 else min(cap, max(0.0, -slope / denom))
            candidates.append((-gamma * slope - 0.5 * gamma**2 * denom, gamma, step))
        pairwise = candidates[0][0] >= candidates[1][0]
        _, gamma, step = candidates[0] if pairwise else candidates[1]
        if gamma <= 0.0:
            break
        if pairwise:
            weights[away] -= gamma
        else:
            weights *= 1.0 - gamma
        atoms.append(vertex)
        weights = np.append(weights, gamma)
        images = np.vstack([images, v_img])
        res = res + gamma * step
        cur_img = cur_img + gamma * step
        keep = weights > 1e-15
        atoms = [atom for atom, k in zip(atoms, keep) if k]
        weights, images = weights[keep], images[keep]
    return atoms, weights, res


def _state_block(
    rho: np.ndarray, res: np.ndarray, alice: np.ndarray, bob: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional gradient over density operators; atoms are pure-state vectors.

    ``res`` is the residual in (x, a, y, b) order.  No A_x^a (x) B_y^b is
    formed: an atom's image is a batched V^+ A V against Bob's stack, and the
    gradient is sum_xa A_x^a (x) C_xa with C = res @ B.  The linear subproblem
    min <grad, sigma> over densities is solved by the smallest eigenvector of
    the gradient.
    """

    def lmo(res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # eigh reads one triangle, so the gradient needs no Hermitization
        vec = np.linalg.eigh(_state_grad(2.0 * res, alice, bob))[1][:, 0]
        return vec, _atom_image(vec, alice, bob).real

    evals, evecs = np.linalg.eigh(_hermitize(rho))
    keep = evals > 1e-14
    atoms = list(evecs[:, keep].T)
    images = [_atom_image(v, alice, bob).real for v in atoms]
    atoms, weights, res = _pairwise_fw(atoms, evals[keep], images, res, lmo, steps)
    vecs = np.array(atoms).T
    return _hermitize((vecs * weights) @ vecs.conj().T), res


def _povm_vertex(grads: np.ndarray, sweeps: int = 2) -> np.ndarray:
    """Linear subproblem over one question's POVM set, for (r, d, d) gradients.

    Builds an orthonormal basis greedily (eigen-direction by eigen-direction
    of the gradient blocks, each given full weight on its minimizing
    outcome), then polishes the assignment with exact two-outcome exchanges:
    restricted to the span owned by any outcome pair, the optimal split is
    the negative/nonnegative eigenspace split of the restricted gradient
    difference.
    """
    num_out, dim = grads.shape[:2]
    basis = np.eye(dim, dtype=complex)
    cols: list[list[np.ndarray]] = [[] for _ in range(num_out)]
    while basis.shape[1] > 0:
        evals, evecs = np.linalg.eigh(_hermitize(basis.conj().T @ grads @ basis))
        a = int(np.argmin(evals[:, 0]))
        cols[a].append(basis @ evecs[a, :, 0])
        basis = basis @ evecs[a, :, 1:]
    owners = [np.array(c, dtype=complex).reshape(-1, dim).T for c in cols]

    for _ in range(sweeps):
        improved = False
        for a in range(num_out):
            for b in range(a + 1, num_out):
                span = np.hstack([owners[a], owners[b]])
                if span.shape[1] == 0:
                    continue
                evals, evecs = np.linalg.eigh(
                    _hermitize(span.conj().T @ (grads[a] - grads[b]) @ span)
                )
                neg = evals < 0.0
                if np.count_nonzero(neg) != owners[a].shape[1]:
                    improved = True
                owners[a], owners[b] = span @ evecs[:, neg], span @ evecs[:, ~neg]
        if not improved:
            break
    return np.array([o @ o.conj().T for o in owners])


def _povm_block(
    povm: np.ndarray, reduced: np.ndarray, targets: np.ndarray, steps: int
) -> np.ndarray:
    """Conditional gradient over one question's POVM; atoms are whole POVMs.

    ``reduced`` stacks the Hermitian partial-trace operators for the opposite
    side's (question, answer) pairs; the block objective is
    sum_(a,k) (tr(E^a reduced_k) - targets[a,k])^2.  The entering POVM is the
    first atom, and every later atom is a projective vertex.
    """

    def image(elements: np.ndarray) -> np.ndarray:
        return np.real(np.einsum("aij,kji->ak", elements, reduced)).reshape(-1)

    def lmo(res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grads = np.einsum("ak,kij->aij", 2.0 * res.reshape(len(povm), -1), reduced)
        vertex = _povm_vertex(_hermitize(grads))
        return vertex, image(vertex)

    img = image(povm)
    atoms, weights, _ = _pairwise_fw(
        [povm], [1.0], [img], img - targets.reshape(-1), lmo, steps
    )
    return _hermitize(np.tensordot(weights, np.array(atoms), axes=1))


def optimize(target: Correlation, cfg: SeesawConfig) -> SeesawResult:
    """Search for the dimension-d model closest to the target in l2.

    Runs ``cfg.restarts`` independent searches from Haar-random pure states
    and random projective measurements, alternating state and per-question
    measurement blocks until the improvement drops below
    ``cfg.convergence_tol`` or the iteration budget runs out; with
    ``polish_iters`` set, the best restart then continues for that many
    extra outer iterations.  Restarts that hit the budget are flagged as
    non-converged but still contribute their best iterate.
    """
    d = cfg.local_dim
    m, n, r, s = target.shape
    # targets laid out as (x, a) rows and (y, b) columns, like every residual
    t_ab = target.table.transpose(0, 2, 1, 3).reshape(m * r, n * s)

    def descend(rho, alice, bob, res, trace, iters):
        # outer iterations, each ending on the residual that seeds the next
        for _ in range(iters):
            rho, res = _state_block(rho, res.reshape(-1), alice, bob, cfg.state_steps)
            realigned = _realign(rho, d, d)
            # tr_B[rho (I (x) B_y^b)] for every (y, b); Alice's blocks leave them fixed
            reduced = _hermitize(_reduced(bob, realigned.T).reshape(n * s, d, d)).conj()
            for x, block_targets in enumerate(t_ab.reshape(m, r, n * s)):
                alice[x] = _povm_block(alice[x], reduced, block_targets, cfg.meas_steps)
            # tr_A[rho (A_x^a (x) I)] for every (x, a); conj() undoes _reduced's transpose
            reduced = _hermitize(_reduced(alice, realigned).reshape(m * r, d, d)).conj()
            for y, block_targets in enumerate(t_ab.reshape(m * r, n, s).transpose(1, 2, 0)):
                bob[y] = _povm_block(bob[y], reduced, block_targets, cfg.meas_steps)
            res = _all_probs(rho, alice, bob) - t_ab
            trace.objectives.append(float(np.sqrt((res**2).sum())))
            trace.iterations += 1
            if trace.objectives[-2] - trace.objectives[-1] < cfg.convergence_tol:
                trace.converged = True
                break
        return rho, res

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    traces: list[RestartTrace] = []
    best = None  # (rho, alice, bob, res, trace)
    for k in range(cfg.restarts):
        rng = np.random.default_rng(seeds[k])
        vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        alice = _random_measurements(rng, d, m, r)
        bob = _random_measurements(rng, d, n, s)

        trace = RestartTrace(restart=k)
        res = _all_probs(rho, alice, bob) - t_ab
        trace.objectives.append(float(np.sqrt((res**2).sum())))
        rho, res = descend(rho, alice, bob, res, trace, cfg.max_outer_iters)
        traces.append(trace)
        if best is None or trace.objectives[-1] < best[-1].objectives[-1]:
            best = (rho, alice, bob, res, trace)

    assert best is not None
    rho, alice, bob, res, best_trace = best
    rho, _ = descend(rho, alice, bob, res, best_trace, cfg.polish_iters)
    result = SeesawResult(
        distance=best_trace.objectives[-1],
        rho=rho,
        alice_povms=alice,
        bob_povms=bob,
        traces=traces,
        config=cfg,
        converged=best_trace.converged,
    )
    if cfg.rounding == "projective":
        strategy, dims = _round_to_projective(rho, alice, bob)
        result.strategy = strategy
        result.dilated_dims = dims
    return result


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(_hermitize(mat))
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def _naimark(povms: np.ndarray) -> np.ndarray:
    """Projective dilations of (questions, r, dim, dim) POVMs onto C^dim (x) C^r.

    Each question gets a unitary sending |phi>|0> to sum_a sqrt(E^a)|phi>|a>;
    conjugating the ancilla projectors through it yields projective elements
    that reproduce the POVM statistics on states with the ancilla at |0>.
    """
    num_q, num_out, dim = povms.shape[:3]
    big = dim * num_out
    ancilla = np.arange(big) % num_out
    anc_projs = np.array([np.diag((ancilla == a).astype(complex)) for a in range(num_out)])
    dilated = np.empty((num_q, num_out, big, big), dtype=complex)
    for x, elements in enumerate(povms):
        # row i*num_out + a of w is row i of sqrt(E^a)
        w = np.stack([_sqrtm_psd(e) for e in elements], axis=1).reshape(big, dim)
        # complete the isometry's columns to a unitary
        q, _ = np.linalg.qr(np.concatenate([w, np.eye(big, dtype=complex)], axis=1))
        u = np.empty((big, big), dtype=complex)
        cols = u.reshape(big, dim, num_out)
        cols[:, :, 0] = w
        cols[:, :, 1:] = q[:, dim:big].reshape(big, dim, num_out - 1)
        dilated[x] = u.conj().T @ anc_projs @ u
    return _frozen(dilated)


def _round_to_projective(
    rho: np.ndarray, alice: np.ndarray, bob: np.ndarray
) -> tuple[Strategy, tuple[int, int]]:
    """Purify the state (ancilla to Bob) and dilate both parties' POVMs.

    The rounded strategy induces exactly the correlation of the relaxed
    iterate, at local dimensions (d*r, d*k*s) with k the state rank.
    """
    d2 = rho.shape[0]
    d = int(round(np.sqrt(d2)))
    evals, evecs = np.linalg.eigh(_hermitize(rho))
    keep = evals > 1e-12
    lam = evals[keep]
    vecs = evecs[:, keep]
    k = int(lam.size)
    # psi[(i), (j, c)] with Bob keeping the purifying register
    psi = (vecs * np.sqrt(lam)).reshape(d, d, k).reshape(d, d * k)
    # B (x) I_k for every element
    n, s = bob.shape[:2]
    bob_big = (bob[:, :, :, None, :, None] * np.eye(k)[:, None, :]).reshape(n, s, d * k, d * k)

    alice_proj = _naimark(alice)
    bob_proj = _naimark(bob_big)
    da_dilated, db_dilated = alice_proj.shape[-1], bob_proj.shape[-1]
    state = np.zeros((da_dilated, db_dilated), dtype=complex)
    state[:: alice.shape[1], ::s] = psi
    strategy = Strategy(
        dA=da_dilated,
        dB=db_dilated,
        state=state.reshape(-1),
        alice_meas=alice_proj,
        bob_meas=bob_proj,
    )
    return strategy, (da_dilated, db_dilated)


def upper_bound_from_truncation(alpha: float, d: int, metric: str = "l2") -> float:
    """Constructive upper bound at even local dimension d from the ideal cut.

    The dimension-d truncation of the ideal strategy is itself a feasible
    dimension-d model, so its distance to the exact correlation bounds the
    optimum from above; a regression target for :func:`optimize` in l2.
    """
    if d % 2 != 0:
        raise SeesawError(f"d must be even, got {d}")
    if d < 4:
        raise SeesawError(f"d must be >= 4, got {d}")
    return truncation_distance(alpha, d // 2, metric)
