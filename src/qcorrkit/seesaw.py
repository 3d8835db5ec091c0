"""See-saw search for the best fixed-dimension approximation to a correlation.

Alternating minimization of the squared Euclidean distance between a target
table and the correlation of a dimension-d model.  The iterate is kept in
relaxed form (a mixed state on C^d (x) C^d and one POVM per question) so
every block subproblem is a convex quadratic.  Both kinds of block run one
pairwise Frank-Wolfe core (away steps, exact line search, pruning of spent
atoms) and differ only in their linear-minimization oracle and atoms:

* state block: atoms are pure states, and the oracle returns the smallest
  eigenvector of the gradient, formed as sum_xa A_x^a (x) C_xa by matmuls,
  from its eigenvalues and one shifted solve against a fixed random probe;
* measurement block: atoms are whole POVMs of one question, and the oracle
  returns a projective measurement: the best Helstrom split of one outcome
  pair, polished by two-outcome exchanges.  It is exact over projective
  measurements when min(r, d) <= 2 and over all POVMs when r = 2; beyond
  that no optimality gap is certified.

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
from .strategy import Strategy, _atom_image, _frozen, _random_measurements

__all__ = [
    "SeesawConfig",
    "SeesawResult",
    "RestartTrace",
    "SeesawError",
    "optimize",
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
        if np.isnan(self.convergence_tol):
            raise SeesawError("convergence_tol must be a number, got nan")


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
    (questions, answers, d, d).  ``strategy`` is populated only under
    projective rounding; its dilated dimensions are reported separately from
    the search dimension.
    """

    distance: float
    rho: np.ndarray
    alice_povms: np.ndarray
    bob_povms: np.ndarray
    traces: list[RestartTrace]
    config: SeesawConfig
    converged: bool
    strategy: Strategy | None = None

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
            "dilated_dims": [self.strategy.dA, self.strategy.dB] if self.strategy else None,
        }


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def _realign(rho: np.ndarray, d: int, e: int) -> np.ndarray:
    # per restart R[(k,i),(l,j)] = rho[(i,j),(k,l)], so tr[rho (A (x) B)] = vec(A) . R . vec(B)
    return rho.reshape(-1, d, e, d, e).transpose(0, 3, 1, 4, 2).reshape(-1, d * d, e * e)


def _reduced(ops: np.ndarray, realigned: np.ndarray) -> np.ndarray:
    # row k is vec tr_A[rho (O_k (x) I)]^T for each restart's O_k; realigned^T traces out B
    return ops.reshape(len(realigned), -1, realigned.shape[1]) @ realigned


def _all_probs(rho: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    # p[(x,a),(y,b)] = Re tr[rho (A_x^a (x) B_y^b)] as two GEMMs on each realigned rho
    d, e = alice.shape[-1], bob.shape[-1]
    left = _reduced(alice, _realign(rho, d, e))
    return np.real(left @ bob.reshape(len(rho), -1, e * e).swapaxes(1, 2))


def _state_grad(res: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    # sum res[(x,a),(y,b)] A_x^a (x) B_y^b = sum_xa A_x^a (x) C_xa with C = res @ B
    num, d, e = len(res), alice.shape[-1], bob.shape[-1]
    a_ops, b_ops = alice.reshape(num, -1, d * d), bob.reshape(num, -1, e * e)
    grad = a_ops.swapaxes(1, 2) @ (res.reshape(num, a_ops.shape[1], -1) @ b_ops)
    return grad.reshape(num, d, d, e, e).transpose(0, 1, 3, 2, 4).reshape(num, d * e, d * e)


def _pairwise_fw(
    atoms: np.ndarray, weights: np.ndarray, images: np.ndarray, res: np.ndarray,
    lmo: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise conditional gradient, one independent block per row.

    Row i's iterate is sum_j weights[i, j] * atoms[i, j] and images[i, j] is
    atom j's image in residual space, so its objective is ||res[i]||^2 (res
    the iterate's image minus the targets) and its gradient pairs with any
    point as 2 res . image.  ``lmo(res)`` returns each row's minimizing vertex
    and its image.  Each step takes the better, by exact line search, of a
    pairwise swap from the worst active atom onto the vertex and a plain step
    toward it; away steps avoid zigzag stalls near low-rank optima.  Each step
    fills one slot per row: spent atoms keep weight 0 and are never the away
    atom, and a stopped row takes zero steps.  Atoms are opaque here.
    """
    (num, start), rows = weights.shape, np.arange(len(weights))
    atoms, weights, images = (
        np.concatenate([arr, np.zeros((num, steps) + arr.shape[2:], arr.dtype)], axis=1)
        for arr in (atoms, weights, images)
    )
    cur_img = (weights[:, None] @ images)[:, 0]
    live = np.ones(num, dtype=bool)
    # candidate steps, pairwise then plain, and their caps; the plain cap stays 1
    cand, caps = np.empty((2,) + res.shape), np.ones((2, num))
    for slot in range(start, start + steps):
        scores = np.where(weights > 0.0, (images @ res[:, :, None])[:, :, 0], -np.inf)
        top = scores.max(1, keepdims=True)
        # the atom that gave weight ties the new one, so near-ties go to the oldest
        away = np.argmax(scores >= top - 1e-12 * np.abs(top), axis=1)
        vertex, v_img = lmo(res)
        np.subtract(v_img, images[rows, away], out=cand[0])
        np.subtract(v_img, cur_img, out=cand[1])
        caps[0] = weights[rows, away]
        # minimize ||res + gamma*step||^2 over gamma in [0, cap]
        denom, slope = (cand * cand).sum(2), (cand * res).sum(2)
        # a row stops once its Frank-Wolfe gap is under 1e-6 of its objective
        live &= 2.0 * slope[1] <= -1e-6 * np.maximum((res * res).sum(1), 1e-120)
        gamma = np.where(denom > 0.0, np.clip(-slope / np.maximum(denom, 1e-300), 0.0, caps), 0.0)
        gain = -gamma * slope - 0.5 * gamma**2 * denom
        pairwise = gain[0] >= gain[1]
        gamma = np.where(pairwise, gamma[0], gamma[1])
        live &= gamma > 0.0
        if not live.any():
            break
        gamma = np.where(live, gamma, 0.0)
        weights[rows, away] -= np.where(pairwise, gamma, 0.0)
        weights *= np.where(pairwise, 1.0, 1.0 - gamma)[:, None]
        weights[:, slot], atoms[:, slot], images[:, slot] = gamma, vertex, v_img
        step = gamma[:, None] * np.where(pairwise[:, None], cand[0], cand[1])
        res, cur_img = res + step, cur_img + step
        weights[weights <= 1e-15] = 0.0
    return atoms, weights, res


def _min_eigvec(grads: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Unit smallest eigenvector of each Hermitian matrix in a (batch, n, n) stack.

    One step of inverse iteration from ``probe`` after eigvalsh: a shift of
    tau = 4096 eps max|lambda| below lambda_min (max|lambda| = 1 for a zero
    matrix) damps every other eigendirection by tau over its gap, and clears
    the few eps max|lambda| by which lambda_min and the last LU pivot are
    off.  eigvalsh reads one triangle, so nothing needs Hermitization.
    """
    evals, n = np.linalg.eigvalsh(grads), grads.shape[-1]
    # max |lambda| sits at one end of the ascending spectrum
    scale = np.maximum(-evals[:, 0], evals[:, -1])
    tau = 4096 * np.finfo(float).eps * np.where(scale > 0.0, scale, 1.0)
    shifted = grads - (evals[:, 0] - tau)[:, None, None] * np.eye(n)
    # the right-hand side is scaled by tau, so the solution keeps about the probe's size
    vecs = np.linalg.solve(shifted, (tau[:, None] * probe)[:, :, None])[:, :, 0]
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _state_block(
    rho: np.ndarray, res: np.ndarray, alice: np.ndarray, bob: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional gradient over density operators, one restart per row.

    Atoms are pure-state vectors; ``res`` is each restart's residual in (x, a,
    y, b) order.  No A_x^a (x) B_y^b is formed: an atom's image is a batched
    V^+ A V against Bob's stack, and the gradient is sum_xa A_x^a (x) C_xa with
    C = res @ B, whose smallest eigenvector solves the linear subproblem.
    """

    # a structured probe can miss the answer: all-ones is orthogonal to the singlet
    probe = np.array([1.0, 1j]) @ np.random.default_rng(0).normal(size=(2, rho.shape[-1]))

    def lmo(res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vecs = _min_eigvec(_state_grad(2.0 * res, alice, bob), probe)
        return vecs, _atom_image(vecs[:, None], alice, bob).real[:, 0]

    evals, evecs = np.linalg.eigh(_hermitize(rho))
    # eigh sorts ascending: the top columns hold every restart's kept eigenvectors
    rank = int(np.count_nonzero(evals > 1e-14, axis=1).max())
    atoms, evals = evecs[:, :, -rank:].swapaxes(1, 2), evals[:, -rank:]
    weights = np.where(evals > 1e-14, evals, 0.0)
    images = _atom_image(atoms, alice, bob).real
    atoms, weights, res = _pairwise_fw(atoms, weights, images, res, lmo, steps)
    return _hermitize((atoms.swapaxes(1, 2) * weights[:, None]) @ atoms.conj()), res


def _povm_vertex(grads: np.ndarray) -> np.ndarray:
    """Linear subproblem over POVMs, for a (batch, r, d, d) stack of gradients.

    Starts from the best two-outcome split: for outcomes a < b, Helstrom's
    E_a = negative eigenspace of G_a - G_b and E_b = I - E_a minimize
    tr(G_a E_a + G_b E_b) over all two-outcome POVMs, at value tr G_b plus
    the negative eigenvalues of G_a - G_b.  A projective measurement with
    min(r, d) <= 2 has at most two nonzero outcomes, so there this start is
    the exact projective optimum, and for r = 2 the exact optimum over all
    POVMs; it is returned as it is.  Otherwise the start is polished with
    exact two-outcome exchanges on the span each outcome pair owns.  A row
    stops after the first sweep that moves no rank, and every row after two.
    """
    num, r, dim = grads.shape[:3]
    eye = np.eye(dim)
    if r == 1:
        return np.broadcast_to(eye, grads.shape).astype(complex, order="C")
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    first, second = (np.array(idx) for idx in zip(*pairs))
    diffs = grads[:, first] - grads[:, second]
    evals, evecs = np.linalg.eigh(diffs)
    values = np.trace(grads, axis1=2, axis2=3).real[:, second] + np.minimum(evals, 0.0).sum(2)
    best, rows = np.argmin(values, axis=1), np.arange(num)
    vecs, neg = evecs[rows, best], evals[rows, best] < 0.0
    low = (vecs * neg[:, None]) @ vecs.conj().swapaxes(1, 2)
    elems = np.zeros(grads.shape, dtype=complex)
    elems[rows, first[best]], elems[rows, second[best]] = low, eye - low
    if min(r, dim) <= 2:
        return elems

    # H = P diff P + c (I - P) with c > ||diff||: its negative eigenspace lies in span P
    shifts = 1.0 + np.linalg.norm(diffs, axis=(2, 3))[:, :, None, None]
    for _ in range(2):
        moved = np.zeros(len(rows), dtype=bool)
        for k, (a, b) in enumerate(pairs):
            diff, span = diffs[rows, k], elems[rows, a] + elems[rows, b]
            evals, evecs = np.linalg.eigh(span @ diff @ span + shifts[rows, k] * (eye - span))
            neg = evals < 0.0
            low = (evecs * neg[:, None]) @ evecs.conj().swapaxes(1, 2)
            moved |= neg.sum(1) != np.rint(np.trace(elems[rows, a], axis1=1, axis2=2).real)
            elems[rows, a], elems[rows, b] = low, span - low
        # the second sweep polishes only the rows whose first sweep moved a rank
        rows = rows[moved]
        if not len(rows):
            break
    return elems


def _povm_block(
    povms: np.ndarray, reduced: np.ndarray, targets: np.ndarray, steps: int
) -> np.ndarray:
    """Conditional gradient over POVMs, one question of one restart per row.

    ``povms`` is (restarts, questions, r, d, d), and ``reduced`` stacks each
    restart's Hermitian partial traces for the opposite side's (question,
    answer) pairs.  Question x's objective is sum_(a,k) (tr(E_x^a reduced_k)
    - targets[x,a,k])^2.  Atoms are whole POVMs: the entering one, then
    projective vertices.
    """
    num, q, r, d = povms.shape[:4]
    # Re tr(E R) = Re vec(E) . conj(vec(R)) for Hermitian R: a real GEMM on float views
    red = reduced.reshape(num, 1, -1, d * d).view(float)

    def image(elements: np.ndarray) -> np.ndarray:
        flat = elements.reshape(num, q, r, -1).view(float)
        return (flat @ red.swapaxes(2, 3)).reshape(num * q, -1)

    def lmo(res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grads = (2.0 * res.reshape(num, q, r, -1) @ red).view(complex)
        vertex = _povm_vertex(_hermitize(grads.reshape(num * q, r, d, d)))
        return vertex, image(vertex)

    img = image(povms)
    res = (img.reshape(num, q, -1) - targets.reshape(q, -1)).reshape(img.shape)
    atoms = povms.reshape(num * q, 1, r, d, d)
    atoms, weights, _ = _pairwise_fw(atoms, np.ones((num * q, 1)), img[:, None], res, lmo, steps)
    mixed = weights[:, None] @ atoms.reshape(num * q, weights.shape[1], -1)
    return _hermitize(mixed.reshape(povms.shape))


def optimize(target: Correlation, cfg: SeesawConfig) -> SeesawResult:
    """Search for the dimension-d model closest to the target in l2.

    Runs ``cfg.restarts`` searches in lockstep, each from its own Haar-random
    pure state and random projective measurements drawn from its own seed,
    alternating state and per-question measurement blocks until the
    improvement drops below ``cfg.convergence_tol`` or the iteration budget
    runs out; a converged restart leaves the lockstep and is not touched
    again.  With ``polish_iters`` set, the best restart then continues for
    that many extra outer iterations.  Restarts that hit the budget are
    flagged as non-converged but still contribute their best iterate.
    """
    d = cfg.local_dim
    m, n, r, s = target.shape
    # targets laid out as (x, a) rows and (y, b) columns, like every residual
    t_ab = target.table.transpose(0, 2, 1, 3).reshape(m * r, n * s)

    starts = []
    for seed in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        vec /= np.linalg.norm(vec)
        alice = _random_measurements(rng, d, m, r)
        starts.append((np.outer(vec, vec.conj()), alice, _random_measurements(rng, d, n, s)))
    rho, alice, bob = (np.array(arrays) for arrays in zip(*starts))
    res = (_all_probs(rho, alice, bob) - t_ab).reshape(cfg.restarts, -1)
    traces = [RestartTrace(k, [float(np.sqrt((res[k] ** 2).sum()))]) for k in range(cfg.restarts)]
    # Alice's blocks pair with tr_B[rho (I (x) B_y^b)], Bob's with tr_A[rho (A_x^a (x) I)]
    # taken after Alice's blocks moved; conj() undoes _reduced's transpose
    sides = ((alice, bob, (0, 2, 1), t_ab.reshape(m, r, n * s)),
             (bob, alice, (0, 1, 2), t_ab.reshape(m * r, n, s).transpose(1, 2, 0)))

    def descend(live: list[int], iters: int) -> None:
        # outer iterations, each ending on the residual that seeds the next
        for _ in range(iters):
            idx = np.array(live)
            rho[idx] = _state_block(rho[idx], res[idx], alice[idx], bob[idx], cfg.state_steps)[0]
            realigned = _realign(rho[idx], d, d)
            for meas, other, axes, targets in sides:
                traced = _reduced(other[idx], realigned.transpose(axes))
                reduced = _hermitize(traced.reshape(len(idx), -1, d, d)).conj()
                meas[idx] = _povm_block(meas[idx], reduced, targets, cfg.meas_steps)
            res[idx] = (_all_probs(rho[idx], alice[idx], bob[idx]) - t_ab).reshape(len(idx), -1)
            for k in idx:
                trace = traces[k]
                trace.objectives.append(float(np.sqrt((res[k] ** 2).sum())))
                trace.iterations += 1
                if trace.objectives[-2] - trace.objectives[-1] < cfg.convergence_tol:
                    trace.converged = True
                    live.remove(k)
            if not live:
                break

    descend(list(range(cfg.restarts)), cfg.max_outer_iters)
    best = min(range(cfg.restarts), key=lambda k: traces[k].objectives[-1])
    descend([best], cfg.polish_iters)
    rho, alice, bob = rho[best], alice[best], bob[best]
    result = SeesawResult(
        distance=traces[best].objectives[-1], rho=rho, alice_povms=alice, bob_povms=bob,
        traces=traces, config=cfg, converged=traces[best].converged,
    )
    if cfg.rounding == "projective":
        result.strategy = _round_to_projective(rho, alice, bob)
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


def _round_to_projective(rho: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> Strategy:
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
    return Strategy(
        dA=da_dilated,
        dB=db_dilated,
        state=state.reshape(-1),
        alice_meas=alice_proj,
        bob_meas=bob_proj,
    )
