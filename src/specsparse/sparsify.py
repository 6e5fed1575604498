"""Iterative spectral sparsification of directed graphs.

Starting from the spanning-structure seed, each iteration scores the
off-subgraph edges by spectral sensitivity, keeps the top slice, prunes
spectrally-similar ones, tentatively adds the survivors and re-estimates the
dominant generalized eigenvalue; the addition sticks only if the eigenvalue
dropped.  Each evaluation runs ``power_iterate`` from r random starts as
one block: each step applies L_Gu = L_G L_G^T as two sparse products, through
one ``symmetrized_operator`` built per ``sparsify`` call, and makes one block
solve with the subgraph's L_Su, the only Laplacian product ever formed.  Up
to ``solver.DENSE_MAX`` active nodes that solve is direct, by the dense
Cholesky factor of L_Su; larger subgraphs are solved by PCG.
Rejected batches are blacklisted until the next accepted batch, which rules
out livelock without discarding edges forever.  Kept edges always retain
their original weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .graphs import DirectedGraph, laplacian, symmetrize, symmetrized_operator
from .seed import build_seed
from .sensitivity import filter_similar_edges, power_iterate, score_edges
from .solver import SolverParams, SpsSolver

__all__ = ["SparsifyParams", "IterationReport", "Sparsifier", "sparsify"]


@dataclass
class SparsifyParams:
    """Knobs of the sparsification loop.

    ``r`` defaults to ceil(log2 n) clamped to [4, 16].  ``mu_limit`` is the
    target for the dominant generalized eigenvalue: the loop keeps adding
    edges while the estimate exceeds it and iterations remain.
    """

    d_out: int = 10
    iter_max: int = 20
    mu_limit: float = 100.0
    alpha_percent: float = 5.0
    epsilon: float = 0.9
    t: int = 3
    r: int | None = None
    seed: int = 0
    solver: SolverParams = field(default_factory=SolverParams)

    def __post_init__(self):
        if not 0 < self.alpha_percent <= 100:
            raise ValueError("alpha_percent must lie in (0, 100]")
        if self.d_out < 1 or self.t < 1:
            raise ValueError("d_out and t must be >= 1")
        if self.r is not None and self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.iter_max < 0:
            raise ValueError("iter_max must be >= 0")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if np.isnan(self.mu_limit):
            raise ValueError("mu_limit must be a number, got nan")

    def resolve_r(self, n):
        if self.r is not None:
            return int(self.r)
        return int(np.clip(np.ceil(np.log2(max(n, 2))), 4, 16))


@dataclass
class IterationReport:
    iteration: int
    mu_max: float
    edge_ratio: float
    wall_time_seconds: float
    edges_added: int
    edges_rejected: int


@dataclass
class Sparsifier:
    """Sparsified subgraph plus provenance and per-iteration quality stats."""

    graph: DirectedGraph
    kept_edge_ids: list[int]
    iterations: list[IterationReport]
    mu_initial: float
    mu_final: float

    @property
    def edge_ratio(self):
        return self.iterations[-1].edge_ratio if self.iterations else 1.0


def _rng_for(seed, iteration):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(iteration,)))


def _evaluate(g, L_Gu, kept, r, t, solver_params, rng):
    """Estimate (mu_max, block of iterates) for the subgraph of the edges
    where the mask ``kept`` holds, against g's L_Gu (an operator); mu_max is
    the largest estimate, or 0."""
    S = g.subgraph(np.flatnonzero(kept))
    L_S = laplacian(S)
    L_Su = symmetrize(L_S)
    solver = SpsSolver(L_Su, params=solver_params)
    mu, H = power_iterate(L_Gu, L_Su, rng.uniform(-1.0, 1.0, size=(r, g.n)), t=t, solver=solver)
    # The loop keeps H across evaluations.  Made while the solver's factor
    # was alive, the block pins the top of the heap above the factor's freed
    # pages; copied after the factor is freed, it does not (clustered4k peak
    # RSS 96 MB against 89 MB).
    del solver
    return max(0.0, *mu.tolist()), H.copy(), S, L_S


def sparsify(g: DirectedGraph, params: SparsifyParams | None = None) -> Sparsifier:
    """Run the full sparsification loop on g.

    Iteration 0 records the seed subgraph; subsequent rows record each
    accept/reject decision.  The loop stops when the eigenvalue target is
    reached, the iteration budget runs out, no off-subgraph candidates
    remain, or a subgraph solve fails (partial results are returned).  The
    subgraph and the blacklist are boolean masks over g's edges.
    """
    params = params or SparsifyParams()
    seed = build_seed(g)
    m = g.num_edges
    n_seed = len(seed.kept_edge_ids)
    if n_seed == m:
        report = [IterationReport(0, 1.0, 1.0, 0.0, n_seed, 0)]
        return Sparsifier(seed.graph, seed.kept_edge_ids, report, 1.0, 1.0)
    kept = np.zeros(m, dtype=bool)
    kept[seed.kept_edge_ids] = True

    L_Gu = symmetrized_operator(laplacian(g))
    r = params.resolve_r(g.n)

    t0 = time.perf_counter()
    try:
        mu, H, S, L_S = _evaluate(
            g, L_Gu, kept, r, params.t, params.solver, _rng_for(params.seed, 0)
        )
    except RuntimeError:
        # Pencil is ill-posed (e.g. several attractor components whose null
        # spaces cannot be matched by any subgraph); hand back the seed.
        report = [IterationReport(0, np.inf, n_seed / m, time.perf_counter() - t0, n_seed, 0)]
        return Sparsifier(seed.graph, seed.kept_edge_ids, report, np.inf, np.inf)
    mu_initial = mu
    reports = [
        IterationReport(0, mu, S.num_edges / m, time.perf_counter() - t0, S.num_edges, 0)
    ]

    blacklisted = np.zeros(m, dtype=bool)
    iteration = 0
    while mu > params.mu_limit and iteration < params.iter_max:
        iteration += 1
        t0 = time.perf_counter()

        off_ids = np.flatnonzero(~(kept | blacklisted))
        if off_ids.size == 0:
            break

        tails = g.tails[off_ids]
        heads = g.heads[off_ids]
        weights = g.weights[off_ids]
        sens, embeddings = score_edges(H, L_S, tails, heads, weights)

        n_top = max(1, int(np.floor(params.alpha_percent / 100.0 * off_ids.size)))
        # off_ids ascend, so a stable sort ranks ties by edge id.
        top = np.argsort(-sens, kind="stable")[:n_top]
        out_deg = np.bincount(S.tails, minlength=g.n)
        accepted = filter_similar_edges(
            embeddings[top], tails[top], params.epsilon, params.d_out, out_deg
        )
        if accepted.size == 0:
            reports.append(
                IterationReport(iteration, mu, S.num_edges / m, time.perf_counter() - t0, 0, 0)
            )
            break

        new_ids = off_ids[top[accepted]]
        tentative = kept.copy()
        tentative[new_ids] = True
        try:
            mu_new, H_new, S_new, L_S_new = _evaluate(
                g, L_Gu, tentative, r, params.t, params.solver, _rng_for(params.seed, iteration)
            )
        except RuntimeError:
            reports.append(
                IterationReport(iteration, mu, S.num_edges / m, time.perf_counter() - t0, 0, 0)
            )
            break

        if mu_new < mu:
            kept = tentative
            mu, H, S, L_S = mu_new, H_new, S_new, L_S_new
            added, rejected = new_ids.size, 0
            # A rejection only means the batch did not help against the
            # previous subgraph; after an accept the state changed, so give
            # those edges another chance (livelock stays impossible).
            blacklisted[:] = False
        else:
            blacklisted[new_ids] = True
            added, rejected = 0, new_ids.size
        reports.append(
            IterationReport(
                iteration, mu, S.num_edges / m, time.perf_counter() - t0, added, rejected
            )
        )

    return Sparsifier(
        graph=S,
        kept_edge_ids=np.flatnonzero(kept).tolist(),
        iterations=reports,
        mu_initial=mu_initial,
        mu_final=mu,
    )
