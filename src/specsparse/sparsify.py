"""Iterative spectral sparsification of directed graphs.

Starting from the spanning-structure seed, each iteration scores the
off-subgraph edges by spectral sensitivity, keeps the top slice, prunes
spectrally-similar ones, tentatively adds the survivors and re-estimates the
dominant generalized eigenvalue; the addition sticks only if the eigenvalue
dropped.  ``estimate_mu`` runs the power iteration from r random starts as
one block: each step applies L_Gu = L_G L_G^T as two sparse products and
makes one block solve with the subgraph's L_Su, the only Laplacian product
ever formed.  Rejected batches are blacklisted until the next accepted
batch, which rules out livelock without discarding edges forever.  Kept
edges always retain their original weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .graphs import DirectedGraph, laplacian, symmetrize, symmetrized_operator
from .seed import build_seed
from .sensitivity import filter_similar_edges, power_iterate, score_edges
from .solver import SolverParams, SpsSolver

__all__ = ["SparsifyParams", "IterationReport", "Sparsifier", "sparsify", "estimate_mu"]


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
        if self.iter_max < 0:
            raise ValueError("iter_max must be >= 0")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")

    def resolve_r(self, n):
        if self.r is not None:
            return max(1, int(self.r))
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


def _off_ids(m, kept_set, blacklist):
    """Ascending ids in range(m) that are neither kept nor blacklisted."""
    off = np.ones(m, dtype=bool)
    off[np.fromiter(kept_set, dtype=np.int64, count=len(kept_set))] = False
    off[np.fromiter(blacklist, dtype=np.int64, count=len(blacklist))] = False
    return np.flatnonzero(off)


def estimate_mu(L_G, L_Su, starts, t, solver):
    """t-step power-iteration estimates for the pencil (L_G L_G^T, L_Su).

    Returns one ``EigPair`` per row of ``starts``.  All rows run through one
    ``power_iterate`` call as one block; L_G L_G^T is applied as
    ``symmetrized_operator(L_G)`` and never formed.
    """
    return power_iterate(symmetrized_operator(L_G), L_Su, starts, t=t, solver=solver)


def _evaluate(g, L_G, kept_ids, r, t, solver_params, rng):
    """Estimate (mu_max, h vectors) for the subgraph given by kept_ids."""
    S = g.subgraph(kept_ids)
    L_S = laplacian(S)
    L_Su = symmetrize(L_S)
    solver = SpsSolver(L_Su, params=solver_params)
    pairs = estimate_mu(L_G, L_Su, rng.uniform(-1.0, 1.0, size=(r, g.n)), t, solver)
    mu = max(0.0, *(pair.mu for pair in pairs))
    return mu, [pair.h for pair in pairs], S, L_S


def sparsify(g: DirectedGraph, params: SparsifyParams | None = None) -> Sparsifier:
    """Run the full sparsification loop on g.

    Iteration 0 records the seed subgraph; subsequent rows record each
    accept/reject decision.  The loop stops when the eigenvalue target is
    reached, the iteration budget runs out, no off-subgraph candidates
    remain, or a subgraph solve fails (partial results are returned).
    """
    params = params or SparsifyParams()
    seed_sub = build_seed(g)
    kept = sorted(seed_sub.kept_edge_ids)
    m = g.num_edges

    if m == 0 or len(kept) == m:
        graph = g.subgraph(kept)
        report = [IterationReport(0, 1.0, 1.0 if m == 0 else len(kept) / m, 0.0, len(kept), 0)]
        return Sparsifier(graph, kept, report, 1.0, 1.0)

    L_G = laplacian(g)
    r = params.resolve_r(g.n)

    t0 = time.perf_counter()
    try:
        mu, h_list, S, L_S = _evaluate(
            g, L_G, kept, r, params.t, params.solver, _rng_for(params.seed, 0)
        )
    except RuntimeError:
        # Pencil is ill-posed (e.g. several attractor components whose null
        # spaces cannot be matched by any subgraph); hand back the seed.
        graph = g.subgraph(kept)
        report = [IterationReport(0, np.inf, len(kept) / m, time.perf_counter() - t0, len(kept), 0)]
        return Sparsifier(graph, kept, report, np.inf, np.inf)
    mu_initial = mu
    reports = [
        IterationReport(0, mu, len(kept) / m, time.perf_counter() - t0, len(kept), 0)
    ]

    blacklist = set()
    kept_set = set(kept)
    iteration = 0
    while mu > params.mu_limit and iteration < params.iter_max:
        iteration += 1
        t0 = time.perf_counter()

        off_ids = _off_ids(m, kept_set, blacklist)
        if off_ids.size == 0:
            break

        tails = g.tails[off_ids]
        heads = g.heads[off_ids]
        weights = g.weights[off_ids]
        sens, embeddings = score_edges(h_list, L_S, tails, heads, weights)

        order = np.lexsort((off_ids, -sens))
        n_top = max(1, int(np.floor(params.alpha_percent / 100.0 * off_ids.size)))
        top = order[:n_top]
        out_deg = np.bincount(S.tails, minlength=g.n)
        accepted = filter_similar_edges(
            embeddings[top], tails[top], params.epsilon, params.d_out, out_deg
        )
        if accepted.size == 0:
            reports.append(
                IterationReport(iteration, mu, len(kept_set) / m, time.perf_counter() - t0, 0, 0)
            )
            break

        new_ids = np.sort(off_ids[top[accepted]]).tolist()
        tentative = sorted(kept_set | set(new_ids))
        try:
            mu_new, h_new, S_new, L_S_new = _evaluate(
                g, L_G, tentative, r, params.t, params.solver, _rng_for(params.seed, iteration)
            )
        except RuntimeError:
            reports.append(
                IterationReport(iteration, mu, len(kept_set) / m, time.perf_counter() - t0, 0, 0)
            )
            break

        if mu_new < mu:
            kept_set = set(tentative)
            mu, h_list, S, L_S = mu_new, h_new, S_new, L_S_new
            added, rejected = len(new_ids), 0
            # A rejection only means the batch did not help against the
            # previous subgraph; after an accept the state changed, so give
            # those edges another chance (livelock stays impossible).
            blacklist.clear()
        else:
            blacklist.update(new_ids)
            added, rejected = 0, len(new_ids)
        reports.append(
            IterationReport(
                iteration, mu, len(kept_set) / m, time.perf_counter() - t0, added, rejected
            )
        )

    return Sparsifier(
        graph=g.subgraph(sorted(kept_set)),
        kept_edge_ids=sorted(kept_set),
        iterations=reports,
        mu_initial=mu_initial,
        mu_final=mu,
    )
