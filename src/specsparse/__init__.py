"""Spectral sparsification of directed graphs via Laplacian symmetrization."""

from .graphs import DirectedGraph, adjacency, laplacian, symmetrize, symmetrized_operator, incidence_factorization
from .mmio import ParseError, read_matrix_market, write_matrix_market
from .seed import SeedSubgraph, build_seed, maximum_spanning_structure, symmetrized_transition
from .solver import SolverParams, SolveStats, SpsSolver
from .sensitivity import filter_similar_edges, power_iterate, score_edges
from .sparsify import IterationReport, Sparsifier, SparsifyParams, sparsify
from .apps import (
    PageRankResult,
    Partitioning,
    adjusted_rand_index,
    directed_solve,
    kmeans,
    pagerank,
    pagerank_correlation,
    spectral_partition,
)
from .synth import banded_digraph, clustered_digraph

__version__ = "0.1.0"
