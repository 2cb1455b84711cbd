"""Sequential seeding simulation lab for influence maximization."""

from .graphs import Graph, GraphParseError, ParameterError, generate_ba, generate_er, load_edge_list, serialize
from .ranking import Ranking, RankingMethod, eigenvector_scores, pagerank_scores, rank
from .diffusion import DiffusionState, sample_world
from .strategies import StrategySpec, run_on_worlds, seed_count
from .experiment import (ComparisonSummary, GridSpec, RunRecord, derive_rng,
                         grid_blocks, grid_ranking, run_grid, summarize)
from .stats import hodges_lehmann, wilcoxon_signed_rank

__version__ = "0.1.0"
