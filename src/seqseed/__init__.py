"""Sequential seeding simulation lab for influence maximization."""

from .graphs import Graph, GraphParseError, ParameterError, components, generate_ba, generate_er, load_edge_list, serialize
from .ranking import Ranking, RankingMethod, eigenvector_scores, pagerank_scores, rank
from .diffusion import (DiffusionState, DiffusionTrace, activate_seeds,
                        expected_coverage_exact, ic_step, run_until_stop)
from .strategies import (StrategySpec, run_sn, run_sq_kps, run_sq_kps_b,
                         run_sq_kps_r, run_sq_tsn, run_sq_tsn_r, run_strategy,
                         seed_count)
from .experiment import (ComparisonSummary, GridSpec, RunRecord, derive_rng,
                         run_grid, summarize)
from .stats import hodges_lehmann, wilcoxon_signed_rank

__version__ = "0.1.0"
