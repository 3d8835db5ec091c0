"""Toolkit for bipartite quantum correlations and their finite-dimensional limits.

Builds and analyzes correlations p(a, b | x, y): tilted-CHSH building blocks,
weighted direct sums, a family of strategies on truncated sequence spaces
whose exact correlation is available in closed form, Schmidt-spectrum
certificates for the dimension such strategies require, and a see-saw search
for the best fixed-dimension approximation.
"""

from .correlation import (
    BlockSpec,
    Correlation,
    CorrelationError,
    CorrelationTable,
    block_structure_check,
    direct_sum,
    distance,
    restrict,
)
from .strategy import (
    InvalidStrategyError,
    Strategy,
    StrategyError,
    direct_sum_strategies,
    induce,
    projected_substate,
    random_strategy,
    restrict_questions,
    validate,
)
from .tilted_chsh import (
    TiltedChshParams,
    bell_value,
    ideal_strategy,
    ideal_table,
    params_from_alpha,
    params_from_beta,
)
from .separating import (
    SeparatingError,
    TruncationSpec,
    exact_pstar,
    ideal_truncated_strategy,
    printed_table,
    truncation_distance,
)
from .analysis import (
    AnalysisError,
    BlockDecomposition,
    BlockDecompositionError,
    DescentChain,
    SchmidtPartition,
    SchmidtSpectrum,
    descent_chain,
    schmidt,
    schmidt_partition,
    strategy_block_decompose,
    verify_schmidt_bijections,
    verify_y4_relations,
)
from .seesaw import SeesawConfig, SeesawResult, optimize

__version__ = "0.1.0"

__all__ = [
    "BlockSpec",
    "Correlation",
    "CorrelationError",
    "CorrelationTable",
    "block_structure_check",
    "direct_sum",
    "distance",
    "restrict",
    "InvalidStrategyError",
    "Strategy",
    "StrategyError",
    "direct_sum_strategies",
    "induce",
    "projected_substate",
    "random_strategy",
    "restrict_questions",
    "validate",
    "TiltedChshParams",
    "bell_value",
    "ideal_strategy",
    "ideal_table",
    "params_from_alpha",
    "params_from_beta",
    "SeparatingError",
    "TruncationSpec",
    "exact_pstar",
    "ideal_truncated_strategy",
    "printed_table",
    "truncation_distance",
    "AnalysisError",
    "BlockDecomposition",
    "BlockDecompositionError",
    "DescentChain",
    "SchmidtPartition",
    "SchmidtSpectrum",
    "descent_chain",
    "schmidt",
    "schmidt_partition",
    "strategy_block_decompose",
    "verify_schmidt_bijections",
    "verify_y4_relations",
    "SeesawConfig",
    "SeesawResult",
    "optimize",
    "__version__",
]
