"""gexpand: generate corpora of semantic graphs from graph expansion
grammars.

A weighted regular tree grammar describes derivation trees; a graph
algebra of expansion and union operations evaluates those trees
bottom-up into directed labelled graphs with ports; the resulting
graph bank is written as gv (DOT) files.
"""

__version__ = "0.2.0"

from .algebra import (
    Algebra,
    EmptyConstant,
    ExpansionOperation,
    ExpansionTypeError,
    ExtensionReport,
    OperationFileError,
    UnionOperation,
    apply_expansion,
    apply_expansion_all,
    check_extension,
    context_candidates,
    enumerate_context_assignments,
    parse_operation_file,
)
from .evaluator import (
    EvalConfig,
    EvalOutcome,
    EvaluationError,
    ResultCapExceededError,
    evaluate,
    evaluate_corpus,
)
from .grammar import (
    BudgetExceededError,
    DerivationTree,
    EmptyLanguageWarning,
    Production,
    RankConflictError,
    RtgSyntaxError,
    WeightedRtg,
    language_contains,
    min_tree_weight,
    n_best_trees,
    parse_rtg,
    parse_tree,
    parse_tree_file,
    tree,
)
from .graphs import (
    Graph,
    GraphError,
    canonical_key,
    canonical_order,
    disjoint_union,
    empty_graph,
    is_isomorphic,
    rename_nodes,
)
from .gvio import GvSyntaxError, emit_gv, parse_gv
from .substitution import (
    DefinitionError,
    DefinitionTable,
    InstantiationCapError,
    instantiate_all,
    instantiation_count,
    parse_definitions,
)

__all__ = [
    "Algebra",
    "BudgetExceededError",
    "DefinitionError",
    "DefinitionTable",
    "DerivationTree",
    "EmptyConstant",
    "EmptyLanguageWarning",
    "EvalConfig",
    "EvalOutcome",
    "EvaluationError",
    "ExpansionOperation",
    "ExpansionTypeError",
    "ExtensionReport",
    "Graph",
    "GraphError",
    "GvSyntaxError",
    "InstantiationCapError",
    "OperationFileError",
    "Production",
    "RankConflictError",
    "ResultCapExceededError",
    "RtgSyntaxError",
    "UnionOperation",
    "WeightedRtg",
    "apply_expansion",
    "apply_expansion_all",
    "canonical_key",
    "canonical_order",
    "check_extension",
    "context_candidates",
    "disjoint_union",
    "emit_gv",
    "empty_graph",
    "enumerate_context_assignments",
    "evaluate",
    "evaluate_corpus",
    "instantiate_all",
    "instantiation_count",
    "is_isomorphic",
    "language_contains",
    "min_tree_weight",
    "n_best_trees",
    "parse_definitions",
    "parse_gv",
    "parse_operation_file",
    "parse_rtg",
    "parse_tree",
    "parse_tree_file",
    "rename_nodes",
    "tree",
]
