"""Preference-aware retrieval over tabular data.

Pipeline: cluster each numeric attribute into fuzzy linguistic regions
(knowledge base), express preferences as a conditional preference net,
weight it into additive utilities, rewrite the query as weighted
disjunctive terms, then rank records by max-min fuzzy evaluation.
"""

from .cpnet import (
    CPNet,
    PreferenceVariable,
    Violation,
    enumerate_outcomes,
    node_importance,
    topological_order,
    validate_cpnet,
)
from .dsl import QuerySpec, format_query, parse_query
from .errors import (
    AssignmentError,
    BindingError,
    CapacityError,
    ConfigError,
    DegenerateDataError,
    DegenerateQueryError,
    DegenerateUtilityError,
    EmptyDatasetError,
    FuzzycpError,
    ParseError,
    SemanticError,
    ShapeError,
    ValidationError,
)
from .scoring import (
    DataProjection,
    Evaluation,
    Ranking,
    aggregate_term_score,
    evaluate,
    project,
    rank,
)
from .kb import (
    AttributeConfig,
    ClusterModel,
    Dataset,
    FcmResult,
    KBConfig,
    KnowledgeBase,
    build_knowledge_base,
    fuzzy_c_means,
    ingest_tabular,
)
from .query import (
    Term,
    WeightedQuery,
    compile_query,
    load_query,
    query_from_document,
    query_to_document,
    rewrite_query,
    save_query,
)
from .ucp import (
    UCPNet,
    assign_utilities,
    check_dominance,
    outcome_utility,
    spans,
    term_importance,
)

__version__ = "0.1.0"
