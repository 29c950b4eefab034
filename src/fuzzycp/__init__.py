"""Preference-aware retrieval over tabular data.

Pipeline: cluster each numeric attribute into fuzzy linguistic regions
(knowledge base), express preferences as a conditional preference net,
weight it into additive utilities, rewrite the query as weighted
disjunctive terms, then rank records by max-min fuzzy evaluation.

Every public name is imported from its home module on first use, so
importing the package, like the CLI stages that only read documents, does
not load numpy.
"""

import importlib

# public name -> the module that defines it
_HOMES = {
    name: module
    for module, names in {
        "cpnet": "CPNet PreferenceVariable Violation enumerate_outcomes node_importance "
        "topological_order validate_cpnet",
        "dsl": "QuerySpec format_query parse_query",
        "errors": "AssignmentError BindingError CapacityError ConfigError DegenerateDataError "
        "DegenerateQueryError DegenerateUtilityError EmptyDatasetError FuzzycpError ParseError "
        "SemanticError ShapeError ValidationError",
        "scoring": "DataProjection Evaluation Ranking aggregate_term_score evaluate project rank",
        "kbdoc": "AttributeConfig ClusterModel KBConfig KnowledgeBase",
        "kb": "Dataset FcmResult build_knowledge_base fuzzy_c_means ingest_tabular",
        "query": "Term WeightedQuery compile_query load_query query_from_document "
        "query_to_document rewrite_query save_query",
        "ucp": "UCPNet assign_utilities check_dominance outcome_utility spans term_importance",
    }.items()
    for name in names.split()
}
__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
