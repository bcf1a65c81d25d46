"""Decompose undirected graphs into edge-disjoint cycles plus single edges."""

from .graph import (
    Cycle,
    Decomposition,
    Graph,
    ParseError,
    Path,
    ValidationReport,
    decomposition_from_json_dict,
    decomposition_to_json,
    decomposition_to_json_dict,
    format_edge_list,
    neighborhood,
    parse_edge_list,
    robust_neighborhood,
    to_dot,
    validate_decomposition,
    validate_decomposition_json,
)

__all__ = [
    "Cycle",
    "Decomposition",
    "Graph",
    "ParseError",
    "Path",
    "ValidationReport",
    "decomposition_from_json_dict",
    "decomposition_to_json",
    "decomposition_to_json_dict",
    "format_edge_list",
    "neighborhood",
    "parse_edge_list",
    "robust_neighborhood",
    "to_dot",
    "validate_decomposition",
    "validate_decomposition_json",
]

__version__ = "0.1.0"
