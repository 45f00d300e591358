"""Unique perfect matchings: verifiers, class-specific linear-time
deciders, and a constructive characterization of the claw-free case.

``decide`` (in ``unipm.decision``) combines them into one decision for
any graph, with or without an interval representation; ``unipm.cli``
is its command-line front end.
"""

from .graph import (Graph, GraphParseError, Matching, connected_components,
                    find_bridges, find_claw, format_matching, is_clique,
                    is_connected, is_simplicial, parse_graph, serialize_graph)
from .uniqueness import (AlternatingCycleWitness, enumerate_pms, is_unique_pm,
                         kotzig_peel, maximum_matching, verify_pm)
from .forcing import ForcingCertificate, find_forcing_set
from .interval import (IntervalParseError, IntervalPMError, IntervalRep,
                       intersection_graph, interval_pm, normalize_endpoints,
                       parse_intervals)
from .clawfree import PmincfStats, pmincf
from .gclass import (InitStep, Op1Step, Op2Step, OperationError, apply_op1,
                     apply_op2, decompose, format_trace, parse_trace,
                     random_gclass, replay)
from .generators import (clique_chain, cograph_instance, interval_instance,
                         split_instance)
from .decision import Decision, decide

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphParseError", "Matching", "connected_components",
    "find_bridges", "find_claw", "format_matching", "is_clique",
    "is_connected", "is_simplicial", "parse_graph", "serialize_graph",
    "AlternatingCycleWitness", "enumerate_pms", "is_unique_pm", "kotzig_peel",
    "maximum_matching", "verify_pm",
    "ForcingCertificate", "find_forcing_set",
    "IntervalParseError", "IntervalPMError", "IntervalRep",
    "intersection_graph", "interval_pm", "normalize_endpoints",
    "parse_intervals",
    "PmincfStats", "pmincf",
    "InitStep", "Op1Step", "Op2Step", "OperationError",
    "apply_op1", "apply_op2", "decompose", "format_trace", "parse_trace",
    "random_gclass", "replay",
    "clique_chain", "cograph_instance", "interval_instance", "split_instance",
    "Decision", "decide",
]

