"""Frequent pattern discovery over combined knowledge bases: a DL
terminology plus DL-safe disjunctive rules and facts, reasoned over with a
branching chase, mined with a semantically pruned trie search."""

from .errors import (BranchLimitExceeded, EmptyReferenceConcept,
                     InconsistentKB, OntominerError, ParseError,
                     UnsupportedAxiom)
from .kbparse import load_kb, parse_kb, serialize_kb
from .clausify import GroundProgram, ProgramRule, clausify, format_program
from .miner import (MineResult, MiningConfig, RunStats, Trie, TrieNode, mine,
                    refine_candidates, semantic_filter, trivial_pattern)
from .model import (Atom, CombinedKB, Const, DLRule, Predicate, Var,
                    check_dl_safety, make_dl_safe)
from .reasoner import (ChaseConfig, ModelSet, QuerySpec, SemanticContext,
                       answer_query, cautious_entails, chase, format_models)

__version__ = "0.1.0"

__all__ = [
    "Atom", "BranchLimitExceeded", "ChaseConfig", "CombinedKB", "Const",
    "DLRule", "EmptyReferenceConcept", "GroundProgram", "InconsistentKB",
    "MineResult", "MiningConfig", "ModelSet", "OntominerError", "ParseError",
    "Predicate", "ProgramRule", "QuerySpec", "RunStats",
    "SemanticContext", "Trie", "TrieNode", "UnsupportedAxiom", "Var",
    "answer_query", "cautious_entails", "chase", "check_dl_safety",
    "clausify", "format_models", "format_program", "load_kb", "make_dl_safe",
    "mine", "parse_kb", "refine_candidates", "semantic_filter",
    "serialize_kb", "trivial_pattern",
]
