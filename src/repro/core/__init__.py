"""Tabby core: the paper's primary contribution.

* :mod:`repro.core.actions` — controllability lattice (Origin, Action,
  Polluted_Position, Formulas 2 and 4)
* :mod:`repro.core.controllability` — Algorithm 1
* :mod:`repro.core.cpg` — ORG/PCG/MAG construction (§III-B)
* :mod:`repro.core.sinks` / :mod:`repro.core.sources` — catalogs
* :mod:`repro.core.pathfinder` — Algorithms 2-3 (§III-D)
* :mod:`repro.core.chains` — gadget-chain model
* :mod:`repro.core.summary_cache` — persistent per-class summary cache
* :mod:`repro.core.cpg_check` — structural CPG verification
* :mod:`repro.core.refine` — opt-in guard-feasibility chain refinement
* :mod:`repro.core.api` — the :class:`Tabby` facade
"""

from repro.core.actions import Action, Origin, calc, traverse_tc
from repro.core.api import Tabby
from repro.core.blacklist import (
    DeserializationBlacklist,
    apply_blacklist,
    derive_blacklist,
)
from repro.core.chains import ChainStep, GadgetChain, dedupe_chains, filter_by_package
from repro.core.controllability import (
    CallSite,
    ControllabilityAnalysis,
    MethodSummary,
)
from repro.core.cpg import CPG, CPGBuilder, CPGStatistics
from repro.core.cpg_check import CPGCheckIssue, verify_cpg
from repro.core.refine import (
    GuardFeasibilityRefiner,
    RefutationReason,
    refine_chains,
)
from repro.core.pathfinder import GadgetChainFinder, SearchStatistics
from repro.core.sinks import DEFAULT_SINKS, SinkCatalog, SinkMethod
from repro.core.sources import SourceCatalog
from repro.core.summary_cache import SummaryCache, catalog_token

__all__ = [
    "SummaryCache",
    "catalog_token",
    "Tabby",
    "DeserializationBlacklist",
    "derive_blacklist",
    "apply_blacklist",
    "Action",
    "Origin",
    "calc",
    "traverse_tc",
    "ControllabilityAnalysis",
    "MethodSummary",
    "CallSite",
    "CPG",
    "CPGBuilder",
    "CPGStatistics",
    "CPGCheckIssue",
    "verify_cpg",
    "GuardFeasibilityRefiner",
    "RefutationReason",
    "refine_chains",
    "GadgetChainFinder",
    "SearchStatistics",
    "GadgetChain",
    "ChainStep",
    "dedupe_chains",
    "filter_by_package",
    "SinkCatalog",
    "SinkMethod",
    "DEFAULT_SINKS",
    "SourceCatalog",
]
