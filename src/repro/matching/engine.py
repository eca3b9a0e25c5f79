"""End-to-end matching engine composing the three phases (Algorithm 1).

:class:`MatchingEngine` wires a candidate filter, an orderer and an
enumerator, timing each phase separately so the benchmarks can report the
paper's decomposition ``t = t_filter + t_order + t_enum`` (Sec. IV-B).

Phase (1) produces a :class:`~repro.matching.context.MatchingContext`:
the candidate sets *and* the per-edge :class:`CandidateSpace` index are
built exactly once per run — the index inside the filtering phase, so
its cost is billed to ``filter_time`` like every other Phase (1)
artifact — and shared by the orderer and the enumerator.

The Hybrid baseline of the paper is ``MatchingEngine(GQLFilter(),
RIOrderer(), ...)``; RL-QVO swaps only the orderer, exactly as Sec. III-B
prescribes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateFilter, CandidateSets
from repro.matching.context import MatchingContext
from repro.matching.enumeration import EnumerationResult, Enumerator
from repro.matching.ordering.base import Orderer

__all__ = ["MatchResult", "MatchingEngine"]


@dataclass(frozen=True)
class MatchResult:
    """Result of one full matching run with per-phase timings."""

    order: tuple[int, ...]
    enumeration: EnumerationResult
    filter_time: float
    order_time: float

    @property
    def enum_time(self) -> float:
        """Enumeration phase wall-clock seconds."""
        return self.enumeration.elapsed

    @property
    def total_time(self) -> float:
        """``t_filter + t_order + t_enum`` (Sec. IV-B)."""
        return self.filter_time + self.order_time + self.enum_time

    @property
    def num_matches(self) -> int:
        """Embeddings found."""
        return self.enumeration.num_matches

    @property
    def num_enumerations(self) -> int:
        """``#enum`` of the run."""
        return self.enumeration.num_enumerations

    @property
    def solved(self) -> bool:
        """Whether the run finished without hitting the deadline."""
        return not self.enumeration.timed_out


class MatchingEngine:
    """Composable filtering → ordering → enumeration pipeline."""

    def __init__(
        self,
        candidate_filter: CandidateFilter,
        orderer: Orderer,
        enumerator: Enumerator | None = None,
    ):
        self.candidate_filter = candidate_filter
        self.orderer = orderer
        self.enumerator = enumerator if enumerator is not None else Enumerator()

    def run(
        self,
        query: Graph,
        data: Graph,
        stats: GraphStats | None = None,
        rng: np.random.Generator | None = None,
    ) -> MatchResult:
        """Execute the full pipeline on one query."""
        t0 = time.perf_counter()
        candidates = self.candidate_filter.filter(query, data, stats)
        if candidates.has_empty():
            # No embedding can exist: skip the ordering phase entirely
            # (nothing to bill it for) and report an instant enumeration.
            # The identity order stands in for the never-computed φ.
            t1 = time.perf_counter()
            empty = EnumerationResult(0, 0, 0.0, False, False, ())
            return MatchResult(tuple(range(query.num_vertices)), empty, t1 - t0, 0.0)

        context = MatchingContext(query, data, candidates, stats)
        if self.enumerator.needs_space:
            # Phase (1) artifact: built once here, billed to filter_time,
            # then shared by the orderer and the enumerator.
            context.ensure_space()
        t1 = time.perf_counter()

        order = self.orderer.order_context(context, rng)
        t2 = time.perf_counter()
        enumeration = self.enumerator.run_context(context, order)
        return MatchResult(tuple(order), enumeration, t1 - t0, t2 - t1)

    def candidates_only(
        self, query: Graph, data: Graph, stats: GraphStats | None = None
    ) -> CandidateSets:
        """Run just the filtering phase (used by trainers and benches)."""
        return self.candidate_filter.filter(query, data, stats)
