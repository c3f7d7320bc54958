"""Rational-chain-connectedness predicates from genus labels and incidence.

A locus is rationally chain connected when it is empty, or when its
incidence graph is connected and every curve component is rational.
Single points are trivially connected; the empty locus is vacuous.
The incidence graph itself lives next to the loci, in ``potential``,
whose classification checks it; it is re-exported here.
"""

from __future__ import annotations

from .potential import (
    IncidenceGraph,
    PotentialReport,
    incidence_graph,  # noqa: F401  (re-exported)
    is_connected,
)


def is_rcc_locus(graph: IncidenceGraph) -> bool:
    if not graph.nodes:
        return True
    if not is_connected(graph):
        return False
    return all(c.genus == 0 for c in graph.nodes if c.kind == "curve")


def surface_rcc_via_pnklt(report: PotentialReport) -> tuple[bool, str]:
    """Transfer principle: with Δ = 0 and -K big, the surface is RCC
    exactly when its pNklt locus is.

    Reads the classification of (X, 0): with -K big, ``classify_pair`` has
    already proved pNklt connected, so only the genus test is left."""
    pair = report.pair
    if not pair.delta.is_zero():
        raise ValueError("proposition requires Δ = 0")
    if not pair.decomposition.big:
        raise ValueError("proposition requires -K big")
    if not report.pnklt:
        return True, "pNklt(X, 0) is empty; the surface is rationally connected"
    bad = sorted(c.ref for c in report.pnklt if c.kind == "curve" and c.genus > 0)
    if bad:
        return False, f"pNklt(X, 0) contains non-rational components: {', '.join(bad)}"
    return True, "pNklt(X, 0) is a connected configuration of rational components"
