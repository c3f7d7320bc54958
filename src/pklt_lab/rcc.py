"""Rational-chain-connectedness predicates from genus labels and incidence.

A locus is rationally chain connected when it is empty, or when its
incidence graph is connected and every curve component is rational.
Single points are trivially connected; the empty locus is vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import intersect
from .potential import LocusComponent, PairSpec, pnklt_locus


@dataclass(frozen=True)
class IncidenceGraph:
    nodes: tuple[LocusComponent, ...]
    edges: tuple[tuple[int, int], ...]


def incidence_graph(pair: PairSpec, comps: list[LocusComponent]) -> IncidenceGraph:
    """Edges join curves with positive intersection number at the pair
    level, and points to the curves they were declared to lie on."""
    lvl = pair.model.level(pair.level)
    nodes = tuple(comps)
    edges = []
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            b = nodes[j]
            if a.kind == "curve" and b.kind == "curve":
                num = intersect(
                    lvl.curve(a.ref).cls, lvl.curve(b.ref).cls, lvl.form
                )
                if num > 0:
                    edges.append((i, j))
            elif a.kind == "curve" and b.kind == "point":
                if a.ref in b.on_curves:
                    edges.append((i, j))
            elif a.kind == "point" and b.kind == "curve":
                if b.ref in a.on_curves:
                    edges.append((i, j))
    return IncidenceGraph(nodes, tuple(edges))


def is_connected(graph: IncidenceGraph) -> bool:
    n = len(graph.nodes)
    if n <= 1:
        return True
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j in graph.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n


def is_rcc_locus(graph: IncidenceGraph) -> bool:
    if not graph.nodes:
        return True
    if not is_connected(graph):
        return False
    return all(c.genus == 0 for c in graph.nodes if c.kind == "curve")


def surface_rcc_via_pnklt(pair: PairSpec) -> tuple[bool, str]:
    """Transfer principle: with Δ = 0 and -K big, the surface is RCC
    exactly when its pNklt locus is."""
    if not pair.delta.is_zero():
        raise ValueError("proposition requires Δ = 0")
    if not pair.big:
        raise ValueError("proposition requires -K big")
    comps = pnklt_locus(pair)
    if not comps:
        return True, "pNklt(X, 0) is empty; the surface is rationally connected"
    graph = incidence_graph(pair, comps)
    verdict = is_rcc_locus(graph)
    if verdict:
        reason = "pNklt(X, 0) is a connected configuration of rational components"
    else:
        bad = sorted(
            c.ref for c in graph.nodes if c.kind == "curve" and c.genus > 0
        )
        if bad and is_connected(graph):
            reason = f"pNklt(X, 0) contains non-rational components: {', '.join(bad)}"
        else:
            reason = "pNklt(X, 0) is not rationally chain connected"
    return verdict, reason
