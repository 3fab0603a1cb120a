"""Lemmas 7.5 and 7.2 — short-detour approximators via rounding.

For every scale d on the ladder, the pruned hop-BFS of Lemma 4.2 is run
on G_d (via per-edge delays) for ζ* = ζ(1+2/ε) exact hops.  From each
table, vertex v_i harvests pairs (j, d') into its *short-detour
approximator* C_i:

    j  = f*_{v_i}(h)   (the furthest rejoining index at exact hop h),
    d' = dist(s, v_i) + h·μ_d + dist(v_j, t),

with dist(v_j, t) attached to the BFS message (Lemma 7.5).  Validity
(d' bounds a real replacement) and approximation (every short detour is
(1+ε)-covered) are the two halves of the Lemma 7.5 proof, checked by the
property tests.

Lemma 7.2 then collapses C_i into the query structure
eX({i}, [j, ∞)) = min { d' : (k, d') ∈ C_i, k ≥ j } — a suffix minimum.
The mirrored run (forward sense, min select) produces eX((−∞, j], {i})
analogously via prefix minima.

Both steps are local arithmetic at v_i, done in integer units of 1/U
(see :mod:`repro.approx.rounding`); only the finished query structures
hold exact Fractions.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..congest.network import CongestNetwork
from ..congest.words import INF
from ..graphs.instance import RPathsInstance
from ..core.hop_bfs import pruned_max_hop_bfs
from ..core.knowledge import PathKnowledge
from .rounding import Length, Scale, to_length


class ShortDetourTables:
    """The per-vertex query structures of Lemma 7.2, both senses.

    ``forward[i][j]`` = eX({i}, [j, ∞))   for j in [i+1, h_st]
    ``backward[i][j]`` = eX((−∞, j], {i}) for j in [0, i−1]

    Entries are exact Fractions, or the INF int for "none"; the arrays
    live at v_i and were computed from messages v_i received.
    """

    def __init__(self, hop_count: int) -> None:
        self.hop_count = hop_count
        self.forward: List[Dict[int, Length]] = [
            {} for _ in range(hop_count + 1)
        ]
        self.backward: List[Dict[int, Length]] = [
            {} for _ in range(hop_count + 1)
        ]

    def x_start_at(self, i: int, j: int) -> Length:
        """eX({i}, [j, ∞)) — detour leaves exactly at v_i, rejoins ≥ v_j."""
        if j > self.hop_count:
            return INF
        return self.forward[i].get(j, INF)

    def x_end_at(self, i: int, j: int) -> Length:
        """eX((−∞, j], {i}) — detour leaves ≤ v_j, rejoins exactly at v_i."""
        if j < 0:
            return INF
        return self.backward[i].get(j, INF)


def build_short_detour_tables(
    instance: RPathsInstance,
    net: CongestNetwork,
    knowledge: PathKnowledge,
    scales: Sequence[Scale],
    phase: str = "approximators(L7.5)",
) -> ShortDetourTables:
    """Run both pruned-BFS families over all scales and collapse to the
    Lemma 7.2 query structures."""
    path = knowledge.path
    h = knowledge.hop_count
    avoid = instance.path_edge_set()
    tables = ShortDetourTables(h)
    unit = scales[0].unit  # the same U on every scale

    # pairs_fwd[i][k] = best d' (in units) among harvested pairs (k, d')
    # at v_i.
    pairs_fwd: List[Dict[int, int]] = [{} for _ in range(h + 1)]
    pairs_bwd: List[Dict[int, int]] = [{} for _ in range(h + 1)]

    with net.ledger.phase(phase):
        for scale in scales:
            budget = scale.hop_budget
            seeds_fwd = {
                path[i]: (i, knowledge.dist_to_t[i]) for i in range(h + 1)
            }
            fwd = pruned_max_hop_bfs(
                net, seeds=seeds_fwd, hop_limit=budget,
                avoid_edges=avoid, delay=scale.delay,
                record_for=path, sense="backward", select="max",
                phase=f"scaled-bfs(d={scale.d})")
            seeds_bwd = {
                path[i]: (i, knowledge.dist_from_s[i])
                for i in range(h + 1)
            }
            bwd = pruned_max_hop_bfs(
                net, seeds=seeds_bwd, hop_limit=budget,
                avoid_edges=avoid, delay=scale.delay,
                record_for=path, sense="forward", select="min",
                phase=f"scaled-bfs-rev(d={scale.d})")
            mu = scale.mu_units
            for i in range(h + 1):
                table_f = fwd[path[i]]
                table_b = bwd[path[i]]
                best_f = pairs_fwd[i]
                best_b = pairs_bwd[i]
                dist_s_i = knowledge.dist_from_s[i] * unit
                dist_t_i = knowledge.dist_to_t[i] * unit
                for hop in range(1, budget + 1):
                    entry = table_f[hop]
                    if entry is not None and entry[0] > i:
                        j, dist_t_j = entry
                        d_prime = dist_s_i + hop * mu + dist_t_j * unit
                        if d_prime < best_f.get(j, INF):
                            best_f[j] = d_prime
                    entry = table_b[hop]
                    if entry is not None and entry[0] < i:
                        j, dist_s_j = entry
                        d_prime = dist_s_j * unit + hop * mu + dist_t_i
                        if d_prime < best_b.get(j, INF):
                            best_b[j] = d_prime

        # Lemma 7.2 — local suffix/prefix minima over the pair sets; a
        # minimum becomes a Fraction once, when it changes.
        for i in range(h + 1):
            running, value = INF, INF
            for j in range(h, i, -1):
                candidate = pairs_fwd[i].get(j, INF)
                if candidate < running:
                    running, value = candidate, to_length(candidate, unit)
                tables.forward[i][j] = value
            running, value = INF, INF
            for j in range(0, i):
                candidate = pairs_bwd[i].get(j, INF)
                if candidate < running:
                    running, value = candidate, to_length(candidate, unit)
                tables.backward[i][j] = value
    return tables
