"""Lemmas 7.5 and 7.2 — short-detour approximators via rounding.

For every scale d on the ladder, the pruned hop-BFS of Lemma 4.2 is run
on G_d (via per-edge delays) for ζ* = ζ(1+2/ε) exact hops; the floods of
all scales, in both senses, go to the simulator as one batch.  From each
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

from ..congest.kernels import numpy_or_none
from ..congest.network import CongestNetwork
from ..congest.words import INF
from ..graphs.instance import RPathsInstance
from ..core.hop_bfs import hop_bfs_run, pruned_max_hop_bfs_batch
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
    np = numpy_or_none()
    path = knowledge.path
    h = knowledge.hop_count
    avoid = instance.path_edge_set()
    tables = ShortDetourTables(h)
    unit = scales[0].unit  # the same U on every scale
    dist_s = np.asarray(knowledge.dist_from_s, dtype=np.int64) * unit
    dist_t = np.asarray(knowledge.dist_to_t, dtype=np.int64) * unit
    at_i = np.arange(h + 1)[:, None]

    # pairs_fwd[i, j] = best d' (in units) among harvested pairs (j, d')
    # at v_i; INF where there is none.
    pairs_fwd = np.full((h + 1, h + 1), INF, dtype=np.int64)
    pairs_bwd = np.full((h + 1, h + 1), INF, dtype=np.int64)

    seeds_fwd = {path[i]: (i, knowledge.dist_to_t[i]) for i in range(h + 1)}
    seeds_bwd = {path[i]: (i, knowledge.dist_from_s[i])
                 for i in range(h + 1)}
    with net.ledger.phase(phase):
        runs = []
        for scale in scales:
            runs.append(hop_bfs_run(
                seeds_fwd, scale.hop_budget, avoid, scale.delay, path,
                f"scaled-bfs(d={scale.d})", sense="backward",
                select="max"))
            runs.append(hop_bfs_run(
                seeds_bwd, scale.hop_budget, avoid, scale.delay, path,
                f"scaled-bfs-rev(d={scale.d})", sense="forward",
                select="min"))
        results = pruned_max_hop_bfs_batch(net, runs)

        def indices(table):
            """index[i, hop] = the path index v_i holds at exact hop
            (f*_{v_i} or g*_{v_i}), -1 for none."""
            return np.array([[-1 if entry is None else entry[0]
                              for entry in table[v]] for v in path],
                            dtype=np.int64)

        # A pair's dist(v_j, t) / dist(s, v_j) is the aux word the BFS
        # carried with index j, which the seeds set from the knowledge
        # arrays: read it back by index.
        for k, scale in enumerate(scales):
            hop_units = scale.units(np.arange(scale.hop_budget + 1))
            fwd = indices(results[2 * k])
            i, hop = np.nonzero(fwd > at_i)  # rejoins at v_j, j > i
            j = fwd[i, hop]
            np.minimum.at(pairs_fwd, (i, j),
                          dist_s[i] + hop_units[hop] + dist_t[j])
            bwd = indices(results[2 * k + 1])
            i, hop = np.nonzero((bwd >= 0) & (bwd < at_i))  # leaves v_j
            j = bwd[i, hop]
            np.minimum.at(pairs_bwd, (i, j),
                          dist_s[j] + hop_units[hop] + dist_t[i])

        # Lemma 7.2 — local suffix/prefix minima over the pair sets.
        suffix = np.minimum.accumulate(pairs_fwd[:, ::-1], axis=1)[:, ::-1]
        prefix = np.minimum.accumulate(pairs_bwd, axis=1)
        length_of = {units: to_length(units, unit) for units in
                     np.unique(np.concatenate((suffix, prefix))).tolist()}
        for i in range(h + 1):
            tables.forward[i] = dict(zip(
                range(i + 1, h + 1),
                map(length_of.__getitem__, suffix[i, i + 1:].tolist())))
            tables.backward[i] = dict(zip(
                range(i),
                map(length_of.__getitem__, prefix[i, :i].tolist())))
    return tables
