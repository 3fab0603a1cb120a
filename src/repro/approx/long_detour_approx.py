"""Proposition 7.11 — (1+ε) long-detour replacement paths, weighted.

Structure is identical to Proposition 5.1; the only change (exactly as
the paper's proof says) is that the n^{2/3}-hop BFS of Lemmas 5.4/5.6 is
replaced with (1+ε)-approximate h-hop k-source shortest paths.

Substitution note (recorded in DESIGN.md): the paper invokes Nanongkai's
algorithm [Nan14, Theorem 3.6] for that primitive.  We instead reuse the
paper's *own* rounding machinery of Section 7.1: for every scale d on
the ladder, a k-source hop-bounded BFS runs on G_d (per-edge delays),
and each (landmark, vertex) pair keeps the best h·μ_d over scales.  Any
≤ h-hop path of weight r ∈ [d/2, d] is represented in G_d within
ζ(1+2/ε) subdivided hops and length ≤ (1+ε)r (Observation 7.4), so the
merged estimate is a (1+ε) upper bound that never drops below the true
distance (Observation 7.3) — the same guarantee, the same Õ(k + h)
round shape.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..congest.broadcast import broadcast_messages
from ..congest.dispatch import dispatch
from ..congest.multisource import multi_source_hop_bfs
from ..congest.network import CongestNetwork
from ..congest.spanning_tree import SpanningTree
from ..congest.words import INF
from ..graphs.instance import RPathsInstance
from ..core.knowledge import PathKnowledge
from ..core.landmark_distances import LandmarkDistances, landmark_closure
from ..core.landmarks import sample_landmarks
from ..core.segments import (
    checkpoint_positions,
    finish_distance_tables,
    prefix_min_to_landmarks,
    suffix_min_from_landmarks,
)
from .rounding import Scale, to_length, to_units


def _merge_scaled(best: List[int], hops: List[int], mu_units: int) -> None:
    """best[v] = min(best[v], hops[v]·μ_d) in units of 1/U."""
    for v, h in enumerate(hops):
        if h < INF:
            length = h * mu_units
            if length < best[v]:
                best[v] = length


def compute_landmark_distances_weighted(
    net: CongestNetwork,
    tree: SpanningTree,
    landmarks: Sequence[int],
    scales: Sequence[Scale],
    avoid_edges,
    phase: str = "landmark-distances(P7.11)",
) -> LandmarkDistances:
    """The Lemma 5.4 + 5.6 pipeline with scaled BFS distances.

    The merge, closure and completion run in integer units of 1/U (see
    :mod:`repro.approx.rounding`), so they are Theorem 1's own closure
    and completion; lengths become exact Fractions on the wire and in
    the returned tables.
    """
    k = len(landmarks)
    with net.ledger.phase(phase):
        if k == 0:
            return LandmarkDistances([], [], [], [])
        unit = scales[0].unit  # the same U on every scale
        top = scales[-1]
        # A completed distance chains at most k scaled BFS lengths.
        if k * top.units(top.hop_budget) >= INF:
            raise ValueError(
                f"{k} landmarks overflow the integer length units "
                f"(U={unit}); use a coarser epsilon or smaller weights")
        direct_from = [[INF] * net.n for _ in range(k)]
        direct_to = [[INF] * net.n for _ in range(k)]
        for scale in scales:
            budget = scale.hop_budget
            fwd = multi_source_hop_bfs(
                net, landmarks, budget, direction="out",
                avoid_edges=avoid_edges, delay=scale.delay,
                phase=f"kBFS-fwd(d={scale.d})")
            bwd = multi_source_hop_bfs(
                net, landmarks, budget, direction="in",
                avoid_edges=avoid_edges, delay=scale.delay,
                phase=f"kBFS-bwd(d={scale.d})")
            for a in range(k):
                _merge_scaled(direct_from[a], fwd[a], scale.mu_units)
                _merge_scaled(direct_to[a], bwd[a], scale.mu_units)

        # Broadcast the |L|² pair estimates (landmark l_b knows its
        # merged distance *from* every l_a) and close locally.
        messages: Dict[int, list] = {}
        for b, l_b in enumerate(landmarks):
            messages[l_b] = [
                ("pair", a, b, to_length(direct_from[a][l_b], unit))
                for a in range(k)
            ]
        records = broadcast_messages(net, tree, messages,
                                     phase="pair-broadcast(L2.4)")
        pair = [[INF] * k for _ in range(k)]
        for _, payload in records:
            _, a, b, value = payload
            pair[a][b] = to_units(value, unit)
        closure = landmark_closure(pair)
        from_landmark, to_landmark = dispatch(
            "landmark_completion", net, closure=closure,
            from_len=direct_from, to_len=direct_to)

        def lengths(rows: List[List[int]]) -> List[list]:
            return [[to_length(x, unit) for x in row] for row in rows]

        closure_lengths = lengths(closure)
        for a in range(k):
            closure_lengths[a][a] = 0
        return LandmarkDistances(list(landmarks), closure_lengths,
                                 lengths(from_landmark),
                                 lengths(to_landmark))


def long_detour_lengths_weighted(
    instance: RPathsInstance,
    net: CongestNetwork,
    tree: SpanningTree,
    knowledge: PathKnowledge,
    zeta: int,
    scales: Sequence[Scale],
    landmarks: Optional[Sequence[int]] = None,
    seed: int = 0,
    landmark_c: float = 2.0,
    phase: str = "long-detour(P7.11)",
) -> List[object]:
    """Proposition 7.11 — returns per-edge values x with
    |st ⋄ e| ≤ x ≤ (1+ε) · (best long-detour replacement) w.h.p."""
    h = knowledge.hop_count
    with net.ledger.phase(phase):
        if landmarks is None:
            landmarks = sample_landmarks(
                instance.n, zeta, c=landmark_c, seed=seed)
        landmarks = sorted(set(landmarks))
        if not landmarks:
            return [INF] * h

        distances = compute_landmark_distances_weighted(
            net, tree, landmarks, scales,
            avoid_edges=instance.path_edge_set())

        segment_len = max(1, math.ceil(instance.n ** (2.0 / 3.0)))
        checkpoints = checkpoint_positions(h, segment_len)
        prefix_table = prefix_min_to_landmarks(
            net, knowledge, distances, checkpoints)
        suffix_table = suffix_min_from_landmarks(
            net, knowledge, distances, checkpoints)
        tables = finish_distance_tables(
            net, tree, knowledge, distances, checkpoints,
            prefix_table, suffix_table)
        m_final, n_final = tables["M"], tables["N"]

        out = []
        for i in range(h):
            best = INF
            for j in range(len(landmarks)):
                candidate = m_final[j][i] + n_final[j][i]
                if candidate < best:
                    best = candidate
            out.append(best if best < INF else INF)
        return out
