"""Theorem 3 — (1+ε)-Apx-RPaths for weighted directed graphs.

Runs, on a fresh CONGEST network:

1. Lemma 2.5 knowledge acquisition (weighted distances along P);
2. Proposition 7.1 — short detours via rounding + interval pipelining;
3. Proposition 7.11 — long detours via scaled landmark BFS;
4. the pointwise minimum.

Output guarantee (Definition 2.2): for each edge e of P, the reported x
satisfies |st ⋄ e| ≤ x ≤ (1+ε)·|st ⋄ e| w.h.p.  Lengths are reported as
floats; internally they are exact: the local arithmetic of the L7.5
harvest and the P7.11 merge, closure and completion counts integer units
of 1/U (:mod:`repro.approx.rounding`), and lengths travel as exact
Fractions on the wire and between the stages.  ``scale_ladder`` raises
``ValueError`` if the instance's weights would overflow those units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..congest.metrics import RoundLedger
from ..congest.network import resolve_fabric
from ..congest.spanning_tree import build_spanning_tree
from ..congest.words import INF
from ..graphs.instance import RPathsInstance
from ..core.knowledge import acquire_path_knowledge, oracle_knowledge
from ..core.rpaths import default_zeta
from .long_detour_approx import long_detour_lengths_weighted
from .rounding import scale_ladder
from .short_detour_approx import short_detour_lengths_weighted


@dataclass
class ApxRPathsReport:
    """Output of a distributed (1+ε)-Apx-RPaths execution."""

    instance_name: str
    epsilon: float
    lengths: List[float]
    ledger: RoundLedger
    zeta: int
    scale_count: int
    landmark_count: int = 0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.ledger.rounds

    @property
    def messages(self) -> int:
        return self.ledger.messages


def solve_apx_rpaths(
    instance: RPathsInstance,
    epsilon: float = 0.25,
    zeta: Optional[int] = None,
    seed: int = 0,
    landmarks: Optional[Sequence[int]] = None,
    landmark_c: float = 2.0,
    use_oracle_knowledge: bool = False,
    bandwidth_words: Optional[int] = None,
    fabric: str = "fast",
) -> ApxRPathsReport:
    """Theorem 3: solve (1+ε)-Apx-RPaths on a weighted directed instance.

    Unweighted instances are accepted too (every guarantee only
    tightens), which the cross-validation tests exploit.
    """
    fabric = resolve_fabric(fabric)
    if zeta is None:
        zeta = default_zeta(instance.n)

    with telemetry.span("solve/apx-rpaths", instance=instance.name,
                        n=instance.n, fabric=fabric,
                        epsilon=epsilon, zeta=zeta) as sp:
        net = instance.build_network(bandwidth_words=bandwidth_words,
                                     fabric=fabric)
        sp.set_ledger(net.ledger)
        tree = build_spanning_tree(net)
        if use_oracle_knowledge:
            knowledge = oracle_knowledge(instance)
        else:
            knowledge = acquire_path_knowledge(
                instance, net, tree=tree, seed=seed)

        max_length = sum(w for _, _, w in instance.edges)
        scales = scale_ladder(zeta, epsilon, max_length)

        short = short_detour_lengths_weighted(
            instance, net, tree, knowledge, zeta, scales)
        long_ = long_detour_lengths_weighted(
            instance, net, tree, knowledge, zeta, scales,
            landmarks=landmarks, seed=seed + 1, landmark_c=landmark_c)

        lengths: List[float] = []
        for a, b in zip(short, long_):
            best = min(a, b)
            lengths.append(float(best) if best < INF else float("inf"))

    if landmarks is not None:
        landmark_count = len(set(landmarks))
    else:
        from ..core.landmarks import sample_landmarks
        landmark_count = len(sample_landmarks(
            instance.n, zeta, c=landmark_c, seed=seed + 1))
    return ApxRPathsReport(
        instance_name=instance.name,
        epsilon=epsilon,
        lengths=lengths,
        ledger=net.ledger,
        zeta=zeta,
        scale_count=len(scales),
        landmark_count=landmark_count,
        extras={"short": short, "long": long_},
    )
