"""Per-layer attribution from the span tree ``read_trace`` returns.

Every span event carries ``pid``, ``id``, ``parent`` (-1 for roots),
``start`` (wall clock) and ``wall`` (seconds).  A span's *self time*
is its wall time minus the part of its interval that its children
cover.  A layer's time is the sum of the self times of the spans
assigned to it, so the layers of one root partition that root's wall
time exactly; whatever no rule claims is reported as ``unattributed``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Key = Tuple[int, int]
Span = Dict[str, object]

#: Bucket for self time that no rule claims.
UNATTRIBUTED = "unattributed"


def _key(span: Span) -> Key:
    return (int(span.get("pid", 0)), int(span["id"]))


def _parent_key(span: Span) -> Optional[Key]:
    parent = int(span["parent"])
    return None if parent < 0 else (int(span.get("pid", 0)), parent)


class SpanTree:
    """Span events indexed by ``(pid, id)`` with their children."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans: Dict[Key, Span] = {}
        self.children: Dict[Key, List[Key]] = defaultdict(list)
        self.roots: List[Key] = []
        for span in spans:
            self.spans[_key(span)] = span
        for key, span in self.spans.items():
            parent = _parent_key(span)
            if parent is None or parent not in self.spans:
                self.roots.append(key)
            else:
                self.children[parent].append(key)

    def find_roots(self, name: str) -> List[Key]:
        return [k for k in self.roots if self.spans[k]["name"] == name]

    def self_time(self, key: Key) -> float:
        """Wall time minus the union of the children's intervals,
        each clipped to this span's own interval."""
        span = self.spans[key]
        lo = float(span["start"])
        hi = lo + float(span["wall"])
        intervals = sorted(
            (max(lo, float(c["start"])),
             min(hi, float(c["start"]) + float(c["wall"])))
            for c in (self.spans[k] for k in self.children[key]))
        covered = 0.0
        cur_lo, cur_hi = None, None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return max(0.0, float(span["wall"]) - covered)


#: ``rule(name, child_names) -> bucket or None``; None inherits the
#: parent's bucket.
Rule = Callable[[str, Sequence[str]], Optional[str]]


def attribute(tree: SpanTree, root: Key, rule: Rule) -> Dict[str, float]:
    """Split ``root``'s wall time into buckets.

    Walks the tree top-down; a span takes the bucket ``rule`` gives it
    or inherits its parent's (the root starts in
    :data:`UNATTRIBUTED`), and its self time lands in that bucket.
    """
    out: Dict[str, float] = defaultdict(float)
    todo = [(root, UNATTRIBUTED)]
    while todo:
        key, inherited = todo.pop()
        span = tree.spans[key]
        kids = tree.children[key]
        bucket = rule(str(span["name"]),
                      [str(tree.spans[k]["name"]) for k in kids])
        bucket = inherited if bucket is None else bucket
        out[bucket] += tree.self_time(key)
        todo.extend((k, bucket) for k in kids)
    out.setdefault(UNATTRIBUTED, 0.0)
    return dict(out)


def kernel_rule(name: str, _children: Sequence[str]) -> Optional[str]:
    """Bucket by the innermost enclosing ``kernel/*`` span."""
    return name[len("kernel/"):] if name.startswith("kernel/") else None


def theorem1_rule(name: str, children: Sequence[str]) -> Optional[str]:
    """Theorem 1's phases as the ledger labels them.

    The landmark-distance phase is split into its three primitives
    (k-source BFS, the pair broadcast, landmark completion); its own
    glue code stays unattributed.  Everything else under the long
    detour phase is the segment machinery (L5.7-5.9, P5.1).
    """
    if name in ("kernel/spanning_tree", "phase/spanning-tree"):
        return "spanning_tree"
    if name == "phase/knowledge(L2.5)":
        return "knowledge"
    if name == "phase/short-detour(P4.1)":
        return "short_detour"
    if name == "phase/long-detour(P5.1)":
        return "segments"
    if name.startswith("phase/landmark-distances"):
        return UNATTRIBUTED
    if name == "kernel/multisource" or name.startswith("phase/kBFS"):
        return "kbfs"
    if name.startswith("phase/pair-broadcast") or (
            name == "kernel/broadcast"
            and any(c.startswith("phase/pair-broadcast")
                    for c in children)):
        return "pair_broadcast"
    if name == "kernel/landmark_completion":
        return "landmark_completion"
    return None


def theorem3_rule(name: str, _children: Sequence[str]) -> Optional[str]:
    """Theorem 3's two heavy phases: the scaled-BFS approximators
    (L7.5) and the landmark distances (P7.11)."""
    if name == "phase/approximators(L7.5)":
        return "approximators"
    if name.startswith("phase/landmark-distances(P7.11)"):
        return "landmark_distances"
    return None
