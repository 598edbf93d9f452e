"""The sandwich guarantee (Theorem 3).

Let ``C1`` be exact DBSCAN at ``(eps, MinPts)`` and ``C2`` exact DBSCAN at
``((1+rho) eps, MinPts)``.  A legal (double-)approximate output ``C`` must
satisfy:

(i)  every cluster of ``C1`` is contained in some cluster of ``C``;
(ii) every cluster of ``C`` is contained in some cluster of ``C2``.

The checker takes the output clusters as collections of point *keys*
together with a key -> coordinates mapping, recomputes ``C1``/``C2`` with
the brute-force oracle, and reports every violation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from repro.baselines.static_dbscan import dbscan_grid


def check_sandwich(
    coords: Dict[int, Sequence[float]],
    clusters: Iterable[Iterable[int]],
    eps: float,
    minpts: int,
    rho: float,
) -> List[str]:
    """Return a list of sandwich violations (empty means the check passed)."""
    keys = sorted(coords)
    index_of = {k: i for i, k in enumerate(keys)}
    points = [tuple(coords[k]) for k in keys]
    output: List[Set[int]] = [{index_of[k] for k in cluster} for cluster in clusters]

    lower = dbscan_grid(points, eps, minpts)
    upper = dbscan_grid(points, eps * (1.0 + rho), minpts)

    violations: List[str] = []
    for i, c1 in enumerate(lower.clusters):
        if not any(c1 <= c for c in output):
            missing = [keys[j] for j in sorted(c1)][:10]
            violations.append(
                f"C1 cluster #{i} (size {len(c1)}, e.g. keys {missing}) is not "
                f"contained in any output cluster"
            )
    for i, c in enumerate(output):
        if not any(c <= c2 for c2 in upper.clusters):
            sample = [keys[j] for j in sorted(c)][:10]
            violations.append(
                f"output cluster #{i} (size {len(c)}, e.g. keys {sample}) is not "
                f"contained in any C2 cluster"
            )
    return violations
