"""Fine-grained legality checks for approximate clustering outputs.

The sandwich guarantee constrains clusters as a whole; these checks verify
the *pointwise* rules of Sections 2 and 6.2 against an output:

* **core-status legality** — with ``relaxed_core=False`` (rho-approximate
  semantics) a point is core iff ``|B(p, eps)| >= MinPts`` exactly; with
  ``relaxed_core=True`` (double-approximate) a point flagged core must
  have ``|B(p, (1+rho) eps)| >= MinPts`` and one flagged non-core must
  have ``|B(p, eps)| < MinPts``.
* **core partition legality** — core points within ``eps`` must share a
  cluster; each cluster's core points must be connected in the
  ``(1+rho) eps`` graph over core points.
* **border legality** — a non-core point with a core point of cluster
  ``C`` within ``eps`` must be in ``C``; a member of ``C`` must have a
  core point of ``C`` within ``(1+rho) eps``.  Noise points must have no
  core point within ``eps``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set

from repro.geometry.points import sq_dist


def check_legality(
    coords: Dict[int, Sequence[float]],
    clusters: Iterable[Iterable[int]],
    noise: Iterable[int],
    core: Set[int],
    eps: float,
    minpts: int,
    rho: float,
    relaxed_core: bool,
) -> List[str]:
    """Return all legality violations (empty list means legal)."""
    violations: List[str] = []
    keys = list(coords)
    sq_eps = eps * eps
    relaxed = eps * (1.0 + rho)
    sq_relaxed = relaxed * relaxed
    cluster_list = [set(c) for c in clusters]
    noise = set(noise)

    # --- core-status legality -------------------------------------------
    for k in keys:
        p = coords[k]
        tight = sum(1 for j in keys if sq_dist(p, coords[j]) <= sq_eps)
        loose = sum(1 for j in keys if sq_dist(p, coords[j]) <= sq_relaxed)
        if k in core:
            required = loose if relaxed_core else tight
            if required < minpts:
                violations.append(
                    f"point {k} flagged core but has only {required} "
                    f"neighbors within the allowed radius (MinPts={minpts})"
                )
        else:
            if tight >= minpts:
                violations.append(
                    f"point {k} flagged non-core but |B(p, eps)| = {tight} "
                    f">= MinPts={minpts}"
                )

    # --- core partition legality ----------------------------------------
    core_list = sorted(core)
    cluster_of_core: Dict[int, int] = {}
    for idx, cluster in enumerate(cluster_list):
        for k in cluster:
            if k in core:
                if k in cluster_of_core:
                    violations.append(
                        f"core point {k} appears in clusters "
                        f"{cluster_of_core[k]} and {idx}"
                    )
                cluster_of_core[k] = idx
    for k in core_list:
        if k not in cluster_of_core:
            violations.append(f"core point {k} is in no cluster")
    for i, a in enumerate(core_list):
        for b in core_list[i + 1 :]:
            if sq_dist(coords[a], coords[b]) <= sq_eps:
                if cluster_of_core.get(a) != cluster_of_core.get(b):
                    violations.append(
                        f"core points {a} and {b} are within eps but in "
                        f"different clusters"
                    )
    # Each cluster's core set must be connected in the relaxed graph.
    for idx, cluster in enumerate(cluster_list):
        members = [k for k in cluster if k in core]
        if len(members) <= 1:
            if not members:
                violations.append(f"cluster {idx} contains no core point")
            continue
        seen = {members[0]}
        queue = deque([members[0]])
        member_set = set(members)
        while queue:
            x = queue.popleft()
            for y in member_set:
                if y not in seen and sq_dist(coords[x], coords[y]) <= sq_relaxed:
                    seen.add(y)
                    queue.append(y)
        if seen != member_set:
            violations.append(
                f"cluster {idx}: core points are not connected within "
                f"(1+rho)eps (reached {len(seen)} of {len(member_set)})"
            )

    # --- border and noise legality ---------------------------------------
    for k in keys:
        if k in core:
            continue
        p = coords[k]
        must_join = set()
        may_join = set()
        for c in core_list:
            home = cluster_of_core.get(c)
            if home is None:
                continue  # already reported as "core point in no cluster"
            d2 = sq_dist(p, coords[c])
            if d2 <= sq_eps:
                must_join.add(home)
            if d2 <= sq_relaxed:
                may_join.add(home)
        joined = {
            idx for idx, cluster in enumerate(cluster_list) if k in cluster
        }
        for idx in must_join - joined:
            violations.append(
                f"border point {k} has a core point of cluster {idx} within "
                f"eps but was not assigned to it"
            )
        for idx in joined - may_join:
            violations.append(
                f"point {k} was assigned to cluster {idx} but has no core "
                f"point of it within (1+rho)eps"
            )
        if k in noise and (joined or must_join):
            violations.append(f"point {k} flagged noise but belongs to a cluster")
        if not joined and k not in noise:
            violations.append(f"point {k} is in no cluster but not flagged noise")
    return violations
