"""Result oracles, run untimed after each workload's timed phase.

Each function returns a list of problems; an empty list is a pass.  The
``*_check`` functions build their reference from fresh engines of the
program under test, opened with the exact (rho = 0) algorithms.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Canon = Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]


def canonical(clusters: Iterable[Iterable[int]], noise: Iterable[int],
              mapping: Optional[Mapping[int, int]] = None) -> Canon:
    """Clusters and noise as sorted tuples, ids optionally mapped first."""
    if mapping is not None:
        clusters = ([mapping[p] for p in c] for c in clusters)
        noise = [mapping[p] for p in noise]
    return (tuple(sorted(tuple(sorted(c)) for c in clusters)),
            tuple(sorted(noise)))


def compare_exact(got: Canon, want: Canon, what: str) -> List[str]:
    """Bit-identity of two canonical clusterings."""
    problems = []
    if got[1] != want[1]:
        problems.append(
            f"{what}: noise differs ({len(got[1])} vs {len(want[1])} points, "
            f"first differing ids {sorted(set(got[1]) ^ set(want[1]))[:5]})"
        )
    if got[0] != want[0]:
        extra = set(got[0]) - set(want[0])
        missing = set(want[0]) - set(got[0])
        problems.append(
            f"{what}: clusters differ ({len(got[0])} vs {len(want[0])}; "
            f"{len(extra)} unexpected, {len(missing)} missing)"
        )
    return problems


def sandwich_violations(output: Sequence[Set[int]], lower: Sequence[Set[int]],
                        upper: Sequence[Set[int]]) -> List[str]:
    """The sandwich rule of ``repro.validation.sandwich.check_sandwich``.

    Every cluster of ``lower`` (exact DBSCAN at eps) must lie inside some
    output cluster, and every output cluster inside some cluster of
    ``upper`` (exact DBSCAN at (1+rho) eps).  Candidates are found through
    any one member, which keeps the check linear in the points.
    """
    problems = []
    pairs = (("C1", lower, output), ("output", output, upper))
    for name, inner, outer in pairs:
        where = {}
        for index, cluster in enumerate(outer):
            for pid in cluster:
                where.setdefault(pid, []).append(index)
        for index, cluster in enumerate(inner):
            if not cluster:
                continue
            probe = next(iter(cluster))
            if not any(cluster <= outer[j] for j in where.get(probe, ())):
                problems.append(
                    f"{name} cluster #{index} (size {len(cluster)}, e.g. id "
                    f"{probe}) is not contained in any "
                    f"{'output' if name == 'C1' else 'C2'} cluster"
                )
    return problems


def covers(clusters: Iterable[Iterable[int]], noise: Iterable[int],
           live: Set[int]) -> List[str]:
    """Every live id appears in a cluster or in noise, and nothing else."""
    seen = set(noise)
    for cluster in clusters:
        seen.update(cluster)
    problems = []
    if seen - live:
        problems.append(f"{len(seen - live)} ids reported that are not live")
    if live - seen:
        problems.append(f"{len(live - seen)} live ids missing from the result")
    return problems


def window_check(snapshot, live: Sequence[int], coords: list,
                 knobs: dict) -> List[str]:
    """A window's snapshot against a fresh engine bulk-loaded with it.

    ``live`` are the window's ids oldest first and ``coords`` their
    points; the fresh engine's id ``i`` stands for ``live[i]``.
    """
    import repro.api

    with repro.api.open(**knobs) as reference:
        reference.ingest(coords)
        want = reference.snapshot()
    problems = covers(snapshot.clusters, snapshot.noise, set(live))
    return problems + compare_exact(
        canonical(snapshot.clusters, snapshot.noise),
        canonical(want.clusters, want.noise, dict(enumerate(live))),
        "window snapshot vs fresh bulk-loaded engine",
    )


def single_engine_check(snapshot, chunks: Sequence[list], knobs: dict,
                        query=None) -> List[str]:
    """A sharded result against one in-process engine fed the same chunks.

    ``query`` is an optional ``(ids, outcome)`` C-group-by to replay.
    """
    import repro.api

    with repro.api.open(**knobs) as reference:
        for chunk in chunks:
            reference.ingest(chunk)
        want = reference.snapshot()
        problems = compare_exact(
            canonical(snapshot.clusters, snapshot.noise),
            canonical(want.clusters, want.noise),
            "sharded snapshot vs single engine",
        )
        if query is not None:
            ids, got = query
            ref = reference.cgroup_by_many(ids)
            problems += compare_exact(
                canonical(got.groups, got.noise),
                canonical(ref.groups, ref.noise),
                "sharded C-group-by vs single engine",
            )
    return problems


def sandwich_check(clusters: Sequence[Iterable[int]], noise: Iterable[int],
                   live: Sequence[int], coords: list, dim: int, eps: float,
                   minpts: int, rho: float) -> List[str]:
    """A rho > 0 clustering against exact engines at eps and (1+rho) eps."""
    import repro.api

    bounds = []
    for radius in (eps, eps * (1.0 + rho)):
        with repro.api.open(algorithm="semi", dim=dim, eps=radius,
                            minpts=minpts) as exact:
            exact.ingest(coords)
            bounds.append([{live[i] for i in c}
                           for c in exact.snapshot().clusters])
    return covers(clusters, noise, set(live)) + sandwich_violations(
        [set(c) for c in clusters], bounds[0], bounds[1])
