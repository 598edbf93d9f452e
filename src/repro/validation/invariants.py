"""Internal-invariant checker for the fully-dynamic clusterer.

``check_invariants`` audits a live :class:`FullyDynamicClusterer` against
the structural invariants its correctness proof relies on:

1. the cell registry partitions the point store, with no empty cells;
2. neighbor caches are symmetric and match the grid's closeness predicate;
3. per-cell core/non-core sets partition the cell and agree with the
   emptiness structure, and a cell of ``MinPts`` points (diameter
   ``eps``) has no non-core point, as the ball count assumes;
4. an aBCP instance exists for every pair of close core cells, is shared
   by both, and its witness points are live core points of the right
   cells within the relaxed radius;
5. the CC structure's vertex set is exactly the core cells, and its edge
   set is exactly the witnessed instance pairs.

Useful in tests (called mid-churn) and as a debugging aid when extending
the library.  Returns a list of violation strings; empty means healthy.
"""

from __future__ import annotations

from typing import List

from repro.geometry.points import sq_dist


def check_invariants(algo) -> List[str]:
    """Audit a FullyDynamicClusterer's internal structures."""
    problems: List[str] = []
    grid = algo._grid
    cells = algo._cells

    # --- 1. registry partitions the point store --------------------------
    seen = 0
    for cell, data in cells.items():
        if not data.points:
            problems.append(f"cell {cell} is registered but empty")
        for pid, pt in data.points.items():
            seen += 1
            if algo._points.get(pid) != pt:
                problems.append(f"point {pid} in cell {cell} mismatches store")
            if grid.cell_of(pt) != cell:
                problems.append(f"point {pid} stored in wrong cell {cell}")
    if seen != len(algo._points):
        problems.append(
            f"cells hold {seen} points but the store has {len(algo._points)}"
        )

    # --- 2. symmetric, correct neighbor caches ---------------------------
    for cell, data in cells.items():
        for other in data.neighbors:
            if other not in cells:
                problems.append(f"cell {cell} caches dead neighbor {other}")
                continue
            if cell not in cells[other].neighbors:
                problems.append(f"neighbor cache asymmetry: {cell} -> {other}")
            if not grid.cells_close(cell, other):
                problems.append(f"cached neighbors {cell}, {other} are not close")
        expected = set(grid.neighbors_of(cell, cells))
        if expected != data.neighbors:
            problems.append(
                f"cell {cell} neighbor cache {sorted(data.neighbors)} != "
                f"expected {sorted(expected)}"
            )

    # --- 3. core bookkeeping ---------------------------------------------
    for cell, data in cells.items():
        if data.core | data.noncore != set(data.points):
            problems.append(f"cell {cell}: core+noncore != points")
        if data.core & data.noncore:
            problems.append(f"cell {cell}: core and noncore overlap")
        if len(data.points) >= algo.minpts and data.noncore:
            problems.append(
                f"cell {cell}: dense cell ({len(data.points)} points) holds "
                f"non-core points {sorted(data.noncore)}"
            )
        empt_ids = set(data.emptiness.ids()) if data.emptiness else set()
        if empt_ids != data.core:
            problems.append(
                f"cell {cell}: emptiness holds {sorted(empt_ids)} but core is "
                f"{sorted(data.core)}"
            )

    # --- 4. aBCP instances -------------------------------------------------
    sq_relaxed = algo._sq_relaxed
    core_cells = {cell for cell, data in cells.items() if data.core}
    for cell in core_cells:
        data = cells[cell]
        for other in data.neighbors:
            if other in core_cells and other not in data.abcp:
                problems.append(f"missing aBCP instance for {cell} ~ {other}")
        for other, (instance, side) in data.abcp.items():
            if other not in core_cells:
                problems.append(f"aBCP instance {cell} ~ {other}: dead partner")
                continue
            back = cells[other].abcp.get(cell)
            if back is None or back[0] is not instance:
                problems.append(f"aBCP instance {cell} ~ {other}: not shared")
            if back is not None and back[1] == side:
                problems.append(f"aBCP instance {cell} ~ {other}: same side twice")
            if instance.witness is not None:
                a, b = instance.witness
                mine = a if side == 0 else b
                theirs = b if side == 0 else a
                if mine not in data.core:
                    problems.append(
                        f"aBCP witness {mine} is not a core point of {cell}"
                    )
                elif theirs not in cells[other].core:
                    problems.append(
                        f"aBCP witness {theirs} is not a core point of {other}"
                    )
                elif (
                    sq_dist(algo._points[a], algo._points[b])
                    > sq_relaxed * (1 + 1e-9)
                ):
                    problems.append(
                        f"aBCP witness pair ({a}, {b}) exceeds (1+rho)eps"
                    )

    # --- 5. CC structure mirrors the grid graph ---------------------------
    conn_vertices = set(algo._conn.vertices())
    if conn_vertices != core_cells:
        problems.append(
            f"CC vertices {len(conn_vertices)} != core cells {len(core_cells)}"
        )
    witnessed = 0
    for cell in core_cells:
        for other, (instance, side) in cells[cell].abcp.items():
            if side != 0:
                continue  # count each shared instance once
            if instance.witness is not None:
                witnessed += 1
                if not algo._conn.has_edge(cell, other):
                    problems.append(f"missing CC edge {cell} ~ {other}")
            elif algo._conn.has_edge(cell, other):
                problems.append(f"stale CC edge {cell} ~ {other}")
    if witnessed != algo._conn.edge_count:
        problems.append(
            f"CC structure has {algo._conn.edge_count} edges, expected {witnessed}"
        )
    return problems
