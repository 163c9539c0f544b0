"""SVG and ASCII pictures of tile sets and trajectories.

Rendering is the one place floats appear: the equilateral drawing basis
sends the three axes to plane directions (1,0), (-1/2, sqrt3/2) and
(-1/2, -sqrt3/2), which collapses the viewing diagonal to a point, so a
tile and all its shifts draw the same triangle.  ASCII output maps every
flat tile to one character: ``/`` and ``\\`` mark the two orientations
and trajectory tiles show their code letter instead.
"""

from __future__ import annotations

import math

from .lattice import Triple
from .tiles import SlantTile, flatten, vertices

_SQ3 = math.sqrt(3.0) / 2.0
_SCALE = 40.0  # SVG pixels per unit of the drawing basis
_MAX_SVG_COORD = 10**300
# Characters of the longest ASCII picture: over four times the
# 2,256,002 of a 3000-step diagonal octant walk, the largest drawn so far.
MAX_ASCII_CHARS = 10_000_000


def _xy(q: Triple) -> tuple[float, float]:
    # Past the bound a float conversion overflows or a width is infinite.
    if max(q) > _MAX_SVG_COORD or min(q) < -_MAX_SVG_COORD:
        raise ValueError("a tile coordinate beyond 10^300 is too large to draw as SVG")
    # y is negated: SVG grows downward.
    return (q[0] - 0.5 * q[1] - 0.5 * q[2], -_SQ3 * (q[1] - q[2]))


def svg_picture(tiles: list[tuple[SlantTile, str | None]]) -> str:
    """An SVG drawing of labelled tiles; empty input gives an empty canvas."""
    polys = []
    for s, label in tiles:
        pts = [_xy(v) for v in vertices(s)]
        polys.append((pts, label))
    if polys:
        xs = [x for pts, _ in polys for x, _ in pts]
        ys = [y for pts, _ in polys for _, y in pts]
        x0, x1 = min(xs) - 0.5, max(xs) + 0.5
        y0, y1 = min(ys) - 0.5, max(ys) + 0.5
    else:
        x0, x1, y0, y1 = -1.0, 1.0, -1.0, 1.0
    width = (x1 - x0) * _SCALE
    height = (y1 - y0) * _SCALE

    def sx(x: float) -> str:
        return f"{(x - x0) * _SCALE:.2f}"

    def sy(y: float) -> str:
        return f"{(y - y0) * _SCALE:.2f}"

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
    ]
    for pts, label in polys:
        path = " ".join(f"{sx(x)},{sy(y)}" for x, y in pts)
        fill = "#e8e8e8" if label is None else "#ffffff"
        out.append(
            f'<polygon points="{path}" fill="{fill}" stroke="#333333" stroke-width="1"/>'
        )
    for pts, label in polys:
        if label is None:
            continue
        cx = sum(x for x, _ in pts) / 3.0
        cy = sum(y for _, y in pts) / 3.0
        out.append(
            f'<text x="{sx(cx)}" y="{sy(cy)}" font-size="{_SCALE * 0.35:.1f}" '
            f'text-anchor="middle" dominant-baseline="middle">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def ascii_picture(tiles: list[tuple[SlantTile, str | None]]) -> str:
    """One character cell per flat tile, two orientations per plane cell.

    Rows run from the highest v down, each starting at the least u of the
    picture; a row is built from its occupied cells only, so the work
    grows with the tiles and the output, not with the area between them.
    The output length, one newline per row plus the widths of the
    occupied rows, is known from the cells alone; a picture longer than
    ``MAX_ASCII_CHARS`` is a ``ValueError`` before any line is built.
    """
    rows: dict[int, dict[int, list[str]]] = {}
    for s, label in tiles:
        (u, v, _), _, d2 = flatten(s)
        slot = 0 if d2 == 2 else 1
        cell = rows.setdefault(v, {}).setdefault(u, [" ", " "])
        cell[slot] = label or ("/" if slot == 0 else "\\")
    if not rows:
        return "\n"
    u_min = min(min(row) for row in rows.values())
    v_max = max(rows)
    length = v_max - min(rows) + 1
    for row in rows.values():
        u_last = max(row)
        length += 2 * (u_last - u_min) + len("".join(row[u_last]).rstrip())
    if length > MAX_ASCII_CHARS:
        raise ValueError(
            f"the ASCII picture would have {length} characters, more than "
            f"{MAX_ASCII_CHARS}; draw it with --format svg"
        )
    lines, v_above = [], v_max
    for v in sorted(rows, reverse=True):
        parts, u_next = [], u_min
        for u, cell in sorted(rows[v].items()):
            parts.append("  " * (u - u_next))
            parts.extend(cell)
            u_next = u + 1
        lines += ("\n" * (v_above - v), "".join(parts).rstrip())
        v_above = v
    return "".join(lines) + "\n"
