"""Seeded inputs and CLI operations for the three benchmark workloads.

Every operation is a real ``tritile`` argv plus the check that judges
its exit code and output.  The program only ever sees the generated
peaks files and the argv; nothing here imports the package under test.

Sizes sit on a fixed grid with a small seeded jitter, so that two seeds
give passes of nearly the same cost while the seed still picks the
geometry: pit placement, peak positions, cones and codes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

Triple = tuple[int, int, int]

# Offsets between the centres of two pits that share a peak.
EDGE_OFFSETS = ((0, 1, -1), (1, 0, -1), (1, -1, 0), (0, -1, 1), (-1, 0, 1), (-1, 1, 0))


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]


def grid(rng: random.Random, lo: int, hi: int, n: int, jitter: int) -> list[int]:
    """n evenly spaced integers from lo to hi, each moved by at most ``jitter``."""
    return [lo + (hi - lo) * i // (n - 1) + rng.randint(-jitter, jitter) for i in range(n)]


def rand_point(rng: random.Random, box: int) -> Triple:
    return tuple(rng.randint(-box, box) for _ in range(3))


def pit(c: Triple) -> list[Triple]:
    """The three peaks one step under a common centre."""
    return [(c[0] - 1, c[1], c[2]), (c[0], c[1] - 1, c[2]), (c[0], c[1], c[2] - 1)]


def pit_cluster(rng: random.Random, n_pits: int) -> tuple[Triple, ...]:
    """Peaks of ``n_pits`` pits, each sharing a peak with an earlier one;
    the first centre lies in [-2, 2]^3."""
    centres = [rand_point(rng, 2)]
    for _ in range(n_pits - 1):
        base = rng.choice(centres)
        off = rng.choice(EDGE_OFFSETS)
        centres.append(tuple(b + o for b, o in zip(base, off)))
    return tuple(sorted({g for c in centres for g in pit(c)}))


def antichain(rng: random.Random, box: int, npts: int) -> tuple[Triple, ...]:
    return checks.minimal({rand_point(rng, box) for _ in range(npts)})


def tile_text(base: Triple, d1: int, d2: int) -> str:
    return f"{base[0]},{base[1]},{base[2]}:{d1}{d2}"


class Inputs:
    """Writes each distinct peaks file once into one directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.paths: dict[tuple, str] = {}

    def peaks(self, peaks, kind: str) -> str:
        key = (tuple(map(tuple, peaks)), kind)
        if key not in self.paths:
            path = os.path.join(self.directory, f"p{len(self.paths)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"peaks": [list(p) for p in peaks], "kind": kind}, fh)
            self.paths[key] = path
        return self.paths[key]


def _norm(files: Inputs, peaks) -> Op:
    path = files.peaks(peaks, "roof")
    return Op("norm", ("norm", "--peaks", path), partial(checks.norm, peaks))


def _traj_all(files: Inputs, peaks) -> Op:
    path = files.peaks(peaks, "roof")
    return Op("traj_all", ("trajectories", "--peaks", path, "--all"), partial(checks.traj_all, peaks))


def _roof_add(files: Inputs, parts) -> Op:
    paths = [files.peaks(p, "roof") for p in parts]
    return Op("roof_add", ("roof", "add", *paths), partial(checks.roof_add, parts))


def _classify(files: Inputs, cone: Triple, std: Triple, k: int) -> Op:
    argv = (
        "classify",
        "--peaks", files.peaks([cone], "cone"),
        "--std-peaks", files.peaks([std], "roof"),
        f"--window=-{k}:{k},-{k}:{k}",
    )
    return Op("classify", argv, partial(checks.classify, cone, std, k))


def _traj_start(files: Inputs, cone, start: str, steps: int) -> Op:
    # The '=' forms keep argparse from reading a negative coordinate as an option.
    argv = ("trajectories", "--peaks", files.peaks(cone, "cone"), f"--start={start}", f"--max-steps={steps}")
    return Op("traj_start", argv, partial(checks.traj_start, cone, start, steps))


def _encode(files: Inputs, cone, start: str, steps: int) -> Op:
    argv = ("encode", "--peaks", files.peaks(cone, "cone"), f"--start={start}", f"--max-steps={steps}")
    return Op("encode", argv, partial(checks.encode, steps))


def _decode(code: str, start: str) -> Op:
    return Op("decode", ("decode", code, f"--start={start}"), partial(checks.decode, code, start))


def _walk_cone(rng: random.Random, octant: bool) -> tuple[tuple[Triple, ...], str]:
    """A one-octant cone or a three-generator random antichain cone, with a
    start tile at its largest generator (always on the surface)."""
    cone = (rand_point(rng, 2),)
    while not octant and len(cone) != 3:
        cone = antichain(rng, 4, 3)
    g = max(cone)
    return cone, tile_text(g, *rng.choice(((1, 2), (2, 3), (3, 1))))


def roof_norms(rng: random.Random, files: Inputs) -> list[Op]:
    clusters = [pit_cluster(rng, 1 + i % 4) for i in range(72)]
    groups = [rng.sample(range(len(clusters)), 2 + i % 2) for i in range(96)]
    sums = [tuple(sorted({g for j in grp for g in clusters[j]})) for grp in groups]
    ops = [_norm(files, c) for c in clusters + sums]
    ops += [_traj_all(files, c) for c in clusters[::2] + sums[::2]]
    ops += [_roof_add(files, [clusters[j] for j in grp]) for grp in groups]
    return ops


def wide_roofs(rng: random.Random, files: Inputs) -> list[Op]:
    # Dense size grids: an operation's cost grows with the square of its
    # size, so on a coarse grid a shift of the median or tail by one rank
    # moves it by a quarter; here by a few percent.
    ops = []
    for d in grid(rng, 20, 80, 26, 1):
        p0 = rand_point(rng, 2)
        p1 = (p0[0] + d, p0[1] - d, p0[2] + rng.randint(-2, 2))
        ops.append(_norm(files, (p0, p1)))
    for k in grid(rng, 20, 60, 22, 1):
        ops.append(_classify(files, rand_point(rng, 2), rand_point(rng, 2), k))
    return ops


def long_walks(rng: random.Random, files: Inputs) -> list[Op]:
    ops = []
    # All but the shortest walk run on octants, whose one-chart cost depends
    # only on the length; the four longest lie above the tail percentile.
    for i, steps in enumerate(grid(rng, 300, 1000, 6, 10)):
        ops.append(_traj_start(files, *_walk_cone(rng, octant=i > 0), steps))
    for i in range(5):
        ops.append(_encode(files, *_walk_cone(rng, octant=i % 2 == 0), 3000))
    # Many closely spaced code lengths keep the median and the tail inside
    # the decodes, where a shift by one rank moves them by a few percent.
    for n in grid(rng, 1000, 3000, 51, 20):
        code = "D" + "".join(rng.choice("UD") for _ in range(n - 1))
        ops.append(_decode(code, tile_text(rand_point(rng, 2), 1, 2)))
    return ops


HEX = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def warmup(files: Inputs) -> dict[str, Op]:
    """One small operation of every kind, run during set-up.  The ``norm``
    (the hexagon pit) and ``decode`` ones also serve the tracer self-check."""
    return {
        "norm": _norm(files, HEX),
        "traj_all": _traj_all(files, HEX),
        "roof_add": _roof_add(files, [HEX, pit((2, 1, 1))]),
        "classify": _classify(files, (0, 0, 0), (1, 2, 0), 4),
        "traj_start": _traj_start(files, ((0, 0, 0),), "0,0,0:12", 40),
        "encode": _encode(files, ((0, 0, 0),), "0,0,0:12", 40),
        "decode": _decode("DUDUDD", "1,1,0:31"),
    }


WORKLOADS = {"roof_norms": roof_norms, "wide_roofs": wide_roofs, "long_walks": long_walks}


def build(name: str, seed: int, directory: str) -> tuple[dict[str, Op], list[Op]]:
    """Warm-up operations and the seeded operation list of one pass."""
    files = Inputs(directory)
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](rng, files)
    rng.shuffle(ops)
    return warmup(files), ops
