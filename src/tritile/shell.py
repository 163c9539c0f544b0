"""Command-line front end: peaks files in, JSON documents out.

A *peaks file* is JSON ``{"peaks": [[q1,q2,q3], ...], "kind": "roof"}``;
kind ``roof`` (the default) closes the generators under the roof
operation on load, ``cone`` takes them as-is.  Trajectories are emitted
as one JSON document per line with fields ``closed``, ``length``,
``tiles`` (text form ``q1,q2,q3:d1d2``), ``code`` and ``charts``.
``render`` reads any emitted document from stdin and draws it as SVG
or ASCII; every command writes to stdout.  ``surface`` and ``classify``
scan exactly their required ``--window``, which is at most
``MAX_WINDOW_SIDE`` cells across and is checked before any file is read.
``norm`` and ``trajectories --all`` take no window: the library scans
the box that holds every In tile, within ``surface.MAX_SCAN_UNITS``.
A peaks file holds at most ``MAX_PEAKS`` peaks, and so do the files of
one ``roof add`` together, checked before any closure.  A walk holds at
most ``MAX_WALK`` tiles: ``--max-steps`` is checked when it is parsed,
a ``decode`` code before it is decoded.  A ``--start`` tile is parsed
before the peaks file is read.

Exit codes: 0 success; 1 usage or malformed input; 2 geometric
inconsistency (a ``GeometryError``); 3 a walk did not close within
``--max-steps`` (the truncated walk is still emitted).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .cones import ConjUpSet, StdUpSet, conj_roof_generators, std_roof_generators
from .dynamics import (
    MAX_STEPS,
    Chart,
    Trajectory,
    chart_cover,
    closed_trajectories_of_roof,
    decode,
    encode,
    trace,
)
from .errors import GeometryError
from .lattice import Triple
from .render import ascii_picture, svg_picture
from .surface import Window, classify, norm, surface_tiles
from .tiles import SlantTile, parse_int, parse_tile, tile_text, tile_texts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GEOMETRY = 2
EXIT_BUDGET = 3

# Cells across the widest --window, along u and along v: the slowest
# window found at the cap is the square, over which `classify` with two
# peaks files of 100 points spread 600 wide takes about 1.5 s and 67 MB,
# and `surface` about 1 s (shared 2-vCPU Xeon, Python 3.11).
MAX_WINDOW_SIDE = 316

# Peaks of one file, and of all `roof add` files together: on the slowest
# family found, 99 peaks on three staggered chains, `roof add` takes
# about 1.1 s and `norm`, which closes them three times, 2.2 s (2-vCPU
# Xeon, Python 3.11).
MAX_PEAKS = 100

# Tiles of the longest walk: the cap of --max-steps and of a `decode`
# code's length, a little above the longest bench walk (a 3,020-symbol
# decode).  The chart cover of a `decode`, `trajectories --all` or `norm`
# document also stays within `dynamics.MAX_COVER_UNITS`; the slowest walk
# found within both, a `decode` of "DDDUUU" repeated, takes about 3.7 s
# (2-vCPU Xeon, Python 3.11) and bounds the cap.  A `--start` walk searches
# no cover: the slowest found at the cap, 3,100 steps on the roof of the
# 100-peak chain (i, -i, -2i), takes about 0.09 s in-process.
MAX_WALK = 3_100


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is taken by geometry errors here.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def _load_peaks(path: str) -> tuple[list[Triple], str]:
    with open(path, encoding="utf-8") as fh:
        doc = _parse_json(fh.read())
    if not isinstance(doc, dict):
        raise ValueError("peaks file must hold a JSON object")
    peaks = doc.get("peaks")
    kind = doc.get("kind", "roof")
    if kind not in ("cone", "roof"):
        raise ValueError(f"kind must be cone or roof, got {kind!r}")
    if not isinstance(peaks, list) or not peaks:
        raise ValueError("peaks must be a non-empty list of integer triples")
    if len(peaks) > MAX_PEAKS:
        raise ValueError(f"{path} has {len(peaks)} peaks, more than {MAX_PEAKS}")
    points = []
    for p in peaks:
        # bool is a subclass of int, but true/false are not coordinates
        if not (
            isinstance(p, list)
            and len(p) == 3
            and all(isinstance(c, int) and not isinstance(c, bool) for c in p)
        ):
            raise ValueError(f"bad peak {p!r}")
        points.append(tuple(p))
    return points, kind


def _conj_region(path: str) -> ConjUpSet:
    points, kind = _load_peaks(path)
    return conj_roof_generators(points) if kind == "roof" else ConjUpSet(tuple(points))


def _std_region(path: str) -> StdUpSet:
    points, kind = _load_peaks(path)
    return std_roof_generators(points) if kind == "roof" else StdUpSet.from_qpoints(points)


def _parse_window(text: str) -> Window:
    try:
        upart, vpart = text.split(",")
        u_min, u_max = (parse_int(x) for x in upart.split(":"))
        v_min, v_max = (parse_int(x) for x in vpart.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad window {text!r}, expected uMIN:uMAX,vMIN:vMAX"
        ) from exc
    if u_min > u_max or v_min > v_max:
        raise argparse.ArgumentTypeError(f"empty window {text!r}")
    if max(u_max - u_min, v_max - v_min) >= MAX_WINDOW_SIDE:
        raise argparse.ArgumentTypeError(
            f"window {text!r} is more than {MAX_WINDOW_SIDE} cells across"
        )
    return Window(u_min, u_max, v_min, v_max)


def _max_steps(text: str) -> int:
    try:
        steps = parse_int(text)
    except ValueError:
        steps = 0
    if steps < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if steps > MAX_WALK:
        raise argparse.ArgumentTypeError(f"a walk of {steps} tiles is longer than {MAX_WALK}")
    return steps


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _traj_doc(traj: Trajectory, code: str, charts: list[Chart]) -> dict:
    return {
        "closed": traj.closed,
        "length": len(traj.tiles),
        "tiles": tile_texts(traj.tiles),
        "code": code,
        "charts": [{"peaks": [list(g) for g in c.cone.generators], "span": [c.start, c.stop]} for c in charts],
    }


def _walk_docs(trajs: list[Trajectory]) -> list[dict]:
    """The documents of the closed walks of ``norm`` and ``trajectories
    --all``.  Each walk is one chart, as under ``--start``; its cover is
    searched only for the checks that bench/run.py HAND_COUNTS pins (the
    rows ``test_pinned_public_call_counts`` and
    ``test_command_work_counts[trajectories_all]`` of
    tests/test_work_counts.py)."""
    return [_traj_doc(traj, encode(traj), chart_cover(traj.tiles)) for traj in trajs]


def _cmd_surface(args) -> int:
    tiles = surface_tiles(_conj_region(args.peaks), args.window)
    _emit({"tiles": tile_texts(tiles)})
    return EXIT_OK


def _cmd_trajectories(args) -> int:
    if args.all:
        if args.max_steps is not None:
            raise ValueError("--max-steps applies to --start only")
        # Every document is built before any is written: a chart cover over
        # its budget exits 1 with nothing on stdout.
        for doc in _walk_docs(closed_trajectories_of_roof(_conj_region(args.peaks))):
            _emit(doc)
        return EXIT_OK
    start = parse_tile(args.start)
    steps = MAX_STEPS if args.max_steps is None else args.max_steps
    traj = trace(_conj_region(args.peaks), start, max_steps=steps)
    # A walk traced on one region is one chart, whose cone is the cone of
    # its bases (proved in the dynamics.py docstring): no cover is searched.
    chart = Chart(ConjUpSet(tuple(t[0] for t in traj.tiles)), 0, len(traj) - 1)
    _emit(_traj_doc(traj, encode(traj), [chart]))
    return EXIT_OK if traj.closed else EXIT_BUDGET


def _cmd_encode(args) -> int:
    start = parse_tile(args.start)
    traj = trace(_conj_region(args.peaks), start, max_steps=args.max_steps)
    sys.stdout.write(encode(traj) + "\n")
    return EXIT_OK if traj.closed else EXIT_BUDGET


def _cmd_decode(args) -> int:
    if len(args.code) > MAX_WALK:
        raise ValueError(f"a code of {len(args.code)} symbols is longer than {MAX_WALK}")
    tiles = decode(args.code, parse_tile(args.start))
    _emit(_traj_doc(Trajectory(tuple(tiles), closed=False), args.code, chart_cover(tiles)))
    return EXIT_OK


def _cmd_roof_add(args) -> int:
    # The roof of the union is the sum of the files' roofs: roof closure
    # is a closure operator, so closing every file first changes nothing.
    points = [p for path in args.files for p in _load_peaks(path)[0]]
    if len(points) > MAX_PEAKS:
        raise ValueError(f"the files have {len(points)} peaks, more than {MAX_PEAKS}")
    total = conj_roof_generators(points)
    _emit({"peaks": [list(g) for g in total.generators], "kind": "roof"})
    return EXIT_OK


def _cmd_norm(args) -> int:
    w = _conj_region(args.peaks)
    # The partition scans first, so a walk that does not close inside the
    # norm fails after one scan (row test_a_failing_norm_scans_once); the
    # norm is scanned again only after a partition that succeeded
    # (bench/run.py HAND_COUNTS, row test_pinned_public_call_counts).
    trajs = closed_trajectories_of_roof(w)
    flats = norm(w)
    _emit({"norm": tile_texts(flats), "trajectories": _walk_docs(trajs)})
    return EXIT_OK


def _cmd_classify(args) -> int:
    cl = classify(_conj_region(args.peaks), _std_region(args.std_peaks), args.window)
    _emit(
        {
            "in": tile_texts(cl.in_tiles),
            "out": tile_texts(cl.out_tiles),
            "bd": tile_texts(cl.bd_tiles),
            "counts": {
                "in": len(cl.in_tiles),
                "out": len(cl.out_tiles),
                "bd": len(cl.bd_tiles),
            },
            "consistent": not cl.bd_tiles,
        }
    )
    return EXIT_OK


def _tile_list(doc: dict, key: str) -> list[SlantTile]:
    texts = doc.get(key, [])
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError(f"{key!r} must be a list of tile texts")
    return [parse_tile(t) for t in texts]


def _doc_tiles(doc) -> list[tuple[SlantTile, str | None]]:
    """Extract (tile, label) pairs from any emitted document shape.

    Anything else, including a document of the right kind with a field
    of the wrong type, is a ``ValueError``.
    """
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if "tiles" in doc:
        tiles = _tile_list(doc, "tiles")
        code = doc.get("code", "")
        if not isinstance(code, str) or set(code) - {"U", "D"}:
            raise ValueError("'code' must be a string of U and D")
        if code and len(code) != len(tiles):
            raise ValueError(f"'code' has {len(code)} letters for {len(tiles)} tiles")
        labels = list(code) or [None] * len(tiles)
        return list(zip(tiles, labels))
    if "norm" in doc:
        pairs = [(t, None) for t in _tile_list(doc, "norm")]
        subs = doc.get("trajectories", [])
        if not isinstance(subs, list):
            raise ValueError("'trajectories' must be a list of documents")
        for sub in subs:
            pairs.extend(_doc_tiles(sub))
        return pairs
    if "in" in doc:
        pairs = [(t, "I") for t in _tile_list(doc, "in")]
        pairs += [(t, None) for t in _tile_list(doc, "out")]
        pairs += [(t, "B") for t in _tile_list(doc, "bd")]
        return pairs
    raise ValueError("document has no tiles to draw")


def _cmd_render(args) -> int:
    pairs = _doc_tiles(_parse_json(sys.stdin.read()))
    sys.stdout.write(svg_picture(pairs) if args.format == "svg" else ascii_picture(pairs))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tritile`` argument parser, built once per process.

    A build makes about thirty help formatters and costs more than a
    small command, so every ``main`` call reuses this one parser;
    ``parse_args`` keeps no state between calls.  Callers share it and
    must not add to it.
    """
    p = _Parser(prog="tritile", description="staircase tile geometry toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("surface", _cmd_surface, "list surface tiles over a window")
    sp.add_argument("--peaks", required=True)
    sp.add_argument("--window", type=_parse_window, required=True)

    sp = add("trajectories", _cmd_trajectories, "trace trajectories on a surface")
    sp.add_argument("--peaks", required=True)
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="all closed trajectories of the roof")
    which.add_argument("--start", help="start tile, e.g. 1,1,0:31")
    sp.add_argument(
        "--max-steps",
        type=_max_steps,
        help=f"tile budget of the --start walk (default {MAX_STEPS})",
    )

    sp = add("encode", _cmd_encode, "U/D code of a traced trajectory")
    sp.add_argument("--peaks", required=True)
    sp.add_argument("--start", required=True)
    sp.add_argument(
        "--max-steps",
        type=_max_steps,
        default=MAX_STEPS,
        help=f"tile budget of the walk (default {MAX_STEPS})",
    )

    sp = add("decode", _cmd_decode, "tile sequence of a U/D code")
    sp.add_argument("code")
    sp.add_argument("--start", required=True)

    roof = add("roof", None, "roof algebra")
    roofsub = roof.add_subparsers(dest="roof_command", required=True)
    sp = roofsub.add_parser("add", help="sum of roofs from peaks files")
    sp.set_defaults(fn=_cmd_roof_add)
    sp.add_argument("files", nargs="+")

    sp = add("norm", _cmd_norm, "norm tiles of a roof and their trajectories")
    sp.add_argument("--peaks", required=True)

    sp = add("classify", _cmd_classify, "In/Out/Bd decomposition over a window")
    sp.add_argument("--peaks", required=True)
    sp.add_argument("--std-peaks", required=True)
    sp.add_argument("--window", type=_parse_window, required=True)

    sp = add("render", _cmd_render, "draw a document from stdin as SVG or ASCII")
    sp.add_argument("--format", choices=("svg", "ascii"), default="svg")

    return p


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit:  # --help
        return EXIT_OK
    except GeometryError as exc:
        sys.stderr.write(f"geometry error: {exc}\n")
        if exc.tile is not None:
            # The state that replays the failure (README "Command line").
            replay = {
                "peaks": [list(g) for g in exc.peaks],
                "port": None if exc.port is None else exc.port.value,
                "tile": tile_text(exc.tile),
            }
            sys.stderr.write(json.dumps(replay, sort_keys=True) + "\n")
        return EXIT_GEOMETRY
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
