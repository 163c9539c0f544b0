"""Command-line front end: peaks files in, JSON documents out.

A *peaks file* is JSON ``{"peaks": [[q1,q2,q3], ...], "kind": "roof"}``;
kind ``roof`` (the default) closes the generators under the roof
operation on load, ``cone`` takes them as-is.  Trajectories are emitted
as one JSON document per line with fields ``closed``, ``length``,
``tiles`` (text form ``q1,q2,q3:d1d2``), ``code`` and ``charts``.

Exit codes: 0 success; 1 usage or malformed input; 2 geometric
inconsistency (fork, dead end, failed reconstruction); 3 a walk did not
close within ``--max-steps`` (the truncated walk is still emitted).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .cones import ConjUpSet, StdUpSet, conj_roof_generators, roof_add, std_roof_generators
from .dynamics import (
    chart_cover,
    closed_trajectories_of_roof,
    decode,
    encode,
    trace,
)
from .errors import GeometryError
from .lattice import QPoint
from .render import ascii_picture, svg_picture
from .surface import Window, classify, norm, seed_window, surface_tiles
from .tiles import SlantTile, parse_tile

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GEOMETRY = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is taken by geometry errors here.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def _load_peaks(path: str) -> tuple[list[QPoint], str]:
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
    points = []
    for p in peaks:
        # bool is a subclass of int, but true/false are not coordinates
        if not (
            isinstance(p, list)
            and len(p) == 3
            and all(isinstance(c, int) and not isinstance(c, bool) for c in p)
        ):
            raise ValueError(f"bad peak {p!r}")
        points.append(QPoint(*p))
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
        u_min, u_max = (int(x) for x in upart.split(":"))
        v_min, v_max = (int(x) for x in vpart.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad window {text!r}, expected uMIN:uMAX,vMIN:vMAX"
        ) from exc
    if u_min > u_max or v_min > v_max:
        raise argparse.ArgumentTypeError(f"empty window {text!r}")
    return Window(u_min, u_max, v_min, v_max)


def _max_steps(text: str) -> int:
    try:
        steps = int(text)
        if steps >= 1:
            return steps
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _traj_doc(tiles: Sequence[SlantTile], closed: bool, code: str) -> dict:
    charts = chart_cover(list(tiles))
    return {
        "closed": closed,
        "length": len(tiles),
        "tiles": [s.text() for s in tiles],
        "code": code,
        "charts": [
            {"peaks": [list(g) for g in c.cone.generators], "span": [c.start, c.stop]}
            for c in charts
        ],
    }


def _cmd_surface(args) -> int:
    w = _conj_region(args.peaks)
    window = args.window or seed_window(list(w.generators))
    tiles = surface_tiles(w, window)
    _emit({"tiles": [s.text() for s in tiles]})
    return EXIT_OK


def _cmd_trajectories(args) -> int:
    w = _conj_region(args.peaks)
    if args.all == (args.start is not None):
        raise ValueError("exactly one of --all and --start is required")
    if args.all:
        if args.max_steps is not None:
            raise ValueError("--max-steps applies to --start only")
        for traj in closed_trajectories_of_roof(w):
            _emit(_traj_doc(traj.tiles, traj.closed, encode(traj, args.start_sign)))
        return EXIT_OK
    steps = 1000 if args.max_steps is None else args.max_steps
    traj = trace(w, parse_tile(args.start), max_steps=steps)
    _emit(_traj_doc(traj.tiles, traj.closed, encode(traj, args.start_sign)))
    return EXIT_OK if traj.closed else EXIT_BUDGET


def _cmd_encode(args) -> int:
    w = _conj_region(args.peaks)
    traj = trace(w, parse_tile(args.start), max_steps=args.max_steps)
    sys.stdout.write(encode(traj, args.start_sign) + "\n")
    return EXIT_OK if traj.closed else EXIT_BUDGET


def _cmd_decode(args) -> int:
    tiles = decode(args.code, parse_tile(args.start))
    _emit(_traj_doc(tiles, False, args.code))
    return EXIT_OK


def _cmd_roof_add(args) -> int:
    total: ConjUpSet | None = None
    for path in args.files:
        points, _ = _load_peaks(path)
        region = conj_roof_generators(points)
        total = region if total is None else roof_add(total, region)
    assert total is not None
    _emit({"peaks": [list(g) for g in total.generators], "kind": "roof"})
    return EXIT_OK


def _cmd_norm(args) -> int:
    w = _conj_region(args.peaks)
    flats = norm(w)
    docs = []
    for traj in closed_trajectories_of_roof(w):
        docs.append(_traj_doc(traj.tiles, traj.closed, encode(traj, args.start_sign)))
    _emit({"norm": [t.text() for t in flats], "trajectories": docs})
    return EXIT_OK


def _cmd_classify(args) -> int:
    w1 = _conj_region(args.peaks)
    w2 = _std_region(args.std_peaks)
    window = args.window or seed_window(list(w1.generators))
    cl = classify(w1, w2, window)
    _emit(
        {
            "in": [s.text() for s in cl.in_tiles],
            "out": [s.text() for s in cl.out_tiles],
            "bd": [s.text() for s in cl.bd_tiles],
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
    if isinstance(doc.get("tiles"), list):
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
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            doc = _parse_json(fh.read())
    else:
        doc = _parse_json(sys.stdin.read() or "{}")
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True) + "\n"
    else:
        pairs = _doc_tiles(doc)
        text = svg_picture(pairs) if args.format == "svg" else ascii_picture(pairs)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    sp.add_argument("--window", type=_parse_window)

    sp = add("trajectories", _cmd_trajectories, "trace trajectories on a surface")
    sp.add_argument("--peaks", required=True)
    sp.add_argument("--all", action="store_true", help="all closed trajectories of the roof")
    sp.add_argument("--start", help="start tile, e.g. 1,1,0:31")
    sp.add_argument(
        "--max-steps", type=_max_steps, help="tile budget of the --start walk (default 1000)"
    )
    sp.add_argument("--start-sign", choices=("U", "D"), default="D")

    sp = add("encode", _cmd_encode, "U/D code of a traced trajectory")
    sp.add_argument("--peaks", required=True)
    sp.add_argument("--start", required=True)
    sp.add_argument(
        "--max-steps", type=_max_steps, default=1000, help="tile budget of the walk (default 1000)"
    )
    sp.add_argument("--start-sign", choices=("U", "D"), default="D")

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
    sp.add_argument("--start-sign", choices=("U", "D"), default="D")

    sp = add("classify", _cmd_classify, "In/Out/Bd decomposition over a window")
    sp.add_argument("--peaks", required=True)
    sp.add_argument("--std-peaks", required=True)
    sp.add_argument("--window", type=_parse_window)

    sp = add("render", _cmd_render, "draw a document as SVG or ASCII")
    sp.add_argument("-i", "--input", help="document file (default: stdin)")
    sp.add_argument("--format", choices=("svg", "ascii", "json"), default="svg")
    sp.add_argument("-o", "--output")

    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        if isinstance(exc.code, str):
            sys.stderr.write(exc.code + "\n")
        return EXIT_USAGE
    except GeometryError as exc:
        sys.stderr.write(f"geometry error: {exc}\n")
        return EXIT_GEOMETRY
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
