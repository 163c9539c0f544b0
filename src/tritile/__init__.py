"""Exact lattice cones, staircase surfaces, triangle-tile trajectories
and the U/D shape codec, plus the algebra of roofs over them."""

from .cones import (
    ConjUpSet,
    StdUpSet,
    conj_contains,
    conj_height,
    conj_roof_generators,
    is_roof,
    roof_add,
    std_contains,
    std_roof_generators,
)
from .dynamics import (
    Chart,
    Trajectory,
    chart_cover,
    closed_trajectories_of_roof,
    closed_trajectory_roofs,
    decode,
    encode,
    step,
    trace,
)
from .errors import GeometryError
from .lattice import embed, inverse_embed, monomial_text, project
from .surface import (
    Classification,
    Window,
    classify,
    in_tiles_expanded,
    norm,
    on_surface,
    section_at,
    seed_window,
    surface_tiles,
)
from .tiles import (
    FlatTile,
    Port,
    SlantTile,
    flatten,
    gradient,
    parse_tile,
    port_candidates,
    sigma,
    tile,
    tile_text,
    tile_texts,
    vertices,
)

__version__ = "0.1.0"
