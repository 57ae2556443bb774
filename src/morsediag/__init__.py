"""morsediag: combinatorial invariants of Morse flows with fixed points on
the boundary of oriented 3-manifolds.

Surfaces with curve systems are encoded as labeled combinatorial maps
(:mod:`morsediag.combmap`), optimal handlebody flows as colored chord
diagrams (:mod:`morsediag.chord`), and the full flow invariant as a surface
plus four curve families (:mod:`morsediag.prdiag`).  Classification results
are persisted through :mod:`morsediag.catalog` and exposed on the command
line through :mod:`morsediag.cli`.
"""

__version__ = "0.1.0"

from .combmap import (  # noqa: F401
    CombMap,
    CurveKind,
    CurveLabel,
    EmbeddedCurve,
    build_map,
    canonical_code,
    components,
    euler_genus,
    faces,
    map_from_json,
    map_to_json,
)
from .chord import (  # noqa: F401
    CatalogReport,
    ChordDiagram,
    ColoredChordDiagram,
    SymmetryConvention,
    canonical_chord,
    classify,
    enumerate_bases,
    enumerate_colorings,
    face_count,
    is_one_face,
    is_river,
)
from .prdiag import (  # noqa: F401
    BoundaryFlowGraph,
    Census,
    FixedPointType,
    PrDiagram,
    ValidityReport,
    boundary_restriction,
    census,
    equivalent,
    from_colored_chord,
    is_optimal,
    morse_checks,
    to_colored_chord,
    validate,
)
from .catalog import (  # noqa: F401
    CatalogEntry,
    load_catalog,
    save_catalog,
    verify_fixtures,
)
