"""Integer combinatorial link Floer chain complexes from grid diagrams.

The sign refinement comes from the spin double cover of the symmetric
group: rectangles act by right multiplication with lifted transpositions
and the central element is identified with -1.  The package holds only
what the command line runs; the reference oracles it is checked against
(the Clifford model of the double cover, the GF(2) homology, the naive
rectangle geometry, the transform-carrying Smith form, the full hat peel,
the gauge search between sign assignments and the minus complex on
double-cover elements with its cyclic chain isomorphisms) live with the
tests.
"""

from .complexes import (
    check_sign_axioms,
    rectangle_table,
)
from .grid import (
    ComponentData,
    GridDiagram,
    GridError,
    alexander2,
    empty_rectangles,
    maslov,
    parse_grid_text,
    trace_components,
    validate,
)
from .homology import (
    Bigrading,
    HomologySummary,
    Laurent,
    NotDivisible,
    SmithForm,
    alexander_polynomial,
    bigraded_homology,
    hat_homology,
    smith_normal_form,
    tilde_homology,
)
from .moves import (
    MoveError,
    MoveSpec,
    apply_move,
    apply_script,
    invariance_report,
    parse_move,
    parse_script,
)
from .spin import (
    SpinElement,
    canonical_word,
    cocycle,
    compose,
    lift,
    multiply,
    section,
)

__version__ = "0.1.0"
