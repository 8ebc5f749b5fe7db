"""Integer combinatorial link Floer chain complexes from grid diagrams.

The sign refinement comes from the spin double cover of the symmetric
group: rectangles act by right multiplication with lifted transpositions
and the central element is identified with -1.  The package holds only
what the command line runs; the reference oracles it is checked against
(the Clifford model of the double cover, the GF(2) homology, the naive
rectangle geometry, the transform-carrying Smith form, the full hat peel,
the gauge search between sign assignments and the minus complex on
double-cover elements with its cyclic chain isomorphisms) and the sample
grids live with the tests.

The submodules are the API: ``grid`` (diagrams, gradings, rectangles),
``spin`` (the double cover), ``complexes`` (the rectangle table and the
sign checks), ``homology`` (Smith form, tilde and hat homology, Alexander
polynomials), ``moves`` (grid moves and the invariance report) and
``cli``.  The package itself re-exports nothing.
"""

__version__ = "0.1.0"
