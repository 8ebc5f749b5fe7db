"""Reference sign formulas that read the cocycle in other argument orders.

The program's sign of the empty rectangle r with label (a, b) out of x is
eps(r) * c(x, t), where t = x^-1 y is the plain transposition (a b), c the
cocycle of the double cover and eps(r) = -1 exactly for horizontally torn
rectangles.  The argument order follows the composition convention for
words, and these two formulas show that it matters:

* ``reversed_sign``: eps(r) * c(t, x^-1), the same construction with words
  read in the opposite order.  It is a genuine sign assignment, related to
  the program's by a 1-coboundary but not equal to it.
* ``swapped_sign``: eps(r) * c(t, x), the bare argument swap under this
  convention.  It fails the annulus axioms.

Both have the ``(x, label) -> +-1`` shape that ``check_sign_axioms`` and
``check_coboundary_equivalence`` take.
"""
from gridspin.grid import is_horizontally_torn
from gridspin.spin import cocycle, inverse_perm, transposition


def _eps(label):
    return -1 if is_horizontally_torn(label) else 1


def reversed_sign(x, label):
    return _eps(label) * cocycle(transposition(len(x), *label), inverse_perm(x))


def swapped_sign(x, label):
    return _eps(label) * cocycle(transposition(len(x), *label), x)
