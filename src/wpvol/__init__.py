"""Exact Weil-Petersson volumes of moduli spaces of pointed curves.

Volumes V_{g,n} = <kappa_1^(3g-3+n)> are computed two independent ways, the
kappa-to-tau conversion of intersection numbers and closed genus-expansion
series built from the inverse of a Bessel-derivative series, and the package
verifies, coefficient by coefficient in exact rational arithmetic, that the
routes agree, along with the functional equations of the derivative chain and
the large-n growth law.
"""

__version__ = "0.1.0"
