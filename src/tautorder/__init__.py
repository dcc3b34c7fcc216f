"""Exact-arithmetic cross-verification of torsion orders, zeta special values,
symplectic group orders, and truncated characteristic-class identities.

The package exports exactly the union of its modules' `__all__`, `cli` aside."""
from .bernoulli_zeta import *
from .chern_symbolics import *
from .exact_arith import *
from .finite_field_checks import *
from .group_orders import *
from .torsion_orders import *
from .verify import *

__version__ = "0.1.0"
