"""Sunada triples of finite groups: construction, verification, and search.

The package builds finite groups from permutations, 2x2 modular matrices, or
unit/residue pairs, checks Gassmann equivalence and subgroup conjugacy,
derives combinatorial data of the quotient surfaces of a polygon gluing
(smoothness, exact Euler characteristics, cone points, genus), builds Schreier
coset graphs with labeled digraph isomorphism in direct and arrow-reversed
modes, compares symmetrized adjacency spectra, searches small groups for
Sunada pairs, and ships three verified example constructions.
"""

from . import algebra, catalog, covering, gassmann, schreier, search, spectra, specfile
from .algebra import *
from .catalog import *
from .covering import *
from .gassmann import *
from .schreier import *
from .search import *
from .spectra import *
from .specfile import *

__version__ = "0.1.0"

# Each module's ``__all__`` is the one declaration of its public names.
__all__ = [name for module in (algebra, catalog, covering, gassmann, schreier, search,
                               spectra, specfile)
           for name in module.__all__]
