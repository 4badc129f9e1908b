"""Locality-sensitive MinHash edge pruning for attributed graphs.

The top level holds the library the README documents; everything else is
imported from its submodule (``lsprune.analysis``, ``lsprune.generator``, ...).
"""

from .attrs import build_edge_attrs, embed_scalar_attrs
from .container import iter_container, parse_container_detailed, write_container
from .graph import Graph, build_adjacency
from .hashing import LshFamily, LshFamilyConfig
from .prune import lsp_prune

__version__ = "0.1.0"

# the names imported above; a submodule is not a top-level name
__all__ = [name for name, value in globals().items() if name[0] != "_" and callable(value)]
