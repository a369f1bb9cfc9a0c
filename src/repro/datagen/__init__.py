"""Dataset generators for all four GraphBIG data-source types plus the
LDBC-style synthetic social generator and R-MAT (Tables 2, 5, 7)."""

from .information import knowledge_repo
from .nature import ENTITY_TYPES, watson_gene
from .registry import REGISTRY, DatasetEntry, make
from .rmat import rmat
from .social import ldbc, twitter
from .spec import GraphSpec
from .technology import ca_road

__all__ = [
    "ENTITY_TYPES", "REGISTRY", "DatasetEntry", "GraphSpec", "ca_road",
    "knowledge_repo", "ldbc", "make", "rmat",
    "twitter", "watson_gene",
]
