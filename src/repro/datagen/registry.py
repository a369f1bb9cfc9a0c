"""Dataset registry — the paper's Tables 5 & 7, scaled.

``make(name, scale)`` generates one of the five characterization
datasets of Table 7 (four real-world sources + LDBC), sized at ``scale``
times the repository defaults (which are the paper's vertex counts
divided by ~250, matching the cache scaling of ``SCALED_XEON`` — see
DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..core.taxonomy import DataSource
from .information import knowledge_repo
from .nature import watson_gene
from .rmat import rmat
from .social import ldbc, twitter
from .spec import GraphSpec
from .technology import ca_road


@dataclass(frozen=True)
class DatasetEntry:
    """Registry row: paper-reported size and the scaled generator."""

    name: str
    source: DataSource
    paper_vertices: int          # Table 7 experiment sizes
    paper_edges: int
    default_vertices: int        # repository scaled default
    factory: Callable[..., GraphSpec]


REGISTRY: dict[str, DatasetEntry] = {
    "twitter": DatasetEntry("Twitter Graph (sampled)", DataSource.SOCIAL,
                            11_000_000, 85_000_000, 11000, twitter),
    "knowledge": DatasetEntry("IBM Knowledge Repo", DataSource.INFORMATION,
                              154_000, 1_720_000, 3000, knowledge_repo),
    "watson": DatasetEntry("IBM Watson Gene Graph", DataSource.NATURE,
                           2_000_000, 12_200_000, 8000, watson_gene),
    "roadnet": DatasetEntry("CA Road Network", DataSource.TECHNOLOGY,
                            1_900_000, 2_800_000, 7600, ca_road),
    "ldbc": DatasetEntry("LDBC Graph", DataSource.SYNTHETIC,
                         1_000_000, 28_820_000, 4000, ldbc),
}

GENERATORS: dict[str, Callable[..., GraphSpec]] = {
    "twitter": twitter,
    "knowledge": knowledge_repo,
    "watson": watson_gene,
    "roadnet": ca_road,
    "ldbc": ldbc,
    "rmat": rmat,
}


def scaled_vertices(name: str, scale: float = 1.0) -> int:
    """The vertex count :func:`make` will generate for ``name`` at
    ``scale`` — without generating anything (the mutation write
    factories need the id range up front)."""
    try:
        entry = REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; "
                       f"choose from {sorted(REGISTRY)}") from None
    return max(120, int(entry.default_vertices * scale))


def make(name: str, scale: float = 1.0, seed: int = 0, **kwargs) -> GraphSpec:
    """Generate registry dataset ``name`` at ``scale`` x default size."""
    n = scaled_vertices(name, scale)
    return REGISTRY[name].factory(n, seed=seed, **kwargs)

