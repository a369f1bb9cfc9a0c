"""Property schemas for vertices and edges.

GraphBIG's framework represents graphs as *property graphs*: user-defined
properties are associated with each vertex and edge (Section 2, "Framework").
Properties can be plain scalars (BFS level, color), or pointers to large
out-of-struct payloads (Bayesian CPTs, profile blobs).

A :class:`Schema` fixes the in-struct memory layout of the property area so
that the simulated heap (:mod:`repro.core.memmodel`) can assign a byte offset
to every property access.  This is what lets the architecture simulator see
the *same* address stream a C++ vertex-centric framework would generate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import SchemaError


@dataclass(frozen=True)
class Field:
    """One property slot in a schema.

    Parameters
    ----------
    name:
        Property name used by workloads (``g.vprop(v, "level")``).
    size:
        Size of the in-struct slot in bytes (8 for scalars/pointers).
    payload:
        If nonzero, the slot is a pointer to a separately-allocated payload
        of ``payload`` bytes (per-vertex, e.g. a CPT).  Reads/writes of
        payload elements are traced against the payload block's addresses.
    default:
        Initial Python value of the slot.
    """

    name: str
    size: int = 8
    payload: int = 0
    default: Any = None

    def __post_init__(self):
        if self.size <= 0:
            raise SchemaError(f"field {self.name!r}: size must be positive")
        if self.payload < 0:
            raise SchemaError(f"field {self.name!r}: payload must be >= 0")


class Schema:
    """Ordered collection of :class:`Field` with a fixed byte layout.

    The layout packs fields back to back with 8-byte alignment, matching the
    packed property area inside a vertex/edge struct of the vertex-centric
    representation (paper Fig. 2(c)).
    """

    __slots__ = ("fields", "offsets", "index", "nbytes")

    def __init__(self, fields: list[Field] | None = None):
        self.fields: tuple[Field, ...] = tuple(fields or ())
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in {names}")
        self.offsets: dict[str, int] = {}
        self.index: dict[str, int] = {}
        off = 0
        for i, f in enumerate(self.fields):
            aligned = (off + 7) & ~7
            self.offsets[f.name] = aligned
            self.index[f.name] = i
            off = aligned + f.size
        self.nbytes = (off + 7) & ~7

    def __len__(self) -> int:
        return len(self.fields)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def slot(self, name: str) -> int:
        """Return the slot index of ``name`` (raises :class:`SchemaError`)."""
        try:
            return self.index[name]
        except KeyError:
            raise SchemaError(f"unknown property {name!r}") from None

    def offset(self, name: str) -> int:
        """Return the byte offset of ``name`` inside the property area."""
        try:
            return self.offsets[name]
        except KeyError:
            raise SchemaError(f"unknown property {name!r}") from None

    def defaults(self) -> list[Any]:
        """Fresh list of default values, one per slot."""
        return [f.default for f in self.fields]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(f.name for f in self.fields)
        return f"Schema([{names}], nbytes={self.nbytes})"


#: Schema with no properties — graphs used purely for topology.
EMPTY_SCHEMA = Schema()
