"""Typed AST for the pipeline DSL.

Three node kinds cover the whole language: a :class:`Pipeline` is a
source :class:`Stage` (``from <dataset> ...``) plus zero or more
downstream stages, and every stage carries an ordered tuple of
:class:`Arg`.  Args come in two shapes:

* **named** — ``root=42``, ``depth<=3``, ``k>=2``: a name, a comparator
  drawn from ``= < <= > >= !=``, and a scalar value;
* **positional** — ``degree``, ``10``, ``level,parent``: a bare value
  (identifier, number, boolean, or a comma-joined identifier list).

Values are typed at lex time (``int``/``float``/``bool``/``str``/
``tuple[str, ...]``) and :func:`repro.query.parse.unparse` renders them
back losslessly, so ``parse -> unparse -> parse`` is the identity on
ASTs — the canonical text is what the content-addressed plan cache
hashes.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Comparators a named arg may carry (order matters for the lexer:
#: two-character operators must be tried before their one-char prefixes).
COMPARATORS = ("<=", ">=", "!=", "=", "<", ">")

def render_value(value) -> str:
    """Canonical text of one arg value (inverse of the lexer)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, float):
        return repr(value)        # repr round-trips exactly
    return str(value)


@dataclass(frozen=True)
class Arg:
    """One stage argument: ``name cmp value`` or a bare positional
    ``value`` (then ``name is None`` and ``cmp == ""``)."""

    name: "str | None"
    cmp: str
    value: "int | float | bool | str | tuple[str, ...]"

    def __post_init__(self):
        if self.name is not None and self.cmp not in COMPARATORS:
            raise ValueError(f"named arg needs a comparator, got "
                             f"{self.cmp!r}")
        if self.name is None and self.cmp != "":
            raise ValueError("positional arg cannot carry a comparator")

    @property
    def positional(self) -> bool:
        return self.name is None

    def render(self) -> str:
        if self.name is None:
            return render_value(self.value)
        return f"{self.name}{self.cmp}{render_value(self.value)}"


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: a name plus its ordered args."""

    name: str
    args: "tuple[Arg, ...]" = ()

    def named(self, name: str) -> "Arg | None":
        """The first named arg called ``name`` (or None)."""
        for arg in self.args:
            if arg.name == name:
                return arg
        return None

    def positionals(self) -> "tuple[Arg, ...]":
        return tuple(a for a in self.args if a.positional)

    def render(self) -> str:
        parts = [self.name]
        parts.extend(a.render() for a in self.args)
        return " ".join(parts)


@dataclass(frozen=True)
class Pipeline:
    """A whole query: the ``from`` source stage plus the chain."""

    source: Stage
    stages: "tuple[Stage, ...]" = ()

    def render(self) -> str:
        parts = [self.source.render()]
        parts.extend(s.render() for s in self.stages)
        return " | ".join(parts)
