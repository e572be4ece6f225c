"""RDF-like term model: IRIs and literals.

The knowledge graphs of the paper (YAGO, LinkedMDB) are RDF datasets; their
nodes are IRIs (entities) or literals (attribute values such as dates). The
paper's Definition 1 folds attributes into the graph by treating every
attribute value as a node, so both kinds become graph nodes downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Union

from repro.errors import TermError

_IRI_FORBIDDEN = re.compile(r"[<>\"{}|^`\\\s]")


@total_ordering
@dataclass(frozen=True, slots=True)
class IRI:
    """An IRI reference (e.g. ``yago:Angela_Merkel``).

    The store does not enforce full RFC 3987 syntax — YAGO identifiers are
    notoriously liberal — but rejects whitespace and the bracket characters
    used by the N-Triples syntax so serialization round-trips.
    """

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise TermError("IRI must not be empty")
        if _IRI_FORBIDDEN.search(self.value):
            raise TermError(f"IRI contains forbidden character: {self.value!r}")

    @property
    def local_name(self) -> str:
        """The fragment after the last ``/``, ``#`` or ``:`` separator."""
        return re.split(r"[/#:]", self.value)[-1]

    def n3(self) -> str:
        """N-Triples serialization."""
        return f"<{self.value}>"

    def __str__(self) -> str:
        return self.value

    def __lt__(self, other: object) -> bool:
        if isinstance(other, IRI):
            return self.value < other.value
        if isinstance(other, Literal):
            return True  # IRIs sort before literals
        return NotImplemented


_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}
_UNESCAPES = {v: k for k, v in _ESCAPES.items()}


def _escape_literal(text: str) -> str:
    out = []
    for ch in text:
        out.append(_ESCAPES.get(ch, ch))
    return "".join(out)


def unescape_literal(text: str) -> str:
    """Reverse :func:`_escape_literal` (used by the N-Triples parser)."""
    out: list[str] = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            pair = text[i : i + 2]
            if pair in _UNESCAPES:
                out.append(_UNESCAPES[pair])
                i += 2
                continue
            if pair == "\\u" and i + 6 <= len(text):
                out.append(chr(int(text[i + 2 : i + 6], 16)))
                i += 6
                continue
            if pair == "\\U" and i + 10 <= len(text):
                out.append(chr(int(text[i + 2 : i + 10], 16)))
                i += 10
                continue
        out.append(text[i])
        i += 1
    return "".join(out)


@total_ordering
@dataclass(frozen=True, slots=True)
class Literal:
    """A literal value with an optional datatype IRI or language tag."""

    value: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise TermError("a literal cannot carry both datatype and language")

    def n3(self) -> str:
        """The N-Triples form: quoted, escaped, with ``@lang`` or ``^^<type>``."""
        body = f'"{_escape_literal(self.value)}"'
        if self.language:
            return f"{body}@{self.language}"
        if self.datatype:
            return f"{body}^^<{self.datatype}>"
        return body

    def __str__(self) -> str:
        return self.value

    def __lt__(self, other: object) -> bool:
        if isinstance(other, Literal):
            return (self.value, self.datatype or "", self.language or "") < (
                other.value,
                other.datatype or "",
                other.language or "",
            )
        if isinstance(other, IRI):
            return False  # literals sort after IRIs
        return NotImplemented


#: A term in subject/object position.
Term = Union[IRI, Literal]


def coerce_term(value: "Term | str") -> Term:
    """Coerce a bare string into an :class:`IRI` (convenience for builders)."""
    if isinstance(value, (IRI, Literal)):
        return value
    if isinstance(value, str):
        return IRI(value)
    raise TermError(f"cannot interpret {type(value).__name__} as a term")
