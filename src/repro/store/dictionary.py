"""Dictionary encoding of terms to dense integer ids.

Triple stores dictionary-encode terms so indexes operate on integers.
Ids are dense, start at 0 and are stable for the lifetime of the dictionary,
which lets downstream components (the knowledge-graph adjacency matrices)
use them directly as array offsets.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.store.terms import Term


class TermDictionary:
    """Bidirectional mapping ``Term <-> int``.

    >>> from repro.store.terms import IRI
    >>> d = TermDictionary()
    >>> d.encode(IRI("a"))
    0
    >>> d.encode(IRI("b"))
    1
    >>> d.encode(IRI("a"))   # idempotent
    0
    >>> str(d.decode(1))
    'b'
    """

    __slots__ = ("_term_to_id", "_id_to_term")

    def __init__(self) -> None:
        self._term_to_id: dict[Term, int] = {}
        self._id_to_term: list[Term] = []

    def encode(self, term: Term) -> int:
        """Return the id for ``term``, assigning a fresh one if needed."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def encode_many(self, terms: "list[Term] | tuple[Term, ...]") -> list[int]:
        """Encode each term in order (assigning ids to unseen ones)."""
        return [self.encode(t) for t in terms]

    def lookup(self, term: Term) -> int | None:
        """Return the id for ``term`` or ``None`` when unseen."""
        return self._term_to_id.get(term)

    def decode(self, term_id: int) -> Term:
        """Return the term for ``term_id`` (raises ``IndexError`` if unknown)."""
        if term_id < 0:
            raise IndexError(f"term id must be non-negative, got {term_id}")
        return self._id_to_term[term_id]

    def __contains__(self, term: object) -> bool:
        return term in self._term_to_id

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __iter__(self) -> Iterator[Term]:
        return iter(self._id_to_term)

    def items(self) -> Iterator[tuple[Term, int]]:
        """Iterate ``(term, id)`` pairs in id order."""
        return iter(self._term_to_id.items())
