"""Triple value object."""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from repro.store.terms import IRI, Term, coerce_term


@total_ordering
@dataclass(frozen=True, slots=True)
class Triple:
    """An (subject, predicate, object) statement.

    Subjects are IRIs, predicates are IRIs, objects may be IRIs or literals —
    matching N-Triples minus blank nodes, which neither YAGO facts nor the
    synthetic datasets need.
    """

    subject: IRI
    predicate: IRI
    object: Term

    @classmethod
    def of(cls, subject: "IRI | str", predicate: "IRI | str", obj: "Term | str") -> "Triple":
        """Build a triple, coercing bare strings into IRIs."""
        s = coerce_term(subject)
        p = coerce_term(predicate)
        o = coerce_term(obj)
        if not isinstance(s, IRI):
            raise TypeError("triple subject must be an IRI")
        if not isinstance(p, IRI):
            raise TypeError("triple predicate must be an IRI")
        return cls(s, p, o)

    def n3(self) -> str:
        """The triple as one N-Triples statement, terminated by `` .``."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def as_tuple(self) -> tuple[IRI, IRI, Term]:
        """The ``(subject, predicate, object)`` tuple."""
        return (self.subject, self.predicate, self.object)

    def __iter__(self):
        return iter(self.as_tuple())

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.as_tuple() < other.as_tuple()
