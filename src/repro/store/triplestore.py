"""The in-memory triple store.

Supports the full pattern-matching API (any combination of bound
subject / predicate / object), insertion, deletion, bulk loading and
cardinality estimates. All terms are dictionary-encoded; the public API
speaks :class:`~repro.store.terms.Term` objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.store.dictionary import TermDictionary
from repro.store.index import TwoLevelIndex
from repro.store.terms import IRI, Term
from repro.store.triples import Triple


class TripleStore:
    """Dictionary-encoded triple store with SPO / POS / OSP indexes.

    >>> store = TripleStore()
    >>> _ = store.add(Triple.of("merkel", "leaderOf", "germany"))
    >>> store.count(predicate=IRI("leaderOf"))
    1
    """

    def __init__(self, triples: Iterable[Triple] | None = None) -> None:
        self._dictionary = TermDictionary()
        self._spo = TwoLevelIndex()
        self._pos = TwoLevelIndex()
        self._osp = TwoLevelIndex()
        if triples is not None:
            self.add_all(triples)

    # -- mutation ---------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert ``triple``; return ``True`` if it was not present."""
        s = self._dictionary.encode(triple.subject)
        p = self._dictionary.encode(triple.predicate)
        o = self._dictionary.encode(triple.object)
        if not self._spo.add(s, p, o):
            return False
        self._pos.add(p, o, s)
        self._osp.add(o, s, p)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Bulk insert; return the number of *new* triples."""
        return sum(1 for t in triples if self.add(t))

    def remove(self, triple: Triple) -> bool:
        """Delete ``triple``; return ``True`` if it was present."""
        s = self._dictionary.lookup(triple.subject)
        p = self._dictionary.lookup(triple.predicate)
        o = self._dictionary.lookup(triple.object)
        if s is None or p is None or o is None:
            return False
        if not self._spo.remove(s, p, o):
            return False
        self._pos.remove(p, o, s)
        self._osp.remove(o, s, p)
        return True

    # -- lookup -----------------------------------------------------------

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, Triple):
            return False
        s = self._dictionary.lookup(triple.subject)
        p = self._dictionary.lookup(triple.predicate)
        o = self._dictionary.lookup(triple.object)
        if s is None or p is None or o is None:
            return False
        return self._spo.contains(s, p, o)

    def match(
        self,
        subject: IRI | None = None,
        predicate: IRI | None = None,
        obj: Term | None = None,
    ) -> Iterator[Triple]:
        """Iterate all triples matching the bound components.

        Unbound components are ``None``. The index whose ordering matches
        the bound prefix is chosen so every pattern needs one scan:

        ========================  =======
        bound                     index
        ========================  =======
        (none), S, S+P, S+P+O     SPO
        P, P+O                    POS
        O, O+S                    OSP
        ========================  =======
        """
        s = self._lookup_or_none(subject)
        p = self._lookup_or_none(predicate)
        o = self._lookup_or_none(obj)
        # A bound term that is not in the dictionary matches nothing.
        if (subject is not None and s is None) or (
            predicate is not None and p is None
        ) or (obj is not None and o is None):
            return
        decode = self._dictionary.decode
        if s is not None and p is not None and o is not None:
            if self._spo.contains(s, p, o):
                yield Triple(subject, predicate, obj)  # type: ignore[arg-type]
            return
        if s is not None:
            # Predicate may be bound (prefix scan) while the object is also
            # bound (S+O pattern, P free): filter the scan on the object.
            for s_, p_, o_ in self._spo.scan(s, p):
                if o is not None and o_ != o:
                    continue
                yield Triple(decode(s_), decode(p_), decode(o_))  # type: ignore[arg-type]
            return
        if p is not None:
            for p_, o_, s_ in self._pos.scan(p, o):
                yield Triple(decode(s_), decode(p_), decode(o_))  # type: ignore[arg-type]
            return
        if o is not None:
            for o_, s_, p_ in self._osp.scan(o):
                yield Triple(decode(s_), decode(p_), decode(o_))  # type: ignore[arg-type]
            return
        for s_, p_, o_ in self._spo.scan():
            yield Triple(decode(s_), decode(p_), decode(o_))  # type: ignore[arg-type]

    def count(
        self,
        subject: IRI | None = None,
        predicate: IRI | None = None,
        obj: Term | None = None,
    ) -> int:
        """Cardinality of a pattern. O(1) for (), S, P, S+P, P+O; scans else."""
        s = self._lookup_or_none(subject)
        p = self._lookup_or_none(predicate)
        o = self._lookup_or_none(obj)
        if (subject is not None and s is None) or (
            predicate is not None and p is None
        ) or (obj is not None and o is None):
            return 0
        if s is None and p is None and o is None:
            return len(self._spo)
        if s is not None and o is None:
            return self._spo.count(s, p)
        if p is not None and s is None:
            return self._pos.count(p, o)
        if o is not None and p is None:
            return self._osp.count(o, s)
        # S and O bound (P free), or fully bound: fall back to a scan.
        return sum(1 for _ in self.match(subject, predicate, obj))

    # -- vocabulary -------------------------------------------------------

    def subjects(self) -> Iterator[IRI]:
        """Distinct subjects."""
        decode = self._dictionary.decode
        for s in self._spo.firsts():
            yield decode(s)  # type: ignore[misc]

    def predicates(self) -> Iterator[IRI]:
        """Distinct predicates."""
        decode = self._dictionary.decode
        for p in self._pos.firsts():
            yield decode(p)  # type: ignore[misc]

    def objects(self) -> Iterator[Term]:
        """Distinct objects."""
        decode = self._dictionary.decode
        for o in self._osp.firsts():
            yield decode(o)

    def terms(self) -> Iterator[Term]:
        """All terms ever seen (including removed ones — ids are stable)."""
        return iter(self._dictionary)

    @property
    def dictionary(self) -> TermDictionary:
        """The term dictionary that maps terms to the store's integer ids."""
        return self._dictionary

    def __len__(self) -> int:
        return len(self._spo)

    def __iter__(self) -> Iterator[Triple]:
        return self.match()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TripleStore(triples={len(self)}, terms={len(self._dictionary)})"

    # -- internals --------------------------------------------------------

    def _lookup_or_none(self, term: Term | None) -> int | None:
        if term is None:
            return None
        return self._dictionary.lookup(term)
