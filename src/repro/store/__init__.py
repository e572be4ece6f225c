"""In-memory triple store substrate.

The original system loads YAGO / LinkedMDB into an Apache Jena triple store
"to perform quick traversals on the graph without loading it into main
memory". This package is the stand-in: a dictionary-encoded, triple-indexed
in-memory store with the same access paths (lookup by any combination of
subject / predicate / object), plus N-Triples and YAGO-TSV IO.
"""

from repro.store.dictionary import TermDictionary
from repro.store.ntriples import parse_ntriples, serialize_ntriples
from repro.store.terms import IRI, Literal, Term
from repro.store.triples import Triple
from repro.store.triplestore import TripleStore
from repro.store.tsv import parse_tsv_facts, serialize_tsv_facts

__all__ = [
    "IRI",
    "Literal",
    "Term",
    "TermDictionary",
    "Triple",
    "TripleStore",
    "parse_ntriples",
    "parse_tsv_facts",
    "serialize_ntriples",
    "serialize_tsv_facts",
]
