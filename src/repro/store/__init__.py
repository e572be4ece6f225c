"""RDF term model and the N-Triples / YAGO-TSV parsers and writers.

The original system loads YAGO / LinkedMDB into an Apache Jena triple
store "to perform quick traversals on the graph without loading it into
main memory". In this repository that job is done by the mmap'd snapshot
store (:mod:`repro.disk`); this package keeps what reads and writes the
dumps: IRIs and literals, the :class:`Triple` statement, and the
N-Triples and TSV line parsers that :mod:`repro.disk.ingest`,
:mod:`repro.disk.delta` and :mod:`repro.graph.io` stream through.
"""

from repro.store.ntriples import parse_ntriples, serialize_ntriples
from repro.store.terms import IRI, Literal, Term
from repro.store.triples import Triple
from repro.store.tsv import parse_tsv_facts, serialize_tsv_facts

__all__ = [
    "IRI",
    "Literal",
    "Term",
    "Triple",
    "parse_ntriples",
    "parse_tsv_facts",
    "serialize_ntriples",
    "serialize_tsv_facts",
]
