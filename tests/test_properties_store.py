"""Property-based tests (hypothesis) for the N-Triples writer and parser.

Invariant: serializing distinct sorted triples and parsing the text back
yields the same triples in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.terms import IRI
from repro.store.triples import Triple

# small vocabularies force collisions
subjects = st.sampled_from([IRI(f"s{i}") for i in range(5)])
predicates = st.sampled_from([IRI(f"p{i}") for i in range(3)])
objects = st.sampled_from([IRI(f"o{i}") for i in range(5)])
triples = st.builds(Triple, subjects, predicates, objects)


@given(st.lists(triples, max_size=30))
@settings(max_examples=40, deadline=None)
def test_ntriples_round_trip(batch):
    from repro.store.ntriples import parse_ntriples, serialize_ntriples

    distinct = sorted(set(batch))
    text = serialize_ntriples(distinct)
    assert list(parse_ntriples(text)) == distinct
