"""repro — Notable Characteristics Search through Knowledge Graphs.

A complete, from-scratch reproduction of Mottin et al., EDBT 2018
(arXiv:1802.04060): given a small set of query entities in a knowledge
graph, find the *notable characteristics* — the properties whose
distribution over the query deviates significantly from the distribution
over similar entities (the *context*).

Quick start::

    from repro import FindNC
    from repro.datasets import figure1_graph

    graph = figure1_graph()
    finder = FindNC(graph, context_size=3, rng=7)
    result = finder.run(["Angela_Merkel", "Barack_Obama"])
    print(result.summary(graph))

Package map:

* :mod:`repro.core` — context selection + FindNC (the contribution)
* :mod:`repro.graph` — knowledge-graph model (Definition 1)
* :mod:`repro.store` — RDF terms and the N-Triples / TSV parsers
* :mod:`repro.walk` — random walks / PPR / metapath mining
* :mod:`repro.stats` — multinomial test and divergences
* :mod:`repro.datasets` — synthetic YAGO & LinkedMDB + ground truth
* :mod:`repro.eval` — metrics and the per-figure experiment harness
* :mod:`repro.service` — concurrent query engine + cache + HTTP API
  (``repro serve``)
* :mod:`repro.disk` — the snapshot format (writer, mmap reader, graph
  view, ``freeze_graph``), bulk ingest, and the versioned
  :class:`~repro.disk.registry.SnapshotRegistry` behind multi-version
  hot-swap serving (``repro publish`` / ``POST /admin/reload``)
"""

from repro.core.context import ContextResult, ContextRW, ContextSelector, RandomWalkContext
from repro.core.discrimination import (
    DiscriminationResult,
    Discriminator,
    EMDDiscriminator,
    KLDiscriminator,
    MultinomialDiscriminator,
)
from repro.core.distributions import (
    CharacteristicDistributions,
    build_all_distributions,
    build_distributions,
)
from repro.core.findnc import FindNC, FindNCResult, NotableCharacteristic, rw_mult
from repro.errors import ReproError
from repro.graph.builder import GraphBuilder
from repro.graph.model import KnowledgeGraph
from repro.service.engine import NCEngine, SearchOutcome, SwapOutcome

__version__ = "8.0.0"

__all__ = [
    "CharacteristicDistributions",
    "ContextResult",
    "ContextRW",
    "ContextSelector",
    "DiscriminationResult",
    "Discriminator",
    "EMDDiscriminator",
    "FindNC",
    "FindNCResult",
    "GraphBuilder",
    "KLDiscriminator",
    "KnowledgeGraph",
    "MultinomialDiscriminator",
    "NCEngine",
    "NotableCharacteristic",
    "RandomWalkContext",
    "ReproError",
    "SearchOutcome",
    "SwapOutcome",
    "__version__",
    "build_all_distributions",
    "build_distributions",
    "rw_mult",
]
