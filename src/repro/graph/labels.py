"""Edge-label conventions.

The paper assumes that "for every edge e with type psi(e) = l exists a
reverse edge e^-1 with psi(e^-1) = l^-1", modelling pairs such as
``presidentOf`` / ``hasPresident``. We realise ``l^-1`` as the label string
with an ``_inv`` suffix; inverting twice returns the base label.
"""

from __future__ import annotations

INVERSE_SUFFIX = "_inv"

#: The label connecting an entity to its type node (rdf:type in YAGO).
TYPE_LABEL = "type"

#: The label connecting a type node to its super-type (rdfs:subClassOf).
SUBCLASS_OF_LABEL = "subclassOf"


def inverse_label(label: str) -> str:
    """Return ``l^-1`` for ``l`` — an involution.

    >>> inverse_label("hasChild")
    'hasChild_inv'
    >>> inverse_label(inverse_label("hasChild"))
    'hasChild'
    """
    if not label:
        raise ValueError("edge label must not be empty")
    if label.endswith(INVERSE_SUFFIX):
        return label[: -len(INVERSE_SUFFIX)]
    return label + INVERSE_SUFFIX


def is_inverse_label(label: str) -> bool:
    """Whether ``label`` denotes a reverse edge.

    >>> is_inverse_label("hasChild_inv")
    True
    >>> is_inverse_label("hasChild")
    False
    """
    return label.endswith(INVERSE_SUFFIX)


def base_label(label: str) -> str:
    """Strip an inverse marker if present.

    >>> base_label("hasChild_inv")
    'hasChild'
    >>> base_label("hasChild")
    'hasChild'
    """
    if is_inverse_label(label):
        return label[: -len(INVERSE_SUFFIX)]
    return label


class LabelTable:
    """Interns label strings to dense integer ids (and back).

    Adjacency structures key on label ids so that long label strings are
    stored once. Ids are dense and allocated in first-intern order.
    """

    __slots__ = ("_label_to_id", "_id_to_label")

    def __init__(self) -> None:
        self._label_to_id: dict[str, int] = {}
        self._id_to_label: list[str] = []

    def intern(self, label: str) -> int:
        """The id of ``label``, allocating the next dense id on first sight."""
        existing = self._label_to_id.get(label)
        if existing is not None:
            return existing
        new_id = len(self._id_to_label)
        self._label_to_id[label] = new_id
        self._id_to_label.append(label)
        return new_id

    def lookup(self, label: str) -> int | None:
        """The id of ``label``, or ``None`` when it was never interned."""
        return self._label_to_id.get(label)

    def name(self, label_id: int) -> str:
        """The label string of ``label_id`` (IndexError when out of range)."""
        if label_id < 0:
            raise IndexError(f"label id must be non-negative, got {label_id}")
        return self._id_to_label[label_id]

    def __contains__(self, label: object) -> bool:
        return label in self._label_to_id

    def __len__(self) -> int:
        return len(self._id_to_label)

    def __iter__(self):
        return iter(self._id_to_label)
