"""Triple indexes over dictionary-encoded ids.

Three orderings (SPO, POS, OSP) cover all eight triple-pattern shapes with
at most one index scan, the classical design of in-memory RDF stores
(Hexastore keeps six orderings; three suffice because each pattern with two
bound positions is served by the index whose prefix matches them).
"""

from __future__ import annotations

from collections.abc import Iterator


class TwoLevelIndex:
    """Nested mapping ``first -> second -> set(third)``.

    Encodes one ordering of the triple components. Look-ups bind a prefix of
    the ordering: no components (full scan), the first, the first two, or all
    three (membership test).
    """

    __slots__ = ("_index", "_size")

    def __init__(self) -> None:
        self._index: dict[int, dict[int, set[int]]] = {}
        self._size = 0

    def add(self, first: int, second: int, third: int) -> bool:
        """Insert; return ``True`` if the entry was new."""
        level2 = self._index.setdefault(first, {})
        level3 = level2.setdefault(second, set())
        before = len(level3)
        level3.add(third)
        added = len(level3) != before
        if added:
            self._size += 1
        return added

    def remove(self, first: int, second: int, third: int) -> bool:
        """Delete; return ``True`` if the entry existed."""
        level2 = self._index.get(first)
        if level2 is None:
            return False
        level3 = level2.get(second)
        if level3 is None or third not in level3:
            return False
        level3.discard(third)
        if not level3:
            del level2[second]
            if not level2:
                del self._index[first]
        self._size -= 1
        return True

    def contains(self, first: int, second: int, third: int) -> bool:
        """Whether the id triple ``(first, second, third)`` is indexed."""
        level2 = self._index.get(first)
        if level2 is None:
            return False
        level3 = level2.get(second)
        return level3 is not None and third in level3

    def scan(
        self, first: int | None = None, second: int | None = None
    ) -> Iterator[tuple[int, int, int]]:
        """Iterate entries matching a bound prefix.

        ``second`` may only be bound when ``first`` is bound — that is the
        contract that makes three orderings sufficient.
        """
        if first is None:
            if second is not None:
                raise ValueError("cannot bind the second component without the first")
            for f, level2 in self._index.items():
                for s, level3 in level2.items():
                    for t in level3:
                        yield (f, s, t)
            return
        level2 = self._index.get(first)
        if level2 is None:
            return
        if second is None:
            for s, level3 in level2.items():
                for t in level3:
                    yield (first, s, t)
            return
        level3 = level2.get(second)
        if level3 is None:
            return
        for t in level3:
            yield (first, second, t)

    def firsts(self) -> Iterator[int]:
        """Iterate the distinct first components."""
        return iter(self._index.keys())

    def seconds(self, first: int) -> Iterator[int]:
        """Iterate the distinct second components under ``first``."""
        return iter(self._index.get(first, {}).keys())

    def count(self, first: int | None = None, second: int | None = None) -> int:
        """Number of entries under the bound prefix (O(prefix fan-out))."""
        if first is None:
            return self._size
        level2 = self._index.get(first)
        if level2 is None:
            return 0
        if second is None:
            return sum(len(level3) for level3 in level2.values())
        return len(level2.get(second, ()))

    def __len__(self) -> int:
        return self._size
