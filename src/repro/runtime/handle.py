"""SVD handles (section 2.1).

    "Shared objects are referred to by their SVD handles, opaque
    objects that internally index the SVD.  An SVD handle contains the
    partition number in the directory, and the index of the object in
    the partition."

Handles are *universal*: the same handle names the same shared object
on every node, which is what makes them usable as address-cache keys.
"""

from __future__ import annotations

from typing import NamedTuple

#: Partition number of the ALL partition ("reserved for shared
#: variables allocated statically or through collective operations").
#: The paper numbers it n (after the n thread partitions); a sentinel
#: keeps handles independent of the thread count.
ALL_PARTITION = -1


class SVDHandle(NamedTuple("SVDHandle", [("partition", int),
                                         ("index", int)])):
    """(partition, index) — the universal name of a shared object.

    A tuple, so the several hashes per remote op (cache, directory and
    pinned-table keys) run in C.  Its hash is ``hash((partition,
    index))``, and must stay so: set iteration order feeds RANDOM
    eviction.
    """

    __slots__ = ()

    def __new__(cls, partition: int, index: int) -> "SVDHandle":
        if partition < ALL_PARTITION:
            raise ValueError(f"bad partition {partition}")
        if index < 0:
            raise ValueError(f"bad index {index}")
        return super().__new__(cls, partition, index)

    @property
    def is_all(self) -> bool:
        """True for objects in the collectively-managed ALL partition."""
        return self.partition == ALL_PARTITION

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        part = "ALL" if self.is_all else str(self.partition)
        return f"svd[{part}:{self.index}]"
