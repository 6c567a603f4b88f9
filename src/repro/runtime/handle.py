"""SVD handles (section 2.1).

    "Shared objects are referred to by their SVD handles, opaque
    objects that internally index the SVD.  An SVD handle contains the
    partition number in the directory, and the index of the object in
    the partition."

Handles are *universal*: the same handle names the same shared object
on every node, which is what makes them usable as address-cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Partition number of the ALL partition ("reserved for shared
#: variables allocated statically or through collective operations").
#: The paper numbers it n (after the n thread partitions); a sentinel
#: keeps handles independent of the thread count.
ALL_PARTITION = -1


@dataclass(frozen=True, order=True)
class SVDHandle:
    """(partition, index) — the universal name of a shared object."""

    partition: int
    index: int

    def __post_init__(self) -> None:
        if self.partition < ALL_PARTITION:
            raise ValueError(f"bad partition {self.partition}")
        if self.index < 0:
            raise ValueError(f"bad index {self.index}")
        # Hashed several times per remote op (cache, directory and
        # pinned-table keys), so computed once.  It must stay the value
        # the generated __hash__ returned: set iteration order feeds
        # RANDOM eviction.
        object.__setattr__(self, "_hash",
                           hash((self.partition, self.index)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_all(self) -> bool:
        """True for objects in the collectively-managed ALL partition."""
        return self.partition == ALL_PARTITION

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        part = "ALL" if self.is_all else str(self.partition)
        return f"svd[{part}:{self.index}]"
