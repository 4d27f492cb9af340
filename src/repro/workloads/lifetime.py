"""Object workloads with correlated lifetimes.

The paper's §4.1 placement argument is about *when data dies*: pages of
the same file, files created together, and files owned by the same
application tend to expire together. This module generates object
create/delete event streams where death times correlate with metadata
(owner, creation batch, declared class), so placement policies
(:mod:`repro.placement`) have real structure to exploit -- or ignore.
"""

from __future__ import annotations

import enum
import heapq
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from repro.sim.rng import make_rng


class LifetimeClass(enum.Enum):
    """Coarse expiry classes with representative mean lifetimes (steps).

    Means are relative: "short" objects (intermediate analytics files,
    cache entries under churn) die orders of magnitude before "long" ones
    (base images, cold archives).
    """

    SHORT = 200.0
    MEDIUM = 2_000.0
    LONG = 20_000.0


class ObjectEvent(NamedTuple):
    """One event in an object stream.

    ``kind`` is 'create' or 'delete'. Creates carry the object's metadata:
    size in pages, owning application id, creation-batch id, and the true
    lifetime class (which only oracle placement may peek at).

    A ``NamedTuple`` rather than a frozen dataclass: fleet workloads
    construct millions of these and the tuple constructor skips the
    per-field ``object.__setattr__`` that ``frozen=True`` pays.
    """

    time: int
    kind: str
    obj_id: int
    size_pages: int = 1
    owner: int = 0
    batch: int = 0
    lifetime_class: LifetimeClass = LifetimeClass.MEDIUM


class ObjectLifetimeWorkload:
    """Generates an interleaved create/delete event stream.

    Each owner (application) has a characteristic lifetime-class mix:
    owner ``i`` draws its objects' classes from a Dirichlet-ish fixed mix,
    so owner identity is *informative about* lifetime without determining
    it -- exactly the "educated guesses" §4.1 describes. Actual lifetimes
    are exponential around the class mean. Objects created in the same
    batch share creation time (intermediate-file behaviour).

    Parameters
    ----------
    num_objects:
        Total objects to create.
    owners:
        Number of distinct applications.
    batch_size:
        Objects created per batch (creations arrive in batches).
    size_pages:
        Pages per object (fixed; callers needing variable sizes can
        post-process).
    lifetime_scale:
        Multiplier on the class mean lifetimes. Experiments tune this so
        the steady-state live set is a target fraction of the (scaled-
        down) device: too small and reclaim never happens, too large and
        the store overflows.
    seed:
        RNG seed.
    """

    # Owner archetypes: probability of (SHORT, MEDIUM, LONG) per owner mod 3.
    _OWNER_MIXES = [
        (0.85, 0.10, 0.05),  # churny: analytics scratch space
        (0.20, 0.60, 0.20),  # mixed: general service
        (0.05, 0.15, 0.80),  # archival: cold store
    ]

    def __init__(
        self,
        num_objects: int = 10_000,
        owners: int = 3,
        batch_size: int = 8,
        size_pages: int = 1,
        lifetime_scale: float = 1.0,
        seed: int | np.random.Generator | None = 0,
    ):
        if num_objects < 1:
            raise ValueError("num_objects must be >= 1")
        if owners < 1:
            raise ValueError("owners must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if lifetime_scale <= 0:
            raise ValueError("lifetime_scale must be > 0")
        self.num_objects = num_objects
        self.owners = owners
        self.batch_size = batch_size
        self.size_pages = size_pages
        self.lifetime_scale = lifetime_scale
        self.rng = make_rng(seed)

    def events(self) -> Iterator[ObjectEvent]:
        """Yield the merged create/delete stream in time order.

        Hot inner loop of the fleet serving benchmarks: rng methods,
        heapq functions and instance attributes are hoisted to locals and
        the class draw is inlined, but the draw *order* (one ``random``
        then one ``exponential`` per object, one ``integers`` per batch)
        is untouched -- the event stream is bit-identical to the naive
        form for any seed.
        """
        pending_deletes: list[tuple[int, int, ObjectEvent]] = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        rng_random = self.rng.random
        rng_exponential = self.rng.exponential
        rng_integers = self.rng.integers
        mixes = self._OWNER_MIXES
        num_mixes = len(mixes)
        num_objects = self.num_objects
        owners = self.owners
        batch_size = self.batch_size
        size_pages = self.size_pages
        lifetime_scale = self.lifetime_scale
        short, medium, long_ = LifetimeClass
        scaled_means = {cls: cls.value * lifetime_scale for cls in LifetimeClass}
        tiebreak = 0
        now = 0
        obj_id = 0
        batch = 0
        while obj_id < num_objects or pending_deletes:
            # Emit any deletions due before the next creation batch.
            while pending_deletes and (
                obj_id >= num_objects or pending_deletes[0][0] <= now
            ):
                _t, _tb, event = heappop(pending_deletes)
                yield event
            if obj_id >= num_objects:
                continue
            owner = int(rng_integers(0, owners))
            mix = mixes[owner % num_mixes]
            for _ in range(min(batch_size, num_objects - obj_id)):
                r = rng_random()
                if r < mix[0]:
                    cls = short
                elif r < mix[0] + mix[1]:
                    cls = medium
                else:
                    cls = long_
                create = ObjectEvent(
                    time=now,
                    kind="create",
                    obj_id=obj_id,
                    size_pages=size_pages,
                    owner=owner,
                    batch=batch,
                    lifetime_class=cls,
                )
                yield create
                lifetime = max(int(rng_exponential(scaled_means[cls])), 1)
                delete = ObjectEvent(
                    time=now + lifetime,
                    kind="delete",
                    obj_id=obj_id,
                    size_pages=size_pages,
                    owner=owner,
                    batch=batch,
                    lifetime_class=cls,
                )
                tiebreak += 1
                heappush(pending_deletes, (delete.time, tiebreak, delete))
                obj_id += 1
            batch += 1
            now += 1


__all__ = ["LifetimeClass", "ObjectEvent", "ObjectLifetimeWorkload"]
