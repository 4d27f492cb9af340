"""Device state that ``copy.deepcopy`` clones as an exact, fast replay.

E16/E17 warm a device once and measure each fault arm on a copy of it
(:mod:`repro.fleet.rack`), and E3, E11 and A3 time each arm on a
:func:`replay_copy` of one warmed core, so a copy must be a replay of its
original (victim ties go to the lowest id, DESIGN.md §6) and must run as
fast.
Two things in the default copy protocol stand in the way:

- a ``*_v`` memoryview (DESIGN.md §6, "Scalar state reads through a
  view") cannot be copied at all, and must name the *copied* array;
- the default reconstruction, ``__dict__.update(state)``, materialises
  the new instance's dict, and CPython 3.11 then reads its attributes
  slower than the inline values a normal constructor leaves: an E16/E17
  measured phase on such copies ran 4-8% slower (CPython 3.11.7).

:class:`Replayable` fixes both for the classes that inherit it.
"""

from __future__ import annotations

import copy
from typing import Any


class Replayable:
    """Copies drop each ``name_v`` memoryview and rebuild it over ``name``.

    Reconstruction assigns the attributes one by one, in their original
    order, so a copy keeps the attribute layout of a constructed object.
    """

    def __getstate__(self) -> dict[str, Any]:
        return {
            name: None if type(value) is memoryview else value
            for name, value in self.__dict__.items()
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            if value is None and name.endswith("_v"):
                value = memoryview(getattr(self, name[:-2]))
            setattr(self, name, value)


def replay_copy(stack: Any) -> Any:
    """A deep copy of ``stack`` that publishes on the same tracer: one warm-up
    serves every arm measured on a copy, and the bus sees it once."""
    return copy.deepcopy(stack, {id(stack.tracer): stack.tracer})


__all__ = ["Replayable", "replay_copy"]
