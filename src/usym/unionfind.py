"""Orbit partitions of a finite group acting on integer indices, the group
given whole as one index map per element: no union-find is needed."""

from __future__ import annotations

from typing import Callable, Sequence


def orbit_partition(
    size: int, actions: Sequence[Callable[[int], int]]
) -> tuple[tuple[int, ...], ...]:
    """Orbits of indices 0..size-1 under a group given by one index map per
    element, each sorted, ordered by minimum: each orbit is read off the
    least index not yet in one.  Raises RuntimeError when the maps do not
    act as a group: x is not among its own images, or an image of x already
    lies in an earlier orbit."""
    seen: set[int] = set()
    orbits = []
    for x in range(size):
        if x in seen:
            continue
        images = {act(x) for act in actions}
        if x not in images or not seen.isdisjoint(images):
            raise RuntimeError("the index maps do not act as a group")
        seen |= images
        orbits.append(tuple(sorted(images)))
    return tuple(orbits)
