"""Point/vertex names: the one grammar they follow, and canonical block order."""

from __future__ import annotations

from typing import Iterable, Sequence


def check_names(names: Sequence[object], what: str) -> None:
    """Raise ValueError unless every name survives a document round trip.

    The text formats split lines on whitespace and skip lines that start
    with '#', so a name must be a non-empty str with no whitespace that
    does not start with '#'.  Names must also be distinct.
    """
    for name in names:
        if not isinstance(name, str) or name.split() != [name] or name.startswith("#"):
            raise ValueError(
                f"{what} must be non-empty strings without whitespace "
                f"that do not start with '#', got {name!r}"
            )
    if len(set(names)) != len(names):
        raise ValueError(f"{what} must be distinct")


def canonical_blocks(
    blocks: Iterable[frozenset[str]], order: Sequence[str]
) -> tuple[frozenset[str], ...]:
    """Order blocks by the position of their earliest member in `order`.

    Keeps partition/ball-family output deterministic and diffable no
    matter how the blocks were discovered.
    """
    position = {label: i for i, label in enumerate(order)}
    return tuple(sorted(blocks, key=lambda block: min(position[x] for x in block)))


def format_block(block: frozenset[str], order: Sequence[str]) -> str:
    position = {label: i for i, label in enumerate(order)}
    return "{" + ",".join(sorted(block, key=position.__getitem__)) + "}"
