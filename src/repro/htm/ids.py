"""Encoding and decoding of HTM identifiers.

An HTM ID names one trixel of the mesh.  The encoding is the standard one
used by the SDSS science archive [Kunszt et al., ADASS 2000]:

* the eight root faces are numbered 8–15 (``S0``–``S3`` are 8–11 and
  ``N0``–``N3`` are 12–15), i.e. a leading ``1`` bit followed by three face
  bits;
* each level of subdivision appends two bits naming the child (0–3).

A level-``L`` ID therefore occupies ``4 + 2·L`` bits; the level-14 IDs that
SkyQuery assigns to every observation fit in 32 bits, which is the form
LifeRaft stores in the fact table and uses to order buckets.
"""

from __future__ import annotations

from typing import Tuple

#: The level at which SkyQuery assigns HTM IDs to observations (paper §3.1).
SKYQUERY_LEVEL = 14


def is_valid_htm_id(htm_id: int) -> bool:
    """Return ``True`` when *htm_id* is a syntactically valid HTM ID."""
    if htm_id < 8:
        return False
    # A valid ID has an even number of bits above the leading "1xxx" face
    # prefix, i.e. bit_length is 4 + 2k for some k >= 0.
    return (htm_id.bit_length() - 4) % 2 == 0


def htm_level(htm_id: int) -> int:
    """Return the subdivision level encoded in *htm_id* (0 for a root face)."""
    if not is_valid_htm_id(htm_id):
        raise ValueError(f"{htm_id} is not a valid HTM ID")
    return (htm_id.bit_length() - 4) // 2


def id_range_at_level(htm_id: int, level: int) -> Tuple[int, int]:
    """Return the inclusive range of descendant IDs of *htm_id* at *level*.

    Because children extend their parent's bit pattern, all descendants of a
    trixel occupy one contiguous interval of IDs at any deeper level — this
    is what makes the HTM numbering a space-filling curve and lets LifeRaft
    express buckets as (start, end) HTM ID pairs.
    """
    own_level = htm_level(htm_id)
    if level < own_level:
        raise ValueError(f"level {level} is shallower than the ID's level {own_level}")
    shift = 2 * (level - own_level)
    low = htm_id << shift
    high = ((htm_id + 1) << shift) - 1
    return low, high


def root_face_ids() -> Tuple[int, ...]:
    """Return the IDs of the eight root faces (8 through 15)."""
    return tuple(range(8, 16))

