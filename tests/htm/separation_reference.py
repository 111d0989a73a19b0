"""The angular separation ``src/`` computes inline, kept as its definition.

Two hot loops run the Vincenty formula below with its float operations in
its order on precomputed halves: the crossmatch kernel's refine step
(``repro.core.kernels.crossmatch_block``, against each catalog row's cached
trigonometry) and the cone cover's trixel test (``repro.htm.curve.cone_cover``,
against each trixel's bounding-cone axis).  Neither calls a function, so
this is where the formula lives; ``tests/core/test_kernels.py`` and
``tests/htm/test_curve.py`` (through ``tests/htm/cover_oracle.py``) pin both
copies to it bit for bit.
"""

import math


def angular_separation(ra1: float, dec1: float, ra2: float, dec2: float) -> float:
    """Angular separation between two sky positions, in degrees.

    Uses the Vincenty formula, which is accurate for both small and large
    separations (the plain arccos formula loses precision for the
    arc-second separations that cross-match cares about).
    """
    lon1, lat1 = math.radians(ra1), math.radians(dec1)
    lon2, lat2 = math.radians(ra2), math.radians(dec2)
    dlon = lon2 - lon1
    cos_dlon = math.cos(dlon)
    cos_lat1, sin_lat1 = math.cos(lat1), math.sin(lat1)
    cos_lat2, sin_lat2 = math.cos(lat2), math.sin(lat2)
    num = math.hypot(
        cos_lat2 * math.sin(dlon),
        cos_lat1 * sin_lat2 - sin_lat1 * cos_lat2 * cos_dlon,
    )
    den = sin_lat1 * sin_lat2 + cos_lat1 * cos_lat2 * cos_dlon
    return math.degrees(math.atan2(num, den))
