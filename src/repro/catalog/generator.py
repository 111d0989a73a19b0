"""Synthetic sky generators.

The reproduction cannot ship the 6 TB SDSS archive, so the examples and the
full-fidelity tests generate synthetic surveys instead.  Two properties of
the real sky matter for LifeRaft's behaviour and are therefore modelled:

* **Clustering.**  Galaxies and survey footprints make object density very
  non-uniform; dense regions are exactly where cross-match queries pile up
  and where batch processing pays off.  The generator draws objects from a
  mixture of compact Gaussian-ish clusters on the sphere plus a uniform
  background.
* **Survey-to-survey correlation.**  2MASS and USNO-B see (mostly) the same
  sky as SDSS, shifted by arcsecond-scale astrometric errors.  The
  generator can derive a companion survey from a base survey by jittering
  positions and dropping/adding a fraction of objects, which gives the
  probabilistic cross-match realistic hit rates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.catalog.objects import CatalogTable, CelestialObject
from repro.htm import ids as htm_ids
from repro.htm.geometry import SkyPoint
from repro.htm.mesh import HTMMesh

#: Rough relative source densities of the three surveys that dominate the
#: SkyQuery cross-match workload (§5.1: "a vast majority of cross-matches
#: occurs between archives twomass, sdss, and usnob").
SURVEY_PROFILES: Dict[str, Dict[str, float]] = {
    "sdss": {"relative_density": 1.0, "astrometric_error_arcsec": 0.1},
    "twomass": {"relative_density": 0.55, "astrometric_error_arcsec": 0.3},
    "usnob": {"relative_density": 1.4, "astrometric_error_arcsec": 0.4},
}


@dataclass(frozen=True)
class SkyGeneratorConfig:
    """Parameters of the synthetic sky.

    Attributes
    ----------
    object_count:
        Number of objects to draw for the base survey.
    cluster_count:
        Number of dense clusters; zero gives a uniform sky.
    cluster_fraction:
        Fraction of objects placed inside clusters (the rest is uniform
        background).
    cluster_radius_deg:
        Angular radius of one cluster.
    footprint_dec_limits:
        Declination band of the survey footprint (SDSS covers mostly the
        northern galactic cap; restricting declination concentrates the
        workload the way the real footprint does).
    seed:
        Seed for the private random number generator; generation is fully
        deterministic given the config.
    htm_level:
        Level of the HTM IDs assigned to generated objects.
    """

    object_count: int = 10_000
    cluster_count: int = 12
    cluster_fraction: float = 0.6
    cluster_radius_deg: float = 2.5
    footprint_dec_limits: Tuple[float, float] = (-10.0, 70.0)
    seed: int = 20090104  # CIDR 2009 opening day
    htm_level: int = htm_ids.SKYQUERY_LEVEL

    def __post_init__(self) -> None:
        if self.object_count <= 0:
            raise ValueError("object_count must be positive")
        if not 0.0 <= self.cluster_fraction <= 1.0:
            raise ValueError("cluster_fraction must be within [0, 1]")
        low, high = self.footprint_dec_limits
        if not -90.0 <= low < high <= 90.0:
            raise ValueError("footprint declination limits must satisfy -90 <= low < high <= 90")


class SkyGenerator:
    """Draws synthetic survey catalogs."""

    def __init__(
        self, config: Optional[SkyGeneratorConfig] = None, mesh: Optional[HTMMesh] = None
    ) -> None:
        self.config = config or SkyGeneratorConfig()
        self.mesh = mesh or HTMMesh()
        self._rng = random.Random(self.config.seed)
        self._cluster_centers: List[SkyPoint] = self._draw_cluster_centers()

    def generate(self, survey: str = "sdss") -> CatalogTable:
        """Generate the base survey catalog."""
        profile = SURVEY_PROFILES.get(survey, {"relative_density": 1.0})
        count = max(1, int(round(self.config.object_count * profile["relative_density"])))
        objects = []
        for object_id in range(count):
            point = self._draw_position()
            objects.append(
                CelestialObject(
                    object_id=object_id,
                    ra=point.ra,
                    dec=point.dec,
                    htm_id=self.mesh.locate(point, self.config.htm_level),
                    magnitude=self._draw_magnitude(),
                    survey=survey,
                )
            )
        return CatalogTable(survey, objects)

    def derive_companion(
        self,
        base: CatalogTable,
        survey: str,
        completeness: float = 0.85,
        extra_fraction: float = 0.1,
        astrometric_error_arcsec: Optional[float] = None,
    ) -> CatalogTable:
        """Derive a companion survey seeing (mostly) the same sky as *base*.

        ``completeness`` is the probability that a base object is also seen
        by the companion; ``extra_fraction`` adds companion-only sources.
        Positions of matched sources are jittered by the companion's
        astrometric error, which is what makes cross-match probabilistic.
        """
        if not 0.0 <= completeness <= 1.0:
            raise ValueError("completeness must be within [0, 1]")
        if extra_fraction < 0:
            raise ValueError("extra_fraction must be non-negative")
        profile = SURVEY_PROFILES.get(survey, {})
        error_arcsec = (
            astrometric_error_arcsec
            if astrometric_error_arcsec is not None
            else profile.get("astrometric_error_arcsec", 0.3)
        )
        objects: List[CelestialObject] = []
        next_id = 0
        for obj in base:
            if self._rng.random() > completeness:
                continue
            ra, dec = self._jitter(obj.ra, obj.dec, error_arcsec)
            point = SkyPoint(ra, dec)
            objects.append(
                CelestialObject(
                    object_id=next_id,
                    ra=point.ra,
                    dec=point.dec,
                    htm_id=self.mesh.locate(point, self.config.htm_level),
                    magnitude=obj.magnitude + self._rng.gauss(0.0, 0.5),
                    survey=survey,
                )
            )
            next_id += 1
        extras = int(round(len(base) * extra_fraction))
        for _ in range(extras):
            point = self._draw_position()
            objects.append(
                CelestialObject(
                    object_id=next_id,
                    ra=point.ra,
                    dec=point.dec,
                    htm_id=self.mesh.locate(point, self.config.htm_level),
                    magnitude=self._draw_magnitude(),
                    survey=survey,
                )
            )
            next_id += 1
        return CatalogTable(survey, objects)

    def _draw_cluster_centers(self) -> List[SkyPoint]:
        centers = []
        for _ in range(self.config.cluster_count):
            centers.append(self._uniform_point())
        return centers

    def _draw_position(self) -> SkyPoint:
        if self._cluster_centers and self._rng.random() < self.config.cluster_fraction:
            center = self._rng.choice(self._cluster_centers)
            return self._point_near(center, self.config.cluster_radius_deg)
        return self._uniform_point()

    def _uniform_point(self) -> SkyPoint:
        """Uniform direction within the survey footprint."""
        low, high = self.config.footprint_dec_limits
        sin_low, sin_high = math.sin(math.radians(low)), math.sin(math.radians(high))
        while True:
            ra = self._rng.uniform(0.0, 360.0)
            dec = math.degrees(math.asin(self._rng.uniform(sin_low, sin_high)))
            return SkyPoint(ra, dec)

    def _point_near(self, center: SkyPoint, radius_deg: float) -> SkyPoint:
        """Draw a point within *radius_deg* of *center*, roughly uniform in area."""
        low, high = self.config.footprint_dec_limits
        for _ in range(32):
            # Uniform in the tangent disc, then projected back onto the sphere.
            r = radius_deg * math.sqrt(self._rng.random())
            theta = self._rng.uniform(0.0, 2.0 * math.pi)
            dec = center.dec + r * math.sin(theta)
            cos_dec = max(0.05, math.cos(math.radians(center.dec)))
            ra = center.ra + r * math.cos(theta) / cos_dec
            if -90.0 < dec < 90.0 and low <= dec <= high:
                return SkyPoint(ra % 360.0, dec)
        return center

    def _jitter(self, ra: float, dec: float, error_arcsec: float) -> Tuple[float, float]:
        error_deg = error_arcsec / 3600.0
        dec_new = min(89.9999, max(-89.9999, dec + self._rng.gauss(0.0, error_deg)))
        cos_dec = max(0.05, math.cos(math.radians(dec)))
        ra_new = (ra + self._rng.gauss(0.0, error_deg) / cos_dec) % 360.0
        return ra_new, dec_new

    def _draw_magnitude(self) -> float:
        """Apparent magnitude with the usual faint-end pile-up."""
        return 14.0 + 8.0 * math.sqrt(self._rng.random())
