"""Catalog substrate: synthetic astronomical catalogs.

The paper evaluates LifeRaft at the SDSS node of SkyQuery; the cross-match
workload joins SDSS against the 2MASS and USNO-B surveys.  Since the real
multi-terabyte archives are not available offline, this package provides
synthetic stand-ins:

* :mod:`repro.catalog.objects` — the row types (celestial observations) and
  an in-memory catalog table sorted along the HTM curve;
* :mod:`repro.catalog.generator` — sky generators producing clustered,
  survey-like object distributions at configurable scale.

A catalog becomes joinable by ingesting it into a ``.lrbs`` store
(:func:`repro.storage.ingest.ingest_catalog`).
"""

from repro.catalog.objects import CelestialObject, CatalogTable
from repro.catalog.generator import SkyGeneratorConfig, SkyGenerator, SURVEY_PROFILES

__all__ = [
    "CelestialObject",
    "CatalogTable",
    "SkyGeneratorConfig",
    "SkyGenerator",
    "SURVEY_PROFILES",
]
