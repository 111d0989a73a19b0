"""Tests for the synthetic sky generators."""

import pytest

from repro.catalog.generator import SURVEY_PROFILES, SkyGenerator, SkyGeneratorConfig
from repro.htm import ids as htm_ids


@pytest.fixture(scope="module")
def small_generator():
    return SkyGenerator(SkyGeneratorConfig(object_count=400, cluster_count=4, seed=7))


class TestConfigValidation:
    def test_invalid_object_count(self):
        with pytest.raises(ValueError):
            SkyGeneratorConfig(object_count=0)

    def test_invalid_cluster_fraction(self):
        with pytest.raises(ValueError):
            SkyGeneratorConfig(cluster_fraction=1.5)

    def test_invalid_footprint(self):
        with pytest.raises(ValueError):
            SkyGeneratorConfig(footprint_dec_limits=(50.0, 10.0))


class TestGeneration:
    def test_object_count_and_survey(self, small_generator):
        catalog = small_generator.generate("sdss")
        assert len(catalog) == 400
        assert all(obj.survey == "sdss" for obj in catalog)

    def test_relative_density_applies(self):
        generator = SkyGenerator(SkyGeneratorConfig(object_count=200, seed=3))
        twomass = generator.generate("twomass")
        expected = round(200 * SURVEY_PROFILES["twomass"]["relative_density"])
        assert len(twomass) == expected

    def test_objects_fall_inside_footprint(self, small_generator):
        low, high = small_generator.config.footprint_dec_limits
        catalog = small_generator.generate("sdss")
        assert all(low - 1e-9 <= obj.dec <= high + 1e-9 for obj in catalog)

    def test_htm_ids_at_requested_level(self, small_generator):
        catalog = small_generator.generate("sdss")
        assert all(
            htm_ids.htm_level(obj.htm_id) == small_generator.config.htm_level for obj in catalog
        )

    def test_generation_is_deterministic_per_seed(self):
        a = SkyGenerator(SkyGeneratorConfig(object_count=100, seed=42)).generate("sdss")
        b = SkyGenerator(SkyGeneratorConfig(object_count=100, seed=42)).generate("sdss")
        assert [o.htm_id for o in a] == [o.htm_id for o in b]

    def test_clustering_concentrates_objects(self):
        clustered = SkyGenerator(
            SkyGeneratorConfig(object_count=600, cluster_count=3, cluster_fraction=0.9, seed=11)
        ).generate("sdss")
        uniform = SkyGenerator(
            SkyGeneratorConfig(object_count=600, cluster_count=0, cluster_fraction=0.0, seed=11)
        ).generate("sdss")
        # Compare the number of distinct coarse (level-5) trixels touched:
        # a clustered sky occupies fewer of them.
        clustered_cells = {o.htm_id >> (2 * (14 - 5)) for o in clustered}
        uniform_cells = {o.htm_id >> (2 * (14 - 5)) for o in uniform}
        assert len(clustered_cells) < len(uniform_cells)


class TestCompanionSurveys:
    def test_companion_sees_mostly_the_same_sky(self, small_generator):
        base = small_generator.generate("sdss")
        companion = small_generator.derive_companion(
            base, "twomass", completeness=0.8, extra_fraction=0.1
        )
        assert 0.6 * len(base) <= len(companion) <= 1.1 * len(base)
        assert all(obj.survey == "twomass" for obj in companion)

    def test_completeness_bounds_checked(self, small_generator):
        base = small_generator.generate("sdss")
        with pytest.raises(ValueError):
            small_generator.derive_companion(base, "twomass", completeness=1.5)
        with pytest.raises(ValueError):
            small_generator.derive_companion(base, "twomass", extra_fraction=-0.1)

    def test_full_completeness_no_extras_preserves_count(self, small_generator):
        base = small_generator.generate("sdss")
        companion = small_generator.derive_companion(
            base, "usnob", completeness=1.0, extra_fraction=0.0
        )
        assert len(companion) == len(base)
