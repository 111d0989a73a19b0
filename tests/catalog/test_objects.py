"""Tests for celestial objects and catalog tables."""

from repro.catalog.objects import CatalogTable, CelestialObject
from repro.htm.geometry import SkyPoint
from repro.htm.mesh import HTMMesh


def make_object(object_id, ra, dec, mesh=None, survey="sdss"):
    mesh = mesh or HTMMesh()
    return CelestialObject(
        object_id=object_id,
        ra=ra,
        dec=dec,
        htm_id=mesh.locate(SkyPoint(ra, dec), 14),
        survey=survey,
    )


class TestCelestialObject:
    def test_position(self):
        a = make_object(1, 10.0, 10.0)
        assert (a.ra, a.dec) == (10.0, 10.0)
        assert HTMMesh().locate(SkyPoint(a.ra, a.dec), 14) == a.htm_id


class TestCatalogTable:
    def test_rows_are_sorted_by_htm_id(self):
        mesh = HTMMesh()
        objects = [make_object(i, ra, 5.0, mesh) for i, ra in enumerate((200.0, 10.0, 100.0))]
        table = CatalogTable("sdss", objects)
        ids = list(table.htm_ids)
        assert ids == sorted(ids)
        assert len(table) == 3

    def test_insert_preserves_order(self):
        mesh = HTMMesh()
        table = CatalogTable("sdss", [make_object(0, 10.0, 0.0, mesh)])
        table.insert(make_object(1, 300.0, 0.0, mesh))
        table.insert(make_object(2, 150.0, 0.0, mesh))
        ids = list(table.htm_ids)
        assert ids == sorted(ids)
        assert len(table) == 3

    def test_extend_resorts(self):
        mesh = HTMMesh()
        table = CatalogTable("sdss", [make_object(0, 10.0, 0.0, mesh)])
        table.extend([make_object(1, 340.0, 2.0, mesh), make_object(2, 170.0, -2.0, mesh)])
        ids = list(table.htm_ids)
        assert ids == sorted(ids)

    def test_describe_empty_and_nonempty(self):
        assert CatalogTable("sdss").describe()["rows"] == 0
        mesh = HTMMesh()
        table = CatalogTable("sdss", [make_object(0, 1.0, 1.0, mesh)])
        summary = table.describe()
        assert summary["rows"] == 1
        assert summary["min_htm_id"] == summary["max_htm_id"]
