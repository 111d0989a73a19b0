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

    def test_empty_table(self):
        table = CatalogTable("sdss")
        assert len(table) == 0
        assert list(table) == [] and list(table.htm_ids) == []

    def test_rows_and_ids_stay_aligned(self):
        mesh = HTMMesh()
        objects = [make_object(i, ra, -5.0, mesh) for i, ra in enumerate((300.0, 20.0, 150.0))]
        table = CatalogTable("sdss", objects)
        assert [row.htm_id for row in table.rows] == list(table.htm_ids)
        assert [table[i].object_id for i in range(len(table))] == [1, 2, 0]
