"""Property tests pinning the columnar kernels to the row-at-a-time join.

The zero-copy read path only earns its keep if it is invisible: a bucket
decoded into :class:`~repro.storage.format.ColumnBlock` columns must
produce *object-for-object* the same matches, in the same order, with the
same separations, as the reference row merge (``join_oracle.merge_join``)
over the same :class:`CelestialObject` rows.  These tests drive both over
randomized buckets — including empty buckets and single-row pages, and
queues whose queries ship the very same object instances, which the kernel
refines once — and assert exact equality of the outputs.
"""

import json
import math
import os
import types
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.generator import SkyGenerator, SkyGeneratorConfig
from repro.catalog.objects import CelestialObject
from repro.core.bucket_cache import BucketCacheManager
from repro.core.join_evaluator import HybridJoinEvaluator
from repro.core.kernels import crossmatch_block
from repro.core.metrics import CostModel
from repro.core.preprocessor import QueryPreProcessor
from repro.core.workload_manager import WorkloadEntry
from repro.htm.curve import HTMRange
from repro.storage.bucket_store import Bucket, BucketStore
from repro.storage.disk_model import calibrated_disk_for_bucket_read
from repro.storage.disk_store import open_disk_store
from repro.storage.format import decode_column_block, encode_bucket_page
from repro.storage.ingest import ingest_catalog
from repro.storage.partitioner import BucketPartitioner
from repro.workload.query import CrossMatchObject, CrossMatchQuery
from tests.core.join_oracle import match_counts, merge_join, nonzero_counts
from tests.htm.separation_reference import angular_separation

LEAF_LEVEL = 8
CURVE_START = 8 << (2 * LEAF_LEVEL)
CURVE_END = (16 << (2 * LEAF_LEVEL)) - 1
SURVEYS = ("sdss", "twomass", "usnob")


def make_evaluator():
    """A scan-only evaluator over a virtual store (the join needs no I/O)."""
    cost = CostModel.paper_defaults()
    layout = BucketPartitioner(objects_per_bucket=10_000, bucket_megabytes=40.0).partition_density(
        8
    )
    store = BucketStore(layout, calibrated_disk_for_bucket_read(40.0, 1.2))
    cache = BucketCacheManager(store, capacity=4)
    return HybridJoinEvaluator(cost, cache)


@st.composite
def catalog_rows(draw, min_size=0, max_size=80):
    """HTM-sorted catalog rows, exactly as a bucket page stores them."""
    ids = draw(
        st.lists(
            st.integers(min_value=CURVE_START, max_value=CURVE_END),
            min_size=min_size,
            max_size=max_size,
        )
    )
    ids.sort()
    rows = []
    for position, htm_id in enumerate(ids):
        rows.append(
            CelestialObject(
                object_id=draw(st.integers(min_value=-(2**40), max_value=2**40)),
                ra=draw(st.floats(0.0, 360.0, allow_nan=False)),
                dec=draw(st.floats(-90.0, 90.0, allow_nan=False)),
                htm_id=htm_id,
                magnitude=draw(st.floats(5.0, 30.0, allow_nan=False)),
                survey=SURVEYS[position % len(SURVEYS)],
            )
        )
    return rows


def draw_window(draw, low=None):
    """An HTM window inside the test curve range (starting at *low* if given)."""
    if low is None:
        low = draw(st.integers(min_value=CURVE_START, max_value=CURVE_END))
    width = draw(st.integers(min_value=0, max_value=(CURVE_END - CURVE_START) // 4))
    return HTMRange(low, min(low + width, CURVE_END))


#: Match radii, arc-seconds: a huge radius guarantees some windows actually
#: match; small radii exercise the all-rejected branch.
RADII = [0.5, 2.0, 3600.0, 90.0 * 3600.0, 360.0 * 3600.0]


def draw_object(draw, object_id, low=None, radii=RADII):
    """A positioned workload object with a random window and radius."""
    return CrossMatchObject(
        object_id=object_id,
        htm_range=draw_window(draw, low),
        ra=draw(st.floats(0.0, 360.0, allow_nan=False)),
        dec=draw(st.floats(-90.0, 90.0, allow_nan=False)),
        match_radius_arcsec=draw(st.sampled_from(radii)),
    )


@st.composite
def shared_pool(draw):
    """Object instances several queries of one service may ship.

    Besides positioned objects (some of them "wide": a window over most of
    the curve and a radius of a quarter or all of the sphere, so they match
    most rows) the pool holds abstract ones (no position), zero-radius ones
    (which match nothing but a row at their very position), and pairs of
    distinct objects that start their windows at the same HTM ID: shipped
    by two queries, those interleave after the kernel's stable sort, so the
    same instance is not next to itself.
    """
    pool = []
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        object_id = 900_000 + 10 * index
        kind = draw(st.sampled_from(["wide", "positioned", "abstract", "zero", "same_low"]))
        if kind == "abstract":
            no_ra = draw(st.booleans())
            pool.append(
                CrossMatchObject(
                    object_id=object_id,
                    htm_range=draw_window(draw),
                    ra=None if no_ra else 10.0,
                    dec=10.0 if no_ra else None,
                )
            )
        elif kind == "zero":
            pool.append(
                CrossMatchObject(
                    object_id=object_id,
                    htm_range=draw_window(draw),
                    ra=draw(st.floats(0.0, 360.0, allow_nan=False)),
                    dec=draw(st.floats(-90.0, 90.0, allow_nan=False)),
                    match_radius_arcsec=0.0,
                )
            )
        elif kind == "same_low":
            twin = draw_object(draw, object_id)
            pool += [twin, draw_object(draw, object_id + 1, low=twin.htm_range.low)]
        elif kind == "wide":
            low = draw(st.integers(min_value=CURVE_START, max_value=CURVE_START + 1_000))
            wide = draw_object(draw, object_id, radii=RADII[-2:])
            pool.append(replace(wide, htm_range=HTMRange(low, CURVE_END)))
        else:
            pool.append(draw_object(draw, object_id))
    return pool


@st.composite
def workload_entries(draw, min_queries=1, max_queries=4):
    """Workload entries whose HTM windows overlap the test curve range.

    Each query ships objects of its own and, in a drawn order among them,
    a drawn non-empty subset of one :func:`shared_pool` of instances.
    """
    entries = []
    pool = draw(shared_pool())
    query_count = draw(st.integers(min_value=min_queries, max_value=max_queries))
    for query_id in range(query_count):
        object_count = draw(st.integers(min_value=1, max_value=6))
        objects = [draw_object(draw, query_id * 1_000 + index) for index in range(object_count)]
        shared = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique_by=id)
        )
        objects = draw(st.permutations(objects + shared))
        entries.append(
            WorkloadEntry(
                query_id=query_id,
                object_count=len(objects),
                enqueue_time_ms=0.0,
                objects=tuple(objects),
            )
        )
    return entries


def as_block(rows):
    """Round one bucket's rows through the columnar codec."""
    codes = {}
    for row in rows:
        codes.setdefault(row.survey, len(codes))
    page = encode_bucket_page([row.htm_id for row in rows], rows, codes)
    return decode_column_block(page, tuple(codes))


def assert_same_matches(columnar, row_wise):
    """Object-for-object equality of two match lists."""
    assert len(columnar) == len(row_wise)
    for left, right in zip(columnar, row_wise):
        assert left.query_id == right.query_id
        assert left.workload_object is right.workload_object
        assert left.separation_arcsec == right.separation_arcsec
        assert left.catalog_object == right.catalog_object


class TestCrossmatchParity:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(rows=catalog_rows(), entries=workload_entries())
    def test_columnar_kernel_matches_row_path(self, rows, entries):
        """crossmatch_block == the reference row-at-a-time merge join."""
        col_matches = crossmatch_block(as_block(rows), entries)
        row_matches, row_per_query = merge_join(rows, entries)
        assert_same_matches(col_matches, row_matches)
        assert match_counts(col_matches) == nonzero_counts(row_per_query)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(rows=catalog_rows(min_size=1), entries=workload_entries())
    def test_columnar_bucket_through_merge_join(self, rows, entries):
        """A columns-backed Bucket rides the kernel inside _merge_join."""
        evaluator = make_evaluator()
        spec = evaluator.cache.store.layout[0]
        col_bucket = Bucket(spec, columns=as_block(rows))
        row_matches, _row_per_query = merge_join(rows, entries)
        assert_same_matches(evaluator._merge_join(col_bucket, entries), row_matches)

    def test_empty_block_matches_empty_bucket(self):
        """Empty buckets short-circuit identically on both paths."""
        entries = [
            WorkloadEntry(
                query_id=7,
                object_count=1,
                enqueue_time_ms=0.0,
                objects=(
                    CrossMatchObject(
                        object_id=1,
                        htm_range=HTMRange(CURVE_START, CURVE_END),
                        ra=10.0,
                        dec=10.0,
                    ),
                ),
            )
        ]
        col_matches = crossmatch_block(as_block([]), entries)
        row_matches, row_per_query = merge_join([], entries)
        assert col_matches == row_matches == []
        assert match_counts(col_matches) == row_per_query == {}

    def test_single_row_page(self):
        """A one-row page matches iff the window and radius admit the row."""
        row = CelestialObject(
            object_id=42,
            ra=180.0,
            dec=0.0,
            htm_id=CURVE_START + 5,
            magnitude=20.0,
            survey="sdss",
        )
        block = as_block([row])
        hit = CrossMatchObject(
            object_id=1,
            htm_range=HTMRange(CURVE_START, CURVE_START + 10),
            ra=180.0,
            dec=0.0,
            match_radius_arcsec=2.0,
        )
        miss_window = CrossMatchObject(
            object_id=2,
            htm_range=HTMRange(CURVE_START + 6, CURVE_END),
            ra=180.0,
            dec=0.0,
            match_radius_arcsec=2.0,
        )
        found = {}
        for obj in (hit, miss_window):
            entries = [WorkloadEntry(1, 1, 0.0, (obj,))]
            matches = crossmatch_block(block, entries)
            reference, reference_per_query = merge_join([row], entries)
            assert_same_matches(matches, reference)
            assert reference_per_query == {1: len(matches)}
            assert match_counts(matches) == nonzero_counts(reference_per_query)
            found[obj.object_id] = list(matches)
        assert len(found[miss_window.object_id]) == 0
        (pair,) = found[hit.object_id]
        assert pair.catalog_object == row
        assert pair.separation_arcsec == 0.0

    def test_abstract_objects_never_match(self):
        """Workload objects without positions are skipped, as on the row path."""
        rows = [
            CelestialObject(
                object_id=1,
                ra=10.0,
                dec=10.0,
                htm_id=CURVE_START,
                magnitude=20.0,
                survey="sdss",
            )
        ]
        abstract = CrossMatchObject(object_id=9, htm_range=HTMRange(CURVE_START, CURVE_END))
        entries = [WorkloadEntry(3, 1, 0.0, (abstract,))]
        matches = crossmatch_block(as_block(rows), entries)
        assert list(matches) == merge_join(rows, entries)[0] == []
        assert merge_join(rows, entries)[1] == {3: 0}
        assert match_counts(matches) == nonzero_counts(merge_join(rows, entries)[1]) == {}


# --------------------------------------------------------------------- #
# objects shipped by several queries of one service
# --------------------------------------------------------------------- #


def at_row(object_id, row, high, radius):
    """A workload object on *row* whose window runs from the curve start to *high*."""
    return CrossMatchObject(
        object_id=object_id,
        htm_range=HTMRange(CURVE_START, high),
        ra=row.ra,
        dec=row.dec,
        match_radius_arcsec=radius,
    )


class TestSharedObjects:
    def test_interleaved_equal_lows_pin_the_pair_order(self):
        """Equal window starts keep queue order; only adjacent instances reuse.

        Every object starts its window at the same HTM ID, so the stable
        sort keeps the queue's order: A0 B0 A1 B1 B2 C2 C3.  A1 follows B0
        and is refined again; B2 follows B1 and C3 (abstract) follows C2,
        and both take their twin's result.
        """
        rows = dense_rows(6)  # 0.31″ apart
        a = at_row(1, rows[0], CURVE_START + 25, radius=1.0)  # rows 0-2
        b = at_row(2, rows[5], CURVE_START + 55, radius=0.5)  # rows 4-5
        c = CrossMatchObject(object_id=3, htm_range=HTMRange(CURVE_START, CURVE_END))
        entries = [
            WorkloadEntry(0, 2, 0.0, (a, b)),
            WorkloadEntry(1, 2, 0.0, (a, b)),
            WorkloadEntry(2, 2, 0.0, (b, c)),
            WorkloadEntry(3, 1, 0.0, (c,)),
        ]
        matches = crossmatch_block(as_block(rows), entries)
        reference, reference_per_query = merge_join(rows, entries)
        assert_same_matches(matches, reference)
        assert [
            (pair.query_id, pair.workload_object.object_id, pair.catalog_object.object_id)
            for pair in matches
        ] == [
            (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 2, 4), (0, 2, 5),
            (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 4), (1, 2, 5),
            (2, 2, 4), (2, 2, 5),
        ]  # fmt: skip
        assert [pair.workload_object for pair in matches[-2:]] == [b, b]
        assert match_counts(matches) == nonzero_counts(reference_per_query) == {0: 5, 1: 5, 2: 2}

    def test_a_shared_instance_is_refined_once_per_service(self, monkeypatch):
        """Shipping an object again costs no Vincenty: count the ``atan2`` calls.

        S matches rows; Z sits on S's declination with radius 0, so every
        candidate of its window survives the band and none matches.  Their
        windows start apart, so the sort puts each one's pairs together.  Three
        queries shipping S and two shipping Z cost what one query costs.
        """
        rows = dense_rows(6)  # 0.31″ apart
        s = at_row(1, rows[1], CURVE_START + 35, radius=1.0)
        z = CrossMatchObject(2, HTMRange(CURVE_START + 1, CURVE_END), 100.00005, -30.0, 0.0)
        calls = []

        def atan2(y, x):
            calls.append(None)
            return math.atan2(y, x)

        names = ("radians", "degrees", "inf", "sin", "cos", "hypot")
        shim = types.SimpleNamespace(atan2=atan2, **{name: getattr(math, name) for name in names})
        monkeypatch.setattr("repro.core.kernels.math", shim)
        alone = [WorkloadEntry(0, 2, 0.0, (s, z))]
        assert len(crossmatch_block(as_block(rows), alone)) == 4  # rows 0-3, S's window
        refined_alone = len(calls)
        assert refined_alone == 4 + 5  # Z's window holds rows 1-5
        calls.clear()
        batched = alone + [WorkloadEntry(1, 2, 0.0, (s, z)), WorkloadEntry(2, 1, 0.0, (s,))]
        matches = crossmatch_block(as_block(rows), batched)
        assert len(calls) == refined_alone
        reference, reference_per_query = merge_join(rows, batched)
        assert_same_matches(matches, reference)
        assert match_counts(matches) == nonzero_counts(reference_per_query) == {0: 4, 1: 4, 2: 4}


# --------------------------------------------------------------------- #
# the band edge: rows placed on the match radius, give or take a few ulps
# --------------------------------------------------------------------- #

#: Match radii of the boundary cases, arc-seconds: 0 (identical positions
#: only), 0.5″ … 360°.
BOUNDARY_RADII = [
    0.0,
    0.5,
    2.0,
    3.0,
    60.0,
    3600.0,
    10.0 * 3600.0,
    90.0 * 3600.0,
    180.0 * 3600.0,
    360.0 * 3600.0,
]


def nudge(value, ulps):
    """*value* moved *ulps* units in the last place (negative: downwards)."""
    target = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, target)
    return value


def clamp_dec(dec):
    return max(-90.0, min(90.0, dec))


def draw_anchor(draw, radius_deg):
    """A workload object's position, biased to where the sphere is awkward."""
    kind = draw(st.sampled_from(["sky", "pole", "near_pole", "ra_seam", "beyond_pole"]))
    ra = draw(st.floats(0.0, 360.0, exclude_max=True))
    dec = draw(st.floats(-89.0, 89.0))
    if kind == "pole":
        dec = draw(st.sampled_from([-90.0, 90.0]))
    elif kind == "near_pole":
        # Within one match radius of a pole: the cone contains the pole.
        inset = min(90.0, radius_deg) * draw(st.floats(0.0, 1.0))
        dec = draw(st.sampled_from([-1.0, 1.0])) * (90.0 - inset)
    elif kind == "ra_seam":
        ra = draw(st.sampled_from([0.0, 1.0e-9, 1.0e-4, 360.0 - 1.0e-4, nudge(360.0, -1)]))
    elif kind == "beyond_pole":
        # Not a declination, but a position the row path computes with.
        dec = draw(st.sampled_from([-1.0, 1.0])) * (90.0 + draw(st.floats(0.001, 20.0)))
    return ra, dec


def draw_row_position(draw, ra0, dec0, radius_deg):
    """A catalog position on *radius_deg* from ``(ra0, dec0)``, ± a few ulps."""
    offset = nudge(radius_deg, draw(st.integers(-4, 4)))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    cos_dec = math.cos(math.radians(dec0))
    kind = draw(st.sampled_from(["same", "dec", "ra", "diagonal", "over_pole"]))
    if kind == "same":
        return ra0, dec0
    if kind == "dec":
        dec = dec0 + sign * offset
        if not -90.0 <= dec <= 90.0:
            dec = dec0 - sign * offset
        return ra0, clamp_dec(dec)
    if kind == "ra":
        # The RA offset whose great-circle length is `offset` at this
        # declination: sin(sep / 2) = cos(dec) * sin(dra / 2).
        ratio = math.sin(math.radians(offset) / 2.0) / cos_dec if cos_dec > 1.0e-12 else 2.0
        dra = math.degrees(2.0 * math.asin(ratio)) if abs(ratio) <= 1.0 else offset
        return (ra0 + sign * dra) % 360.0, dec0
    if kind == "diagonal":
        half = offset / math.sqrt(2.0)
        return (ra0 + sign * half / max(cos_dec, 1.0e-6)) % 360.0, clamp_dec(dec0 + half)
    # The object's own sky position, written over the pole (|dec| > 90):
    # separation ~ 0 however far apart the two declinations are.
    return (ra0 + 180.0) % 360.0, math.copysign(180.0, dec0) - dec0


@st.composite
def boundary_cases(draw):
    """Blocks whose rows sit on their objects' match radii and window edges."""
    rows = []
    entries = []
    for query_id in range(draw(st.integers(min_value=1, max_value=3))):
        objects = []
        for index in range(draw(st.integers(min_value=1, max_value=3))):
            low = CURVE_START + 1 + draw(st.integers(min_value=0, max_value=300))
            high = low + draw(st.integers(min_value=0, max_value=200))
            radius = draw(st.sampled_from(BOUNDARY_RADII))
            ra0, dec0 = draw_anchor(draw, radius / 3600.0)
            # Rows share HTM IDs at, just inside and just outside the window.
            middle = (low + high) // 2
            edge_ids = [low - 1, low, low, low + 1, middle, high - 1, high, high, high + 1]
            for _ in range(draw(st.integers(min_value=1, max_value=6))):
                ra, dec = draw_row_position(draw, ra0, dec0, radius / 3600.0)
                rows.append(
                    CelestialObject(
                        object_id=len(rows),
                        ra=ra,
                        dec=dec,
                        htm_id=max(CURVE_START, draw(st.sampled_from(edge_ids))),
                        magnitude=20.0,
                        survey=SURVEYS[len(rows) % len(SURVEYS)],
                    )
                )
            positioned = draw(st.sampled_from(["both", "both", "both", "no_ra", "no_dec"]))
            objects.append(
                CrossMatchObject(
                    object_id=query_id * 1_000 + index,
                    htm_range=HTMRange(low, high),
                    ra=None if positioned == "no_ra" else ra0,
                    dec=None if positioned == "no_dec" else dec0,
                    match_radius_arcsec=radius,
                )
            )
        entries.append(
            WorkloadEntry(
                query_id=query_id,
                object_count=len(objects),
                enqueue_time_ms=0.0,
                objects=tuple(objects),
            )
        )
    rows.sort(key=lambda row: row.htm_id)
    return rows, entries


class TestBandEdgeParity:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(case=boundary_cases())
    def test_rows_on_the_radius_match_the_row_path(self, case):
        """Same pairs, order and separations; same per-query match counts."""
        rows, entries = case
        col_matches = crossmatch_block(as_block(rows), entries)
        row_matches, row_per_query = merge_join(rows, entries)
        assert_same_matches(col_matches, row_matches)
        assert match_counts(col_matches) == nonzero_counts(row_per_query)

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(case=boundary_cases())
    def test_kernel_separation_is_angular_separation(self, case):
        """The kernel's inlined Vincenty tail has one definition that matters.

        With every radius opened to the whole sphere each candidate in a
        window matches, so every separation the kernel computes is compared
        — exactly, no tolerance — with ``angular_separation * 3600``.
        """
        rows, entries = case
        wide = [
            WorkloadEntry(
                entry.query_id,
                entry.object_count,
                0.0,
                tuple(
                    CrossMatchObject(o.object_id, o.htm_range, o.ra, o.dec, 360.0 * 3600.0)
                    for o in entry.objects
                ),
            )
            for entry in entries
        ]
        matches = crossmatch_block(as_block(rows), wide)
        for pair in matches:
            obj, row = pair.workload_object, pair.catalog_object
            assert pair.separation_arcsec == (
                angular_separation(obj.ra, obj.dec, row.ra, row.dec) * 3600.0
            )
        positioned = [
            o for e in wide for o in e.objects if o.ra is not None and o.dec is not None
        ]
        assert len(matches) == sum(
            sum(1 for row in rows if row.htm_id in o.htm_range) for o in positioned
        )

    def test_a_band_tighter_than_the_radius_is_caught(self, monkeypatch):
        """The mutation the strategy above exists to kill: a negative slack.

        Rows a hair inside the radius in declination only are accepted by
        Vincenty; a band narrower than the radius drops them first.
        """
        cases = []
        for dec0 in range(-80, 81, 10):
            for radius in (0.5, 3.0, 3600.0):
                obj = CrossMatchObject(
                    object_id=len(cases),
                    htm_range=HTMRange(CURVE_START, CURVE_END),
                    ra=33.0,
                    dec=float(dec0),
                    match_radius_arcsec=radius,
                )
                rows = [
                    CelestialObject(k, 33.0, dec0 + nudge(radius / 3600.0, -k), CURVE_START + k)
                    for k in range(5)
                ]
                cases.append((rows, [WorkloadEntry(0, 1, 0.0, (obj,))]))
        expected = [len(merge_join(rows, entries)[0]) for rows, entries in cases]
        assert sum(expected) > 0
        assert [len(crossmatch_block(as_block(r), e)) for r, e in cases] == expected
        monkeypatch.setattr("repro.core.kernels.BAND_SLACK_RAD", -1.0e-9)
        assert [len(crossmatch_block(as_block(r), e)) for r, e in cases] != expected


# --------------------------------------------------------------------- #
# laziness and lifetime of the block memos and the columnar matches
# --------------------------------------------------------------------- #

GOLDEN_MATCHES = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "kernels", "golden_matches.json"
)


def golden_run(directory):
    """A small seeded ingest, joined bucket by bucket through a disk store.

    Both cache tiers hold one bucket, so by the time the store has been
    closed every block but the last has been evicted from both.  Returns
    the :class:`JoinResult` of every service, in bucket order.
    """
    generator = SkyGenerator(SkyGeneratorConfig(object_count=400, cluster_count=4, seed=7))
    base = generator.generate("sdss")
    companion = generator.derive_companion(base, "twomass", completeness=0.9)
    manifest = ingest_catalog(os.path.join(directory, "sky.lrbs"), base, objects_per_bucket=50)
    shipped = [
        CrossMatchObject(
            object_id=obj.object_id,
            htm_range=HTMRange(obj.htm_id - 4_000, obj.htm_id + 4_000),
            ra=obj.ra,
            dec=obj.dec,
            match_radius_arcsec=3.0,
        )
        for obj in companion.rows
    ]
    queries = [
        CrossMatchQuery(query_id, objects=tuple(shipped[query_id::2])) for query_id in (0, 1)
    ]
    results = []
    with open_disk_store(manifest.path, page_cache_buckets=1) as store:
        cache = BucketCacheManager(store, capacity=1)
        evaluator = HybridJoinEvaluator(CostModel.paper_defaults(), cache)
        preprocessor = QueryPreProcessor(store.layout)
        assigned = [preprocessor.assign(query) for query in queries]
        for spec in store.layout:
            entries = [
                WorkloadEntry(query.query_id, len(work[spec.index]), 0.0, tuple(work[spec.index]))
                for query, work in zip(queries, assigned)
                if spec.index in work
            ]
            results.append(evaluator.evaluate(spec, entries))
    return results


def as_golden(results):
    """The JSON shape of :data:`GOLDEN_MATCHES` (floats round-trip exactly)."""
    return [
        [
            [
                pair.query_id,
                pair.workload_object.object_id,
                pair.catalog_object.object_id,
                pair.catalog_object.htm_id,
                pair.separation_arcsec,
            ]
            for pair in result.matches
        ]
        for result in results
    ]


def footprint_entries():
    return [WorkloadEntry(query_id=q, object_count=40, enqueue_time_ms=0.0) for q in range(3)]


def dense_rows(count=20):
    return [
        CelestialObject(
            object_id=i,
            ra=100.0 + i * 1.0e-4,
            dec=-30.0,
            htm_id=CURVE_START + 10 * i,
            survey="sdss",
        )
        for i in range(count)
    ]


def entry_over(rows, query_id=0, radius=2.0):
    """One entry whose objects sit exactly on *rows* (every object matches)."""
    objects = tuple(
        CrossMatchObject(
            object_id=row.object_id,
            htm_range=HTMRange(row.htm_id - 15, row.htm_id + 15),
            ra=row.ra,
            dec=row.dec,
            match_radius_arcsec=radius,
        )
        for row in rows
    )
    return WorkloadEntry(query_id, len(objects), 0.0, objects)


class TestLazinessAndLifetime:
    def test_footprint_only_entries_leave_both_memos_empty(self):
        """No objects, no trig, no rows: the ``noshare_file_cold`` bypass."""
        rows = dense_rows()
        block = as_block(rows)
        matches = crossmatch_block(block, footprint_entries())
        assert len(matches) == 0
        assert match_counts(matches) == nonzero_counts(merge_join(rows, footprint_entries())[1])
        assert not block.has_derived
        assert block._derived == [] and block._rows == []

    def test_objects_outside_every_window_build_nothing(self):
        rows = dense_rows()
        block = as_block(rows)
        far = CrossMatchObject(
            object_id=1, htm_range=HTMRange(CURVE_END - 5, CURVE_END), ra=1.0, dec=1.0
        )
        entries = [WorkloadEntry(4, 1, 0.0, (far,))]
        matches = crossmatch_block(block, entries)
        assert len(matches) == 0 and merge_join(rows, entries)[1] == {4: 0}
        assert match_counts(matches) == nonzero_counts(merge_join(rows, entries)[1]) == {}
        assert block._derived == [] and block._rows == []

    def test_derived_columns_are_built_once_per_block(self):
        """A real match builds them; the next service on the block reuses them."""
        rows = dense_rows()
        block = as_block(rows)
        first = crossmatch_block(block, [entry_over(rows[:5])])
        assert len(first) > 0
        derived = block.derived()
        assert block._derived == [derived]
        assert block._rows == []  # counted, never read: no row objects yet
        second = crossmatch_block(block, [entry_over(rows[5:], query_id=1)])
        assert len(second) > 0
        assert block.derived() is derived and len(block._derived) == 1
        # and the next service searched its windows over the derived list
        assert derived.htm_ids == [row.htm_id for row in rows]

    def test_matches_share_the_blocks_rows(self):
        rows = dense_rows()
        block = as_block(rows)
        one = crossmatch_block(block, [entry_over(rows)])
        two = crossmatch_block(block, [entry_over(rows, query_id=1)])
        shared = block.rows()
        assert all(pair.catalog_object is shared[pair.catalog_object.object_id] for pair in one)
        assert all(a.catalog_object is b.catalog_object for a, b in zip(one, two))

    def test_sequence_protocol(self):
        """len, truthiness, indexing and repeated iteration agree."""
        rows = dense_rows()
        matches = crossmatch_block(as_block(rows), [entry_over(rows, radius=1.0)])
        reference, reference_per_query = merge_join(rows, [entry_over(rows, radius=1.0)])
        assert match_counts(matches) == nonzero_counts(reference_per_query)
        assert len(matches) == len(reference) > len(rows)  # neighbours match too
        assert matches
        once, twice = list(matches), list(matches)
        assert once == twice == reference
        assert [matches[i] for i in range(len(matches))] == reference
        assert matches[-1] == reference[-1]
        assert reference[0] in matches and matches.index(reference[2]) == 2
        far = CrossMatchObject(1, HTMRange(CURVE_END - 5, CURVE_END), ra=1.0, dec=1.0)
        empty = crossmatch_block(as_block(rows), [WorkloadEntry(4, 1, 0.0, (far,))])
        assert not empty and len(empty) == 0 and list(empty) == []
        try:
            empty[0]
        except IndexError:
            pass
        else:  # pragma: no cover
            raise AssertionError("indexing an empty match sequence must raise IndexError")

    def test_slices_are_lists_of_pairs(self):
        """A slice gives the pairs slicing ``list(matches)`` gives, steps too."""
        rows = dense_rows()
        block = as_block(rows)
        matches = crossmatch_block(block, [entry_over(rows, radius=1.0)])
        pairs = list(matches)
        assert len(pairs) > 10
        for window in (
            slice(0, 2),
            slice(None),
            slice(3, None, 4),
            slice(None, None, -1),
            slice(-5, -1),
            slice(-1, -9, -3),
            slice(7, 2),
            slice(100, 200),
        ):
            sliced = matches[window]
            assert type(sliced) is list and sliced == pairs[window]
        empty = crossmatch_block(as_block(rows), [entry_over(rows[:1], radius=0.0)])
        assert len(empty) == 1 and empty[1:] == [] and empty[:] == list(empty)

    def test_disk_store_matches_equal_the_parent_golden(self, tmp_path):
        """Matches read after the store closed and the blocks left both tiers.

        The golden pair list is the eager ``JoinResult.matches`` tuples of
        this exact run recorded at the parent commit (PR 16), before the
        kernel was rewritten: same pairs, same order, separations ``==``.
        """
        results = golden_run(str(tmp_path))
        with open(GOLDEN_MATCHES, encoding="utf-8") as handle:
            golden = json.load(handle)
        assert sum(len(service) for service in golden) > 300
        assert [result.match_count for result in results if result.matches] == [
            len(service) for service in golden if service
        ]
        assert as_golden(results) == golden
        # A second read materialises the same pairs (nothing was consumed).
        assert as_golden(results) == golden
