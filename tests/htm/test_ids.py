"""Unit and property tests for HTM ID encoding and arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.htm import ids as htm_ids


def name_to_id(name):
    """Parse a textual HTM name such as ``"N012"``: the inverse of ``htm_id_to_name``."""
    htm_id = 8 + ("S0", "S1", "S2", "S3", "N0", "N1", "N2", "N3").index(name[:2])
    for digit in name[2:]:
        htm_id = (htm_id << 2) | int(digit)
    return htm_id


valid_ids = st.integers(min_value=0, max_value=14).flatmap(
    lambda level: st.integers(
        min_value=8 << (2 * level), max_value=(16 << (2 * level)) - 1
    )
)


class TestValidity:
    def test_root_faces_are_valid(self):
        for face in range(8, 16):
            assert htm_ids.is_valid_htm_id(face)
            assert htm_ids.htm_level(face) == 0

    def test_small_integers_are_invalid(self):
        for value in range(0, 8):
            assert not htm_ids.is_valid_htm_id(value)

    def test_odd_bit_lengths_are_invalid(self):
        # 16..31 have 5 bits: one child digit short of a valid level-1 ID.
        assert not htm_ids.is_valid_htm_id(17)
        with pytest.raises(ValueError):
            htm_ids.htm_level(17)


class TestNames:
    def test_known_names(self):
        assert htm_ids.htm_id_to_name(8) == "S0"
        assert htm_ids.htm_id_to_name(15) == "N3"
        # "N012" is face N0 (ID 12) followed by child digits 1 and 2.
        assert htm_ids.htm_id_to_name(((12 << 2) | 1) << 2 | 2) == "N012"

    @given(valid_ids)
    def test_name_roundtrip(self, htm_id):
        assert name_to_id(htm_ids.htm_id_to_name(htm_id)) == htm_id

    def test_bad_names_rejected(self):
        # No name exists for an integer that is not an HTM ID.
        for value in (0, 7, 17, 100):
            with pytest.raises(ValueError):
                htm_ids.htm_id_to_name(value)


class TestHierarchy:
    @given(valid_ids)
    def test_children_have_parent(self, htm_id):
        for child in htm_ids.child_ids(htm_id):
            assert htm_ids.parent_id(child) == htm_id
            assert htm_ids.htm_level(child) == htm_ids.htm_level(htm_id) + 1

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            htm_ids.parent_id(8)

    @given(valid_ids)
    def test_ancestor_at_own_level_is_identity(self, htm_id):
        level = htm_ids.htm_level(htm_id)
        assert htm_ids.id_range_at_level(htm_id, level) == (htm_id, htm_id)

    @given(valid_ids)
    def test_parent_chain_reaches_a_root_in_level_steps(self, htm_id):
        current = htm_id
        for _ in range(htm_ids.htm_level(htm_id)):
            current = htm_ids.parent_id(current)
        assert current in htm_ids.root_face_ids()
        with pytest.raises(ValueError):
            htm_ids.parent_id(current)

    def test_children_of_an_invalid_id_rejected(self):
        with pytest.raises(ValueError):
            htm_ids.child_ids(17)
        with pytest.raises(ValueError):
            htm_ids.child_ids(3)


class TestRanges:
    @given(valid_ids, st.integers(min_value=0, max_value=4))
    def test_descendant_range_size(self, htm_id, extra_levels):
        level = htm_ids.htm_level(htm_id) + extra_levels
        low, high = htm_ids.id_range_at_level(htm_id, level)
        assert high - low + 1 == 4**extra_levels
        # Every descendant extends the ancestor's bit pattern.
        assert low >> (2 * extra_levels) == htm_id
        assert high >> (2 * extra_levels) == htm_id

    @given(valid_ids)
    def test_child_ranges_partition_parent_range(self, htm_id):
        level = htm_ids.htm_level(htm_id) + 3
        parent_low, parent_high = htm_ids.id_range_at_level(htm_id, level)
        covered = []
        for child in htm_ids.child_ids(htm_id):
            covered.append(htm_ids.id_range_at_level(child, level))
        covered.sort()
        assert covered[0][0] == parent_low
        assert covered[-1][1] == parent_high
        for (low_a, high_a), (low_b, _high_b) in zip(covered, covered[1:]):
            assert low_b == high_a + 1

    def test_shallower_level_rejected(self):
        child = htm_ids.child_ids(8)[0]
        with pytest.raises(ValueError):
            htm_ids.id_range_at_level(child, 0)


class TestEnumeration:
    def test_count_at_level(self):
        # The root faces' descendants tile level L with 8 * 4**L contiguous IDs.
        for level in (0, 1, 3, 7):
            spans = [htm_ids.id_range_at_level(face, level) for face in htm_ids.root_face_ids()]
            for (_low_a, high_a), (low_b, _high_b) in zip(spans, spans[1:]):
                assert low_b == high_a + 1
            assert spans[-1][1] - spans[0][0] + 1 == 8 * 4**level

    def test_iteration_matches_count(self):
        # Every integer in the level-2 span is a level-2 ID; its neighbours are no IDs at all.
        low = htm_ids.id_range_at_level(8, 2)[0]
        high = htm_ids.id_range_at_level(15, 2)[1]
        assert (low, high) == (8 << 4, (16 << 4) - 1)
        assert all(htm_ids.htm_level(i) == 2 for i in range(low, high + 1))
        assert not htm_ids.is_valid_htm_id(low - 1)
        assert not htm_ids.is_valid_htm_id(high + 1)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            htm_ids.id_range_at_level(8, -1)

    def test_skyquery_level_ids_fit_in_32_bits(self):
        last_id = (16 << (2 * htm_ids.SKYQUERY_LEVEL)) - 1
        assert last_id.bit_length() <= 32
