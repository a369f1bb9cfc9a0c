"""Unit tests for repro.core.properties (schemas and layout)."""

import pytest

from repro.core.errors import SchemaError
from repro.core.properties import EMPTY_SCHEMA, Field, Schema


class TestField:
    def test_defaults(self):
        f = Field("x")
        assert f.size == 8
        assert f.payload == 0
        assert f.default is None

    def test_bad_size(self):
        with pytest.raises(SchemaError):
            Field("x", size=0)

    def test_bad_payload(self):
        with pytest.raises(SchemaError):
            Field("x", payload=-1)


class TestSchema:
    def test_empty(self):
        assert len(EMPTY_SCHEMA) == 0
        assert EMPTY_SCHEMA.nbytes == 0

    def test_offsets_are_aligned(self):
        s = Schema([Field("a", size=4), Field("b", size=8),
                    Field("c", size=1)])
        for name in ("a", "b", "c"):
            assert s.offset(name) % 8 == 0

    def test_offsets_monotone(self):
        s = Schema([Field("a"), Field("b"), Field("c")])
        assert s.offset("a") < s.offset("b") < s.offset("c")

    def test_nbytes_covers_fields(self):
        s = Schema([Field("a"), Field("b", size=16)])
        assert s.nbytes >= 8 + 16
        assert s.nbytes % 8 == 0

    def test_slot_indices(self):
        s = Schema([Field("a"), Field("b")])
        assert s.slot("a") == 0
        assert s.slot("b") == 1

    def test_unknown_slot_raises(self):
        s = Schema([Field("a")])
        with pytest.raises(SchemaError):
            s.slot("nope")
        with pytest.raises(SchemaError):
            s.offset("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Field("a"), Field("a")])

    def test_contains(self):
        s = Schema([Field("a")])
        assert "a" in s
        assert "b" not in s

    def test_defaults_fresh_list(self):
        s = Schema([Field("a", default=1), Field("b", default=[])])
        d1, d2 = s.defaults(), s.defaults()
        assert d1 == [1, []]
        assert d1 is not d2

