"""Tests for edge-list I/O: parsing and loading into a store."""

from __future__ import annotations

import io

import pytest

from repro.core.topology import DynamicGraphStore
from repro.datasets.io import load_edge_list, read_edge_list
from repro.errors import ConfigurationError


class TestEdgeListIO:
    SAMPLE = "\n".join(
        [
            "# comment",
            "",
            "1 2",
            "1 3 0.5",
            "2\t3\t1.5\t4",
        ]
    )

    def test_read(self):
        rows = list(read_edge_list(io.StringIO(self.SAMPLE)))
        assert rows == [
            (1, 2, 1.0, 0),
            (1, 3, 0.5, 0),
            (2, 3, 1.5, 4),
        ]

    def test_read_malformed(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            list(read_edge_list(io.StringIO("1")))
        with pytest.raises(ConfigurationError, match="line 1"):
            list(read_edge_list(io.StringIO("a b")))
        with pytest.raises(ConfigurationError):
            list(read_edge_list(io.StringIO("1 2 3 4 5")))

    def test_load_into_store(self):
        store = DynamicGraphStore()
        ops = load_edge_list(store, io.StringIO(self.SAMPLE))
        assert ops == 3
        assert store.edge_weight(1, 3) == pytest.approx(0.5)
        assert store.edge_weight(2, 3, etype=4) == pytest.approx(1.5)

    def test_load_bidirected(self):
        store = DynamicGraphStore()
        load_edge_list(store, io.StringIO("1 2 0.5"), bidirected=True)
        assert store.edge_weight(1, 2) == pytest.approx(0.5)
        assert store.edge_weight(2, 1, etype=8) == pytest.approx(0.5)
