"""Cross-system equivalence: PlatoD2GL, PlatoGL and AliGraph must expose
identical graph state for any dynamic-update sequence (DESIGN.md §7) —
the property that makes the benchmark comparisons meaningful.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.aligraph import AliGraphStore
from repro.baselines.platogl import PlatoGLStore
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore

ops_st = st.lists(
    st.tuples(
        st.sampled_from(["add", "update", "remove"]),
        st.integers(min_value=0, max_value=8),    # src
        st.integers(min_value=0, max_value=60),   # dst
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)


def _stores():
    return [
        DynamicGraphStore(SamtreeConfig(capacity=4)),
        DynamicGraphStore(SamtreeConfig(capacity=8, alpha=2, compress=False)),
        PlatoGLStore(block_size=4),
        AliGraphStore(),
    ]


@given(ops_st)
@settings(max_examples=120, deadline=None)
def test_all_stores_agree(ops):
    stores = _stores()
    ref = {}
    for kind, src, dst, w in ops:
        if kind == "add":
            expected_new = (src, dst) not in ref
            for s in stores:
                assert s.add_edge(src, dst, w) == expected_new
            ref[(src, dst)] = w
        elif kind == "update":
            expected = (src, dst) in ref
            for s in stores:
                assert s.update_edge(src, dst, w) == expected
            if expected:
                ref[(src, dst)] = w
        else:
            expected = (src, dst) in ref
            for s in stores:
                assert s.remove_edge(src, dst) == expected
            ref.pop((src, dst), None)

    srcs = {k[0] for k in ref}
    for s in stores:
        assert s.num_edges == len(ref)
        assert s.num_sources == len(srcs)
        got = {}
        for src in srcs:
            assert s.degree(src) == sum(1 for k in ref if k[0] == src)
            for dst, w in s.neighbors(src):
                got[(src, dst)] = w
        if isinstance(s, PlatoGLStore):
            # The baseline's CSTable *is* its weight storage (paper §III):
            # weights come back by differencing cumulative sums.
            assert got == pytest.approx(ref)
        else:
            assert got == ref
    stores[0].check_invariants()
    stores[1].check_invariants()


@given(ops_st)
@settings(max_examples=40, deadline=None)
def test_total_weights_agree(ops):
    stores = _stores()
    for kind, src, dst, w in ops:
        for s in stores:
            if kind == "add":
                s.add_edge(src, dst, w)
            elif kind == "update":
                s.update_edge(src, dst, w)
            else:
                s.remove_edge(src, dst)
    d2gl = stores[0]
    for src in set(op[1] for op in ops):
        expected = sum(w for _, w in d2gl.neighbors(src))
        for s in stores[1:]:
            assert sum(w for _, w in s.neighbors(src)) == pytest.approx(
                expected, abs=1e-6
            )
