"""Unit tests for the experiment harness (Table-I protocol)."""

import numpy as np
import pytest

from repro.experiments import (
    TABLE1_METHODS,
    MethodSpec,
    Table1Entry,
    build_solver,
    cycles_to_tolerance,
    default_hierarchy,
    table1_entry,
)
from repro.solvers import AFACx, Multadd, MultiplicativeMultigrid


class TestMethodSpec:
    def test_twelve_methods(self):
        assert len(TABLE1_METHODS) == 12

    def test_labels_match_paper(self):
        labels = [m.label for m in TABLE1_METHODS]
        assert labels[0] == "sync Mult"
        assert "r-Multadd, atomic-write, local-res" in labels

    def test_validation(self):
        with pytest.raises(ValueError):
            MethodSpec("x", "cg")
        with pytest.raises(ValueError):
            MethodSpec("x", "multadd", rescomp="psychic")
        with pytest.raises(ValueError):
            MethodSpec("x", "multadd", write="hope")

    def test_build_solver_types(self, hier_7pt_agg):
        assert isinstance(
            build_solver(TABLE1_METHODS[0], hier_7pt_agg, "jacobi", weight=0.9),
            MultiplicativeMultigrid,
        )
        assert isinstance(
            build_solver(TABLE1_METHODS[1], hier_7pt_agg, "jacobi", weight=0.9),
            Multadd,
        )
        assert isinstance(
            build_solver(TABLE1_METHODS[3], hier_7pt_agg, "jacobi", weight=0.9),
            AFACx,
        )


class TestCyclesToTolerance:
    def test_sync_mult(self, hier_7pt_agg, b_7pt):
        v, c = cycles_to_tolerance(
            TABLE1_METHODS[0],
            hier_7pt_agg,
            b_7pt,
            "jacobi",
            tol=1e-6,
            max_cycles=100,
            weight=0.9,
        )
        assert v is not None and v % 5 == 0
        assert c == v

    def test_async_multadd(self, hier_7pt_agg, b_7pt):
        v, c = cycles_to_tolerance(
            TABLE1_METHODS[8],
            hier_7pt_agg,
            b_7pt,
            "jacobi",
            tol=1e-6,
            max_cycles=100,
            runs=2,
            alpha=0.5,
            weight=0.9,
        )
        assert v is not None
        assert c >= v - 1e-9  # criterion-2 overshoot

    def test_divergent_returns_none(self, hier_7pt, b_7pt):
        # BPX-style divergence is not in the specs, so emulate with an
        # impossible tolerance within tiny max_cycles.
        v, c = cycles_to_tolerance(
            TABLE1_METHODS[0],
            hier_7pt,
            b_7pt,
            "jacobi",
            tol=1e-30,
            max_cycles=10,
            weight=0.9,
        )
        assert v is None and np.isnan(c)


class TestTable1Entry:
    def test_full_entry(self, hier_7pt_agg, b_7pt):
        e = table1_entry(
            TABLE1_METHODS[1],
            hier_7pt_agg,
            b_7pt,
            "jacobi",
            nthreads=68,
            tol=1e-6,
            runs=1,
            max_cycles=100,
            weight=0.9,
        )
        assert not e.diverged
        assert e.time > 0
        assert e.vcycles is not None

    def test_cells_dagger(self):
        e = Table1Entry("x", None, None, None)
        assert e.cells() == (None, None, None)

    def test_default_hierarchy_options(self, A_7pt):
        h = default_hierarchy(A_7pt, aggressive_levels=1)
        assert h.options.coarsen_type == "hmis"
        assert h.options.aggressive_levels == 1
