"""Tests for repro.core.registry."""

from __future__ import annotations

import pytest

from repro.core.base import SchedulingHeuristic
from repro.core.ecef import ECEF
from repro.core.registry import (
    ECEF_FAMILY,
    PAPER_HEURISTICS,
    available_heuristics,
    get_heuristic,
    instantiate,
    normalize_heuristic_key,
    register_heuristic,
)


class TestLookup:
    def test_paper_heuristics_all_registered(self):
        for key in PAPER_HEURISTICS:
            assert isinstance(get_heuristic(key), SchedulingHeuristic)

    def test_ecef_family_subset_of_paper(self):
        assert set(ECEF_FAMILY) <= set(PAPER_HEURISTICS)

    def test_paper_line_up_has_seven_entries(self):
        assert len(PAPER_HEURISTICS) == 7

    def test_display_names_match_figures(self):
        expected = {
            "flat_tree": "Flat Tree",
            "fef": "FEF",
            "ecef": "ECEF",
            "ecef_la": "ECEF-LA",
            "ecef_lat_min": "ECEF-LAt",
            "ecef_lat_max": "ECEF-LAT",
            "bottom_up": "BottomUp",
        }
        for key, name in expected.items():
            assert get_heuristic(key).name == name

    def test_key_normalisation(self):
        assert get_heuristic("ECEF-LA").name == "ECEF-LA"
        assert get_heuristic("  Flat Tree ").name == "Flat Tree"

    def test_one_normaliser_for_every_spelling(self):
        spellings = ("ecef_la", "ECEF-LA", "ECEF LA", " ecef_la ")
        assert {normalize_heuristic_key(key) for key in spellings} == {"ecef_la"}

    def test_unknown_key_lists_alternatives(self):
        with pytest.raises(ValueError, match="known keys"):
            get_heuristic("magic")

    def test_each_call_returns_fresh_instance(self):
        assert get_heuristic("ecef") is not get_heuristic("ecef")

    def test_available_is_sorted(self):
        names = available_heuristics()
        assert names == sorted(names)

    def test_instantiate_preserves_order(self):
        heuristics = instantiate(["fef", "ecef"])
        assert [h.name for h in heuristics] == ["FEF", "ECEF"]


class TestRegistration:
    def test_register_and_use_custom_heuristic(self):
        register_heuristic("custom_test_ecef", ECEF, overwrite=True)
        assert isinstance(get_heuristic("custom_test_ecef"), ECEF)

    def test_register_rejects_duplicates(self):
        register_heuristic("dup_test", ECEF, overwrite=True)
        with pytest.raises(ValueError, match="already registered"):
            register_heuristic("dup_test", ECEF)

    def test_register_rejects_non_callable(self):
        with pytest.raises(TypeError):
            register_heuristic("bad", 42)  # type: ignore[arg-type]

    def test_register_rejects_empty_key(self):
        with pytest.raises(ValueError):
            register_heuristic("   ", ECEF)
