"""Unit tests for the RoCo VC configuration (paper Table 1)."""

from collections import Counter

import pytest

from repro.core.types import Direction, RoutingMode
from repro.routers.roco.path_set import ROW, TABLE1, table1_summary


def class_counts(mode):
    return Counter(spec.vc_class for spec in TABLE1[mode])


class TestTable1Counts:
    @pytest.mark.parametrize("mode", list(RoutingMode))
    def test_twelve_vcs_in_four_path_sets(self, mode):
        config = TABLE1[mode]
        assert len(config) == 12
        sets = Counter((spec.module, spec.port) for spec in config)
        assert all(count == 3 for count in sets.values())
        assert len(sets) == 4

    def test_xy_classes(self):
        assert class_counts(RoutingMode.XY) == Counter(
            dx=4, dy=3, txy=2, injxy=2, injyx=1
        )

    def test_xyyx_classes(self):
        assert class_counts(RoutingMode.XY_YX) == Counter(
            dx=3, dy=3, txy=2, tyx=2, injxy=1, injyx=1
        )

    def test_adaptive_classes(self):
        assert class_counts(RoutingMode.ADAPTIVE) == Counter(
            dx=3, dy=2, txy=3, tyx=2, injxy=1, injyx=1
        )

    def test_summary_matches_paper_layout(self):
        summary = table1_summary(RoutingMode.ADAPTIVE)
        assert summary["row_port1"] == ["dx", "tyx", "Injxy"]
        assert summary["row_port2"] == ["dx", "dx", "tyx"]
        assert summary["column_port1"] == ["dy", "txy", "Injyx"]
        assert summary["column_port2"] == ["dy", "txy", "txy"]

    def test_xy_summary(self):
        summary = table1_summary(RoutingMode.XY)
        assert summary["row_port1"] == ["dx", "dx", "Injxy"]
        assert summary["row_port2"] == ["dx", "dx", "Injxy"]


class TestClassPlacement:
    @pytest.mark.parametrize("mode", list(RoutingMode))
    def test_row_module_holds_x_classes(self, mode):
        for spec in TABLE1[mode]:
            if spec.module == ROW:
                assert spec.vc_class in ("dx", "tyx", "injxy")
            else:
                assert spec.vc_class in ("dy", "txy", "injyx")

    @pytest.mark.parametrize("mode", list(RoutingMode))
    def test_injection_vcs_accept_local_only(self, mode):
        for spec in TABLE1[mode]:
            if spec.vc_class.startswith("inj"):
                assert spec.accepts_from == (Direction.LOCAL,)
            else:
                assert Direction.LOCAL not in spec.accepts_from

    @pytest.mark.parametrize("mode", list(RoutingMode))
    def test_arrival_directions_match_class_dimension(self, mode):
        """dx/txy receive X-travelling flits; dy/tyx receive Y-travelling."""
        for spec in TABLE1[mode]:
            if spec.vc_class in ("dx", "txy"):
                assert set(spec.accepts_from) <= {Direction.EAST, Direction.WEST}
            if spec.vc_class in ("dy", "tyx"):
                assert set(spec.accepts_from) <= {Direction.NORTH, Direction.SOUTH}


class TestDeadlockDiscipline:
    def test_adaptive_has_escape_vcs(self):
        escapes = [s for s in TABLE1[RoutingMode.ADAPTIVE] if s.escape]
        assert len(escapes) == 3
        assert {s.vc_class for s in escapes} == {"dx", "txy"}
        # The paper places them in the second path sets (Section 3.1).
        assert all(s.port == 1 for s in escapes)

    def test_xyyx_has_final_only_partition(self):
        finals = [s for s in TABLE1[RoutingMode.XY_YX] if s.final_only]
        assert len(finals) == 1
        assert finals[0].vc_class == "dx"

    def test_xy_needs_no_discipline(self):
        for spec in TABLE1[RoutingMode.XY]:
            assert not spec.escape and not spec.final_only


class TestCoverage:
    @pytest.mark.parametrize("mode", list(RoutingMode))
    def test_every_flow_has_a_home(self, mode):
        """Every (arrival direction, class) flow the routing mode can
        produce must have at least one admitting VC."""
        config = TABLE1[mode]
        needed = {("injxy", Direction.LOCAL), ("injyx", Direction.LOCAL)}
        for arrival in (Direction.EAST, Direction.WEST):
            needed.add(("dx", arrival))
            needed.add(("txy", arrival))
        if mode is not RoutingMode.XY:
            for arrival in (Direction.NORTH, Direction.SOUTH):
                needed.add(("tyx", arrival))
        for arrival in (Direction.NORTH, Direction.SOUTH):
            needed.add(("dy", arrival))
        for cls, arrival in needed:
            homes = [
                s
                for s in config
                if s.vc_class == cls and arrival in s.accepts_from
            ]
            assert homes, f"{mode}: no VC admits {cls} from {arrival.name}"

    @pytest.mark.parametrize("mode", list(RoutingMode))
    def test_non_escape_home_exists_for_continuing_flows(self, mode):
        """Escape VCs restrict routes, so plain dx/dy homes must exist."""
        config = TABLE1[mode]
        for cls, arrivals in (
            ("dx", (Direction.EAST, Direction.WEST)),
            ("dy", (Direction.NORTH, Direction.SOUTH)),
        ):
            for arrival in arrivals:
                plain = [
                    s
                    for s in config
                    if s.vc_class == cls
                    and arrival in s.accepts_from
                    and not s.escape
                    and not s.final_only
                ]
                assert plain, f"{mode}: no unrestricted {cls} from {arrival.name}"
