"""Tests for sound, behavior-exact fault collapsing."""

import numpy as np
from hypothesis import given, settings

from repro.faults import block as block_module
from repro.faults.collapse import (
    SignatureEngine,
    collapse_classes,
    collapse_faults,
    select_stuck_at_faults,
    signature_block,
)
from repro.faults.model import StuckAtModel, stuck_at_universe
from repro.logic.netlist import GateKind, Netlist
from repro.logic.sim import evaluate_batch

from tests.strategies import raw_netlists


def behaviours(netlist, faults):
    """Map each fault to its full output behaviour over all inputs."""
    num_inputs = netlist.num_inputs
    patterns = (
        (np.arange(1 << num_inputs)[:, None] >> np.arange(num_inputs)) & 1
    ).astype(np.uint8)
    result = {}
    for fault in faults:
        node, value = fault.payload
        result[fault.name] = evaluate_batch(
            netlist, patterns, fault=(node, value)
        ).tobytes()
    return result


class TestCollapseSoundness:
    def build_chain(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        g = netlist.add_gate(GateKind.AND, [a, b])
        netlist.add_output("y", netlist.add_not(g))
        return netlist

    def test_collapse_removes_only_equivalents(self):
        """Every dropped fault's behaviour is still represented."""
        netlist = self.build_chain()
        universe = stuck_at_universe(netlist)
        collapsed = collapse_faults(netlist, universe)
        assert len(collapsed) < len(universe)
        all_behaviours = behaviours(netlist, universe)
        kept_behaviours = set(
            all_behaviours[f.name] for f in collapsed
        )
        for fault in universe:
            assert all_behaviours[fault.name] in kept_behaviours

    def test_collapse_on_synthesized_circuit(self, traffic_synthesis):
        netlist = traffic_synthesis.netlist
        universe = stuck_at_universe(netlist)
        collapsed = collapse_faults(netlist, universe)
        assert 0 < len(collapsed) < len(universe)
        all_behaviours = behaviours(netlist, universe)
        kept = {all_behaviours[f.name] for f in collapsed}
        for fault in universe:
            assert all_behaviours[fault.name] in kept

    def test_fanout_nets_not_collapsed(self):
        """A net feeding two gates must keep its faults."""
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        g = netlist.add_gate(GateKind.AND, [a, b])
        netlist.add_output("y1", netlist.add_not(g))
        netlist.add_output("y2", netlist.add_gate(GateKind.OR, [g, a]))
        universe = stuck_at_universe(netlist)
        collapsed = collapse_faults(netlist, universe)
        kept_payloads = {f.payload for f in collapsed}
        assert (g, 0) in kept_payloads and (g, 1) in kept_payloads


class TestOutputTapRegression:
    """The soundness fix: nets in ``output_ids`` are never fanout-free.

    ``Netlist.fanout_map`` counts only gate readers, so a net that is
    itself an observed output *and* feeds exactly one gate used to look
    collapsible — its faults were dropped even though they corrupt the
    observed output directly and are distinguishable from the kept
    downstream gate fault.
    """

    def build_output_tap(self):
        """AND output observed directly and feeding a single inverter."""
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        g = netlist.add_gate(GateKind.AND, [a, b])
        netlist.add_output("y", g)
        netlist.add_output("z", netlist.add_not(g))
        return netlist, g

    def test_output_tap_faults_are_kept(self):
        netlist, g = self.build_output_tap()
        universe = stuck_at_universe(netlist)
        collapsed = collapse_faults(netlist, universe)
        kept_payloads = {f.payload for f in collapsed}
        assert (g, 0) in kept_payloads and (g, 1) in kept_payloads

    def test_output_tap_faults_are_distinguishable(self):
        """The old drop was unsound, not merely conservative: the tapped
        net's sa0 differs at ``y`` from the inverter fault it was folded
        into, so no kept fault stood in for it."""
        netlist, g = self.build_output_tap()
        universe = stuck_at_universe(netlist)
        collapsed = collapse_faults(netlist, universe)
        all_behaviours = behaviours(netlist, universe)
        kept = {all_behaviours[f.name] for f in collapsed}
        for fault in universe:
            assert all_behaviours[fault.name] in kept
        # And specifically: g-sa0 is NOT behaviour-equivalent to the
        # inverter-output sa1 the old rule folded it into.
        by_payload = {f.payload: f for f in universe}
        inverter = netlist.output_ids[1]
        assert (
            all_behaviours[by_payload[(g, 0)].name]
            != all_behaviours[by_payload[(inverter, 1)].name]
        )

    def test_next_state_tap_faults_are_kept(self, traffic_synthesis):
        """Synthesized machines observe next-state bits the same way."""
        netlist = traffic_synthesis.netlist
        collapsed = collapse_faults(netlist, stuck_at_universe(netlist))
        kept_payloads = {f.payload for f in collapsed}
        for node in netlist.output_ids:
            assert (node, 0) in kept_payloads
            assert (node, 1) in kept_payloads


class TestStructuralChains:
    def test_chain_folds_to_terminal_gate(self):
        """AND input sa0 chases through the inverter to the terminal."""
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        g = netlist.add_gate(GateKind.AND, [a, b])
        inv = netlist.add_not(g)
        netlist.add_output("y", inv)
        universe = stuck_at_universe(netlist)
        collapsed = collapse_faults(netlist, universe)
        kept_payloads = {f.payload for f in collapsed}
        # a-sa0 ≡ g-sa0 ≡ inv-sa1: only the terminal survives.
        assert (a, 0) not in kept_payloads
        assert (g, 0) not in kept_payloads
        assert (inv, 1) in kept_payloads

    def test_drop_requires_present_representative(self):
        """A fault is only dropped when its stand-in is in the list."""
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        g = netlist.add_gate(GateKind.AND, [a, b])
        netlist.add_output("y", netlist.add_not(g))
        universe = stuck_at_universe(netlist)
        # Remove every gate fault: input faults lose their stand-ins.
        inputs_only = [f for f in universe if f.payload[0] in (a, b)]
        collapsed = collapse_faults(netlist, inputs_only)
        assert collapsed == inputs_only


class TestSignatureClasses:
    def test_classes_partition_the_universe(self, traffic_synthesis):
        universe = stuck_at_universe(traffic_synthesis.netlist)
        report = collapse_classes(traffic_synthesis, universe)
        assert report.universe == len(universe)
        assert report.num_classes <= report.structural <= report.universe
        assert report.signature_patterns > 0
        names = [f.name for cls in report.classes for f in cls.members]
        assert sorted(names) == sorted(f.name for f in universe)
        for cls in report.classes:
            assert cls.members[0] is cls.representative
            assert cls.multiplicity == len(cls.members)

    def test_members_share_byte_identical_signatures(self, vending_synthesis):
        universe = stuck_at_universe(vending_synthesis.netlist)
        report = collapse_classes(vending_synthesis, universe)
        assert report.num_classes < report.structural
        block = signature_block(vending_synthesis)
        assert block is not None
        engine = SignatureEngine(block)
        for cls in report.classes:
            reference = engine.signature(cls.representative.payload)
            for member in cls.members[1:]:
                assert engine.signature(member.payload) == reference

    def test_distinct_classes_have_distinct_signatures(self, vending_synthesis):
        universe = stuck_at_universe(vending_synthesis.netlist)
        report = collapse_classes(vending_synthesis, universe)
        engine = SignatureEngine(signature_block(vending_synthesis))
        signatures = [
            engine.signature(cls.representative.payload)
            for cls in report.classes
        ]
        assert len(set(signatures)) == len(signatures)

    def test_pattern_budget_skips_functional_pass(
        self, traffic_synthesis, monkeypatch
    ):
        monkeypatch.setattr(block_module, "PATTERN_LIMIT", 1)
        universe = stuck_at_universe(traffic_synthesis.netlist)
        report = collapse_classes(traffic_synthesis, universe)
        assert report.signature_patterns == 0
        assert report.block is None
        assert report.num_classes == report.structural
        structural = collapse_faults(traffic_synthesis.netlist, universe)
        assert [c.representative.name for c in report.classes] == [
            f.name for f in structural
        ]

    def test_signature_flag_off_matches_structural(self, traffic_synthesis):
        universe = stuck_at_universe(traffic_synthesis.netlist)
        report = collapse_classes(traffic_synthesis, universe, signature=False)
        assert report.signature_patterns == 0
        assert report.num_classes == report.structural


class TestSharedSelection:
    def test_selection_accounts_for_whole_universe(self, traffic_synthesis):
        selection = select_stuck_at_faults(traffic_synthesis)
        assert selection.checked_universe == selection.universe
        assert sum(selection.multiplicities().values()) == selection.universe
        assert len(selection.checked) == selection.num_classes

    def test_model_and_verifier_share_the_recipe(self, traffic_synthesis):
        from repro.verification import exhaustive

        model = StuckAtModel(traffic_synthesis, max_faults=10)
        verifier = exhaustive.select_stuck_at_faults(
            traffic_synthesis, max_faults=10, seed=2004
        )
        assert [f.name for f in model.faults()] == [
            f.name for f in verifier.checked
        ]
        selection = model.selection()
        assert selection.universe == verifier.universe
        assert selection.structural == verifier.structural

    def test_subsample_keeps_class_multiplicities(self, traffic_synthesis):
        selection = select_stuck_at_faults(traffic_synthesis, max_faults=10)
        assert len(selection.checked) == 10
        assert selection.checked_universe <= selection.universe
        multiplicities = selection.multiplicities()
        for cls in selection.checked_classes:
            assert multiplicities[cls.representative.name] == cls.multiplicity

    def test_collapse_off_is_identity(self, traffic_synthesis):
        selection = select_stuck_at_faults(traffic_synthesis, collapse=False)
        assert selection.num_classes == selection.universe
        assert all(cls.multiplicity == 1 for cls in selection.classes)


class TestDifferentialProperty:
    @settings(max_examples=60, deadline=None)
    @given(netlist=raw_netlists())
    def test_dropped_faults_keep_equivalent_representatives(self, netlist):
        """Structural collapsing never loses a distinguishable behaviour:
        every dropped fault has a kept fault with a byte-identical packed
        response over the complete input space."""
        universe = stuck_at_universe(netlist)
        collapsed = collapse_faults(netlist, universe)
        kept_names = {f.name for f in collapsed}
        all_behaviours = behaviours(netlist, universe)
        kept_behaviours = {
            all_behaviours[f.name] for f in collapsed
        }
        for fault in universe:
            if fault.name not in kept_names:
                assert all_behaviours[fault.name] in kept_behaviours
