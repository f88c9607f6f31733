"""Parity predictor synthesis.

The predictor is combinational logic that, from the primary input and the
(shared) present-state register, predicts the q parity bits the XOR trees
will compute over the machine's next-state/output word.  Its mapped cost
dominates the CED overhead, so three implementation strategies are
provided:

* ``"sop"`` — each predicted parity is synthesized as its own two-level
  function of (input, present state), minimized with don't-cares for
  state codes unreachable from reset.  Compact when the selected parity
  happens to have a simple SOP, but a parity of many machine outputs is
  the classic worst case for two-level logic (exponentially many
  products) — the effect behind the paper's §5 observation that "a single
  complex parity function may require the same or more area than a larger
  number of simple parity functions".
* ``"xor"`` — GF(2) linearity: ``parity(β·f(x)) = XOR_{j∈β} f_j(x)``, so
  the predictor re-implements only the tapped observable-bit functions
  (shared structurally across all parity outputs) and XOR-combines them.
  Never blows up, at the price of partially replicating the machine.
* ``"best"`` (default) — synthesize both and keep the cheaper, per design.

The prediction target is always the parity of the *implemented* good
machine's response, so the checker cannot false-alarm even on input
combinations the specification left open.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.detectability import TableConfig, input_alphabet
from repro.faults.block import _closure
from repro.logic.cover import Cover
from repro.logic.espresso import espresso
from repro.logic.netlist import GateKind, Netlist
from repro.logic.sim import evaluate_batch
from repro.logic.synthesis import SynthesisResult, covers_to_netlist, emit_cover
from repro.logic.tech import CircuitStats, circuit_stats

MODES = ("sop", "xor", "best")


@dataclass
class PredictorResult:
    """Synthesized predictor: netlist, per-output covers, mapped stats."""

    netlist: Netlist
    covers: list[Cover]
    stats: CircuitStats
    betas: list[int]
    mode: str = "sop"


def synthesize_predictor(
    synthesis: SynthesisResult,
    betas: list[int],
    unreachable_dc: bool = True,
    mode: str = "best",
    multilevel: bool = False,
) -> PredictorResult:
    """Build the q-output parity predictor for a parity-vector set."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not betas:
        empty = covers_to_netlist(
            [Cover.empty(synthesis.num_vars)],
            input_names=_input_names(synthesis),
            output_names=["pred0"],
        )
        return PredictorResult(
            netlist=empty,
            covers=[Cover.empty(synthesis.num_vars)],
            stats=CircuitStats.zero(),
            betas=[],
            mode=mode,
        )
    candidates: list[PredictorResult] = []
    if mode in ("sop", "best"):
        candidates.append(
            _sop_predictor(synthesis, betas, unreachable_dc, multilevel)
        )
    if mode in ("xor", "best"):
        candidates.append(_xor_predictor(synthesis, betas))
    return min(candidates, key=lambda result: result.stats.cost)


# ----------------------------------------------------------------------
# Two-level (SOP) predictor
# ----------------------------------------------------------------------
def _sop_predictor(
    synthesis: SynthesisResult,
    betas: list[int],
    unreachable_dc: bool,
    multilevel: bool,
) -> PredictorResult:
    num_vars = synthesis.num_vars
    space = 1 << num_vars
    # Response of the implemented machine on every (input, state) minterm.
    patterns = (
        (np.arange(space, dtype=np.int64)[:, None] >> np.arange(num_vars)) & 1
    ).astype(np.uint8)
    responses = evaluate_batch(synthesis.netlist, patterns)
    weights = (1 << np.arange(responses.shape[1], dtype=np.int64)).astype(np.int64)
    words = responses.astype(np.int64) @ weights

    dc = np.zeros(space, dtype=bool)
    if unreachable_dc:
        # Minterm (code << r) | input holds the good next state in its low
        # word bits, so reachability reads the words just simulated.
        r = synthesis.num_inputs
        alphabet = input_alphabet(synthesis, TableConfig())[0]
        next_state = words.reshape(-1, 1 << r)[:, alphabet] & np.int64(
            (1 << synthesis.num_state_bits) - 1
        )
        reachable = _closure(next_state, [synthesis.reset_code])
        dc = ~np.isin(np.arange(space) >> r, reachable)

    covers: list[Cover] = []
    for beta in betas:
        masked = words & np.int64(beta)
        on = ((np.bitwise_count(masked.astype(np.uint64)) & np.uint64(1)) == 1) & ~dc
        covers.append(espresso(num_vars, on, dc))

    output_names = [f"pred{l}" for l in range(len(betas))]
    if multilevel:
        from repro.logic.multilevel import multilevel_netlist

        netlist = multilevel_netlist(covers, _input_names(synthesis), output_names)
    else:
        netlist = covers_to_netlist(covers, _input_names(synthesis), output_names)
    stats = circuit_stats(netlist, synthesis.library)
    return PredictorResult(
        netlist=netlist, covers=covers, stats=stats, betas=betas, mode="sop"
    )


# ----------------------------------------------------------------------
# XOR-decomposed predictor
# ----------------------------------------------------------------------
def _xor_predictor(synthesis: SynthesisResult, betas: list[int]) -> PredictorResult:
    """Re-implement the tapped bit functions once, XOR-combine per β."""
    netlist = Netlist()
    literal_nodes = [netlist.add_input(name) for name in _input_names(synthesis)]
    needed = sorted(
        {j for beta in betas for j in range(synthesis.num_bits) if (beta >> j) & 1}
    )
    bit_nodes = {
        j: emit_cover(netlist, literal_nodes, synthesis.covers[j]) for j in needed
    }
    for index, beta in enumerate(betas):
        taps = [bit_nodes[j] for j in needed if (beta >> j) & 1]
        node = taps[0] if len(taps) == 1 else netlist.add_gate(GateKind.XOR, taps)
        netlist.add_output(f"pred{index}", node)
    stats = circuit_stats(netlist, synthesis.library)
    return PredictorResult(
        netlist=netlist,
        covers=[synthesis.covers[j] for j in needed],
        stats=stats,
        betas=betas,
        mode="xor",
    )


def _input_names(synthesis: SynthesisResult) -> list[str]:
    return [f"in{j}" for j in range(synthesis.num_inputs)] + [
        f"ps{j}" for j in range(synthesis.num_state_bits)
    ]
