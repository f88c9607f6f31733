"""FSM → gate-level synthesis flow.

This is the reproduction's stand-in for the paper's "after performing state
assignment, the circuits are synthesized and mapped onto a standard-cell
library using SIS":

1. encode states (:mod:`repro.fsm.encoding`);
2. extract per-output-bit on/dc truth tables over the ``r + s`` input and
   present-state variables (unused state codes and unspecified input
   combinations are don't-cares; the specification's output ``-`` entries
   are explicit don't-cares);
3. minimize each output with the espresso-style heuristic;
4. build a structurally-hashed netlist (identical product terms are shared
   across outputs) and map it onto the cell library.

Variable order (and hence minterm bit order) everywhere downstream:
variables ``0 .. r-1`` are the primary inputs, ``r .. r+s-1`` are the
present-state bits.  Netlist outputs are the ``s`` next-state bits followed
by the ``o`` primary outputs — exactly the paper's observable bit vector
``b_1 .. b_n`` with ``n = s + o``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fsm.encoding import Encoding, encode_states
from repro.fsm.machine import FSM
from repro.logic.cover import Cover, _check_dense_arity
from repro.logic.cube import Cube
from repro.logic.espresso import espresso
from repro.logic.netlist import GateKind, Netlist
from repro.logic.tech import DEFAULT_LIBRARY, CellLibrary, CircuitStats, circuit_stats
from repro.util.bitops import int_to_bits


@dataclass
class SynthesisResult:
    """A synthesized FSM: netlist plus all the metadata the CED flow needs."""

    fsm: FSM
    encoding: Encoding
    netlist: Netlist
    covers: list[Cover]
    on_sets: np.ndarray  # (num_bits, 2**num_vars) bool
    dc_sets: np.ndarray  # (num_bits, 2**num_vars) bool
    stats: CircuitStats
    library: CellLibrary

    # ------------------------------------------------------------------
    # Dimensions
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        """Primary inputs r."""
        return self.fsm.num_inputs

    @property
    def num_state_bits(self) -> int:
        """State bits s."""
        return self.encoding.num_bits

    @property
    def num_fsm_outputs(self) -> int:
        """Primary outputs o."""
        return self.fsm.num_outputs

    @property
    def num_vars(self) -> int:
        """Combinational input variables: r + s."""
        return self.num_inputs + self.num_state_bits

    @property
    def num_bits(self) -> int:
        """Observable next-state/output bits: n = s + o."""
        return self.num_state_bits + self.num_fsm_outputs

    @property
    def reset_code(self) -> int:
        return self.encoding.code(self.fsm.reset_state)

    def minterm(self, state_code: int, input_value: int) -> int:
        """Pack (input, present state) into a variable-space minterm."""
        return input_value | (state_code << self.num_inputs)

    def pattern(self, state_code: int, input_value: int) -> np.ndarray:
        """The same pair as a 0/1 pattern row for the netlist simulator."""
        bits = int_to_bits(input_value, self.num_inputs) + int_to_bits(
            state_code, self.num_state_bits
        )
        return np.array(bits, dtype=np.uint8)

    def split_response(self, bits: np.ndarray) -> tuple[int, int]:
        """Split an n-bit response row into (next-state code, output word)."""
        s = self.num_state_bits
        next_code = int(np.dot(bits[:s].astype(np.int64), 1 << np.arange(s)))
        o = self.num_fsm_outputs
        output = int(np.dot(bits[s:].astype(np.int64), 1 << np.arange(o)))
        return next_code, output


def synthesize_fsm(
    fsm: FSM,
    encoding: Encoding | str = "binary",
    minimize: bool = True,
    library: CellLibrary = DEFAULT_LIBRARY,
    multilevel: bool = False,
) -> SynthesisResult:
    """Run the full synthesis flow on a symbolic FSM.

    ``multilevel=True`` applies the algebraic divisor-extraction pass of
    :mod:`repro.logic.multilevel` after two-level minimization, sharing
    sub-expressions across outputs (closer to the SIS flow the paper
    used, at some runtime cost).
    """
    if isinstance(encoding, str):
        encoding = encode_states(fsm, encoding)
    r = fsm.num_inputs
    s = encoding.num_bits
    num_vars = r + s
    _check_dense_arity(num_vars)  # before the dense table below
    num_bits = s + fsm.num_outputs
    space = 1 << num_vars

    # value[bit, minterm]: -1 don't-care / unspecified, else 0 or 1.
    values = np.full((num_bits, space), -1, dtype=np.int8)
    initial_cubes: list[list[Cube]] = [[] for _ in range(num_bits)]

    for transition in fsm.transitions:
        cube = _transition_cube(transition.input_cube, encoding.code(transition.src), r, s)
        minterms = cube.minterm_array()
        dst_code = encoding.code(transition.dst)
        for bit in range(s):
            target = (dst_code >> bit) & 1
            _assign(values, bit, minterms, target, fsm, transition)
            if target:
                initial_cubes[bit].append(cube)
        for bit, char in enumerate(transition.output):
            if char == "-":
                continue
            target = int(char)
            _assign(values, s + bit, minterms, target, fsm, transition)
            if target:
                initial_cubes[s + bit].append(cube)

    on_sets = values == 1
    dc_sets = values == -1

    covers: list[Cover] = []
    for bit in range(num_bits):
        if minimize:
            initial = Cover(num_vars, initial_cubes[bit]).deduplicated()
            covers.append(
                espresso(num_vars, on_sets[bit], dc_sets[bit], initial=initial)
            )
        else:
            covers.append(Cover(num_vars, initial_cubes[bit]).deduplicated())

    input_names = [f"in{j}" for j in range(r)] + [f"ps{j}" for j in range(s)]
    output_names = [f"ns{j}" for j in range(s)] + [
        f"out{j}" for j in range(fsm.num_outputs)
    ]
    if multilevel:
        from repro.logic.multilevel import multilevel_netlist

        netlist = multilevel_netlist(covers, input_names, output_names)
    else:
        netlist = covers_to_netlist(covers, input_names, output_names)
    stats = circuit_stats(netlist, library, num_flipflops=s)
    return SynthesisResult(
        fsm=fsm,
        encoding=encoding,
        netlist=netlist,
        covers=covers,
        on_sets=on_sets,
        dc_sets=dc_sets,
        stats=stats,
        library=library,
    )


def covers_to_netlist(
    covers: list[Cover],
    input_names: list[str],
    output_names: list[str],
) -> Netlist:
    """Multi-output SOP → netlist with shared literals and product terms."""
    if len(covers) != len(output_names):
        raise ValueError("one cover per output required")
    if not covers:
        raise ValueError("at least one output required")
    num_vars = covers[0].num_vars
    if num_vars != len(input_names):
        raise ValueError("input name count must match cover arity")

    netlist = Netlist()
    literal_nodes: list[int] = [netlist.add_input(name) for name in input_names]
    for cover, name in zip(covers, output_names):
        if cover.num_vars != num_vars:
            raise ValueError("mixed cover arities")
        netlist.add_output(name, emit_cover(netlist, literal_nodes, cover))
    return netlist


def emit_cover(netlist: Netlist, literal_nodes: list[int], cover: Cover) -> int:
    """Emit a cover as AND/OR logic over existing variable nodes.

    Structural hashing in the netlist shares identical literals and
    product terms with everything emitted before.
    """

    def literal(var: int, polarity: int) -> int:
        node = literal_nodes[var]
        return node if polarity else netlist.add_not(node)

    products = []
    for cube in cover.cubes:
        literals = [literal(var, pol) for var, pol in cube.literals()]
        if not literals:
            return netlist.add_const(1)
        products.append(
            literals[0]
            if len(literals) == 1
            else netlist.add_gate(GateKind.AND, literals)
        )
    if not products:
        return netlist.add_const(0)
    if len(products) == 1:
        return products[0]
    return netlist.add_gate(GateKind.OR, products)


def _transition_cube(input_cube: str, src_code: int, r: int, s: int) -> Cube:
    """A transition's (input cube, source state) as a cube over r+s vars."""
    care = 0
    value = 0
    for position, char in enumerate(input_cube):
        if char == "-":
            continue
        care |= 1 << position
        if char == "1":
            value |= 1 << position
    state_mask = ((1 << s) - 1) << r
    care |= state_mask
    value |= (src_code << r) & state_mask
    return Cube(r + s, care, value)


def _assign(
    values: np.ndarray,
    bit: int,
    minterms: np.ndarray,
    target: int,
    fsm: FSM,
    transition,
) -> None:
    current = values[bit, minterms]
    conflict = (current >= 0) & (current != target)
    if conflict.any():
        raise ValueError(
            f"{fsm.name}: conflicting specification for bit {bit} at "
            f"transition {transition}"
        )
    values[bit, minterms] = target
