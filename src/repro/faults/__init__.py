"""Fault substrate: fault models, collapsing, injection, fault simulation.

The paper's experiments use single stuck-at faults on the synthesized gate
level ("the stuck-at fault model has been used as the source of errors") but
stress that the method works for *any restricted error model*; the
:class:`repro.faults.model.FaultModel` protocol keeps the CED flow agnostic,
and :mod:`repro.faults.model` ships both the stuck-at universe and a
specification-level transition-fault model as a second instance.
"""

from repro.faults.block import FaultResponseBlock
from repro.faults.collapse import (
    CollapseReport,
    FaultClass,
    FaultSelection,
    SignatureEngine,
    collapse_classes,
    collapse_faults,
    select_stuck_at_faults,
)
from repro.faults.model import (
    Fault,
    FaultModel,
    StuckAtModel,
    TransitionFaultModel,
    stuck_at_universe,
)
from repro.faults.simulator import FaultSimResult, detected_faults, fault_coverage

__all__ = [
    "CollapseReport",
    "Fault",
    "FaultClass",
    "FaultModel",
    "FaultResponseBlock",
    "FaultSelection",
    "FaultSimResult",
    "SignatureEngine",
    "StuckAtModel",
    "TransitionFaultModel",
    "collapse_classes",
    "collapse_faults",
    "detected_faults",
    "fault_coverage",
    "select_stuck_at_faults",
    "stuck_at_universe",
]
