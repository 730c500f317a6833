"""Instruction-set substrate for the Sharing Architecture simulator.

The paper's SSim consumes GEM5 Alpha traces; this package defines the
equivalent abstract RISC instruction record that our synthetic trace
generator emits and the cycle-level simulator (:mod:`repro.core`) consumes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "OpClass": ".opcodes",
    "Opcode": ".opcodes",
    "OPCODE_CLASS": ".instructions",
    "EXEC_LATENCY": ".opcodes",
    "NUM_ARCH_REGS": ".registers",
    "ZERO_REG": ".instructions",
    "ArchReg": ".registers",
    "RegisterFileSpec": ".registers",
    "Instruction": ".instructions",
    "MemAccess": ".instructions",
    "nop": ".instructions",
    # submodules
    "instructions": ".instructions",
    "opcodes": ".opcodes",
    "registers": ".registers",
})
