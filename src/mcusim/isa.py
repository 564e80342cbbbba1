"""Instruction set: opcodes, operand formats, and the 16-bit word encoding.

Instruction words are 16 bits, direct addressing only:

    bits [15:11]  5-bit opcode
    bits [10:8]   rd (destination / operated-on register)
    bits [7:5]    rs (source register, register-register formats only)
    bits [7:0]    8-bit immediate value or direct address

Opcode values 0b10101 and 0b11111 are unassigned and decode as illegal.

Each `Format` is the tuple of the operand fields it carries, in source
order, and `FIELDS` holds each field's shift and mask; encoding,
decoding, assembling and disassembling all read this one layout table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

WORD_MASK = 0xFFFF
OPERAND_MASK = 0xFF
NUM_REGISTERS = 8
ROM_WORDS = 256


class Op(IntEnum):
    """The 30 assigned 5-bit opcodes."""

    NOP = 0b00000
    LOAD = 0b00001
    STORE = 0b00010
    MOVE = 0b00011
    LOADI = 0b00100
    BI = 0b00101
    BGTI = 0b00110
    INC = 0b00111
    DEC = 0b01000
    AND = 0b01001
    OR = 0b01010
    XOR = 0b01011
    NOT = 0b01100
    ADD = 0b01101
    SUB = 0b01110
    ZERO = 0b01111
    PORT0 = 0b10000
    BLT = 0b10001
    BNEQ = 0b10010
    PORT1 = 0b10011
    BGT = 0b10100
    BCH = 0b10110
    BEQ = 0b10111
    B7S = 0b11000
    BLTE = 0b11001
    SHL = 0b11010
    SHR = 0b11011
    ROR = 0b11100
    ROL = 0b11101
    UARTS = 0b11110


# 5-bit code points with no assigned opcode.
ILLEGAL_CODES: frozenset[int] = frozenset(range(32)) - {int(op) for op in Op}

BY_MNEMONIC: dict[str, Op] = {op.name: op for op in Op}


class Format(Enum):
    """Operand syntax class: the encoded fields it carries, in order.
    The rest of a word's operand bits are zero in its canonical form."""

    NONE = ()
    IMM = ("operand8",)
    REG = ("rd",)
    REG_REG = ("rd", "rs")
    REG_IMM = ("rd", "operand8")


# (shift, mask) of each operand field within a word.
FIELDS: dict[str, tuple[int, int]] = {
    "rd": (8, NUM_REGISTERS - 1),
    "rs": (5, NUM_REGISTERS - 1),
    "operand8": (0, OPERAND_MASK),
}


_REG_REG_OPS = (Op.MOVE, Op.AND, Op.OR, Op.XOR, Op.ADD, Op.SUB)
_REG_IMM_OPS = (Op.LOAD, Op.STORE, Op.LOADI)
_IMM_OPS = (Op.BI, Op.BGTI)

FORMATS: dict[Op, Format] = {op: Format.REG for op in Op}
FORMATS[Op.NOP] = Format.NONE
FORMATS.update({op: Format.REG_REG for op in _REG_REG_OPS})
FORMATS.update({op: Format.REG_IMM for op in _REG_IMM_OPS})
FORMATS.update({op: Format.IMM for op in _IMM_OPS})


# Semantic groupings used by the execution core and the gating policy.
ALU_OPS = frozenset({
    Op.INC, Op.DEC, Op.AND, Op.OR, Op.XOR, Op.NOT, Op.ADD, Op.SUB,
    Op.SHL, Op.SHR, Op.ROR, Op.ROL,
})
BRANCH_REG_OPS = frozenset({Op.BCH, Op.BEQ, Op.BNEQ, Op.BGT, Op.BLT, Op.BLTE})


class IllegalOpcodeError(ValueError):
    """Raised when a word's opcode field is one of the unassigned codes."""

    def __init__(self, word: int):
        self.word = word
        self.code = (word >> 11) & 0x1F
        super().__init__(f"illegal opcode 0b{self.code:05b} in word 0x{word:04X}")


@dataclass(frozen=True)
class Instruction:
    """Decoded instruction. Fields unused by the opcode's format are zero."""

    opcode: Op
    rd: int = 0
    rs: int = 0
    operand8: int = 0

    def __post_init__(self):
        if not 0 <= self.rd < NUM_REGISTERS:
            raise ValueError(f"rd out of range: {self.rd}")
        if not 0 <= self.rs < NUM_REGISTERS:
            raise ValueError(f"rs out of range: {self.rs}")
        if not 0 <= self.operand8 <= OPERAND_MASK:
            raise ValueError(f"operand out of range: {self.operand8}")


def encode(instr: Instruction) -> int:
    """Pack an instruction into its canonical 16-bit word."""
    word = int(instr.opcode) << 11
    for name in FORMATS[instr.opcode].value:
        word |= getattr(instr, name) << FIELDS[name][0]
    return word


def decode(word: int) -> Instruction:
    """Unpack a 16-bit word; bits unused by the format are ignored.

    Raises IllegalOpcodeError for the two unassigned opcode values.
    """
    if not 0 <= word <= WORD_MASK:
        raise ValueError(f"word out of range: {word:#x}")
    code = (word >> 11) & 0x1F
    if code in ILLEGAL_CODES:
        raise IllegalOpcodeError(word)
    op = Op(code)
    return Instruction(op, **{name: (word >> shift) & mask
                              for name in FORMATS[op].value
                              for shift, mask in [FIELDS[name]]})


def is_canonical(word: int) -> bool:
    """True when the word is the canonical encoding of some instruction."""
    try:
        return encode(decode(word)) == word
    except IllegalOpcodeError:
        return False


class RomImage(tuple):
    """Program memory image: an immutable tuple of exactly 256 16-bit
    words, unset words 0. It equals the plain tuple of the same words."""

    __slots__ = ()

    def __new__(cls, words: list[int] | tuple[int, ...] = ()) -> RomImage:
        ws = tuple(words)
        if len(ws) > ROM_WORDS:
            raise ValueError(f"ROM image too large: {len(ws)} words")
        for i, w in enumerate(ws):
            if not 0 <= w <= WORD_MASK:
                raise ValueError(f"word {i} out of range: {w:#x}")
        return super().__new__(cls, ws + (0,) * (ROM_WORDS - len(ws)))

    @property
    def words(self) -> tuple[int, ...]:
        """The image itself, the tuple of its 256 words."""
        return self
