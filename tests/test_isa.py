"""Instruction encoding and decoding."""

import pathlib
import random
import re

import pytest

from mcusim.isa import (
    ILLEGAL_CODES,
    ROM_WORDS,
    Format,
    FORMATS,
    IllegalOpcodeError,
    Instruction,
    Op,
    RomImage,
    decode,
    encode,
    is_canonical,
)

# The full opcode assignment, pinned so a stray renumbering cannot pass.
OPCODE_TABLE = {
    "NOP": 0b00000, "LOAD": 0b00001, "STORE": 0b00010, "MOVE": 0b00011,
    "LOADI": 0b00100, "BI": 0b00101, "BGTI": 0b00110, "INC": 0b00111,
    "DEC": 0b01000, "AND": 0b01001, "OR": 0b01010, "XOR": 0b01011,
    "NOT": 0b01100, "ADD": 0b01101, "SUB": 0b01110, "ZERO": 0b01111,
    "PORT0": 0b10000, "BLT": 0b10001, "BNEQ": 0b10010, "PORT1": 0b10011,
    "BGT": 0b10100, "BCH": 0b10110, "BEQ": 0b10111, "B7S": 0b11000,
    "BLTE": 0b11001, "SHL": 0b11010, "SHR": 0b11011, "ROR": 0b11100,
    "ROL": 0b11101, "UARTS": 0b11110,
}


def test_opcode_table_is_exactly_the_30_assigned_codes():
    assert {op.name: int(op) for op in Op} == OPCODE_TABLE
    assert ILLEGAL_CODES == {0b10101, 0b11111}


def test_encode_reference_words():
    assert encode(Instruction(Op.ADD, rd=1, rs=2)) == 0x6940
    assert encode(Instruction(Op.LOADI, rd=3, operand8=0xFF)) == 0x23FF
    assert encode(Instruction(Op.BI, operand8=0x00)) == 0x2800
    assert encode(Instruction(Op.NOP)) == 0x0000


def test_decode_reference_words():
    add = decode(0x6940)
    assert (add.opcode, add.rd, add.rs) == (Op.ADD, 1, 2)
    loadi = decode(0x23FF)
    assert (loadi.opcode, loadi.rd, loadi.operand8) == (Op.LOADI, 3, 0xFF)


def test_illegal_opcodes_raise():
    with pytest.raises(IllegalOpcodeError) as exc:
        decode(0xA800)
    assert exc.value.code == 0b10101
    assert exc.value.word == 0xA800
    with pytest.raises(IllegalOpcodeError):
        decode(0xF800)
    with pytest.raises(IllegalOpcodeError):
        decode(0xFFFF)


def test_decode_ignores_bits_outside_the_format():
    # NOP uses no operand fields at all.
    nop = decode(0x07FF)
    assert nop == Instruction(Op.NOP)
    # Register-only formats ignore bits [7:0].
    inc = decode((0b00111 << 11) | (5 << 8) | 0xAB)
    assert inc == Instruction(Op.INC, rd=5)
    # Register-register formats ignore bits [4:0].
    add = decode(0x6940 | 0x1F)
    assert add == Instruction(Op.ADD, rd=1, rs=2)
    # Immediate-only formats ignore bits [10:8].
    bi = decode((0b00101 << 11) | (7 << 8) | 0x42)
    assert bi == Instruction(Op.BI, operand8=0x42)


def test_is_canonical():
    assert is_canonical(0x6940)
    assert not is_canonical(0x6941)   # stray bit in an unused field
    assert not is_canonical(0xA800)   # illegal opcode
    assert is_canonical(0x0000)


def test_exhaustive_decode_encode_roundtrip():
    for word in range(0x10000):
        code = word >> 11
        if code in (0b10101, 0b11111):
            with pytest.raises(IllegalOpcodeError):
                decode(word)
            continue
        instr = decode(word)
        again = decode(encode(instr))
        assert again == instr


def test_encode_decode_identity_on_random_instructions():
    rng = random.Random(0xC0DE)
    ops = list(Op)
    for _ in range(500):
        op = rng.choice(ops)
        fmt = FORMATS[op]
        kwargs = {}
        if fmt in (Format.REG, Format.REG_REG, Format.REG_IMM):
            kwargs["rd"] = rng.randrange(8)
        if fmt is Format.REG_REG:
            kwargs["rs"] = rng.randrange(8)
        if fmt in (Format.IMM, Format.REG_IMM):
            kwargs["operand8"] = rng.randrange(256)
        instr = Instruction(op, **kwargs)
        assert decode(encode(instr)) == instr
        assert is_canonical(encode(instr))


def test_instruction_field_validation():
    with pytest.raises(ValueError):
        Instruction(Op.INC, rd=8)
    with pytest.raises(ValueError):
        Instruction(Op.ADD, rd=0, rs=-1)
    with pytest.raises(ValueError):
        Instruction(Op.BI, operand8=256)


def test_decode_rejects_out_of_range_words():
    with pytest.raises(ValueError):
        decode(0x10000)
    with pytest.raises(ValueError):
        decode(-1)


def test_rom_image_pads_and_validates():
    image = RomImage([0x6940, 0x23FF])
    assert len(image) == ROM_WORDS
    assert image[0] == 0x6940
    assert image[2] == 0
    assert RomImage() == RomImage([0] * ROM_WORDS)
    with pytest.raises(ValueError):
        RomImage([0] * (ROM_WORDS + 1))
    with pytest.raises(ValueError):
        RomImage([0x10000])


def test_readme_isa_table_lists_exactly_the_opcodes():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("The 30 instructions:", 1)[1].split("\n\n", 2)[1]
    listed = re.findall(r"`([A-Z][A-Z0-9]+)\b", table)
    assert sorted(listed) == sorted(op.name for op in Op)
