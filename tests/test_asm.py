"""Assembler, disassembler, and ROM image files."""

import random

import pytest

from mcusim.asm import (
    AsmSyntaxError,
    DuplicateLabelError,
    OperandOutOfRangeError,
    ProgramTooLargeError,
    RomFileError,
    UndefinedLabelError,
    UnknownMnemonicError,
    assemble,
    disassemble,
    format_rom_file,
    parse_rom_file,
)
from mcusim.isa import ROM_WORDS, RomImage


def test_assemble_reference_program():
    image, symbols = assemble(
        "start: LOADI R3, 0xFF\n"
        "       ADD R1, R2\n"
        "loop:  BI loop\n"
    )
    assert image[0] == 0x23FF
    assert image[1] == 0x6940
    assert image[2] == 0x2800 | 2
    assert image[3] == 0x0000  # padded with NOP
    assert symbols == {"start": 0, "loop": 2}


def test_forward_label_reference():
    image, symbols = assemble(
        "BI end\n"
        "NOP\n"
        "end: NOP\n"
    )
    assert symbols["end"] == 2
    assert image[0] == 0x2800 | 2


def test_labels_work_as_load_store_addresses():
    image, symbols = assemble(
        "LOAD R1, value\n"
        "STORE R1, value\n"
        "value: .word 1234\n"
    )
    assert symbols["value"] == 2
    assert image[0] == (0b00001 << 11) | (1 << 8) | 2
    assert image[1] == (0b00010 << 11) | (1 << 8) | 2
    assert image[2] == 1234


def test_comments_blank_lines_and_case():
    image, _ = assemble(
        "; leading comment\n"
        "\n"
        "  nop            ; lower case mnemonic\n"
        "  add r1, r2     ; lower case registers\n"
    )
    assert image[0] == 0x0000
    assert image[1] == 0x6940


def test_org_and_word_directives():
    image, symbols = assemble(
        ".org 0x10\n"
        "here: .word 0xBEEF\n"
        ".org 5\n"
        "NOP\n"
    )
    assert symbols == {"here": 0x10}
    assert image[0x10] == 0xBEEF
    assert image[5] == 0x0000
    assert sum(1 for w in image if w) == 1


def test_multiple_labels_on_one_address():
    _, symbols = assemble("a: b: NOP\n")
    assert symbols == {"a": 0, "b": 0}


def test_decimal_and_hex_operands():
    image, _ = assemble("LOADI R0, 255\nLOADI R0, 0xff\n")
    assert image[0] == image[1] == (0b00100 << 11) | 0xFF


@pytest.mark.parametrize("source,error", [
    ("FROB R1\n", UnknownMnemonicError),
    ("BI nowhere\n", UndefinedLabelError),
    ("x: NOP\nx: NOP\n", DuplicateLabelError),
    ("LOADI R0, 256\n", OperandOutOfRangeError),
    ("INC R9\n", OperandOutOfRangeError),
    ("ADD R1\n", AsmSyntaxError),
    ("NOP R1\n", AsmSyntaxError),
    ("INC 3\n", AsmSyntaxError),
    (".org 0xFF\nNOP\nNOP\n", ProgramTooLargeError),
    (".org 3\nNOP\n.org 3\nNOP\n", AsmSyntaxError),
    ("R1: NOP\n", AsmSyntaxError),
    (".word 0x10000\n", OperandOutOfRangeError),
])
def test_assembly_errors(source, error):
    with pytest.raises(error):
        assemble(source)


@pytest.mark.parametrize("source,message", [
    ("NOP R1\n", "NOP takes 0 operand(s), got 1"),
    ("BI\n", "BI takes 1 operand(s), got 0"),
    ("INC R1, R2\n", "INC takes 1 operand(s), got 2"),
    ("ADD R1\n", "ADD takes 2 operand(s), got 1"),
    ("LOADI R1, 2, 3\n", "LOADI takes 2 operand(s), got 3"),
])
def test_arity_errors_name_the_operand_count(source, message):
    with pytest.raises(AsmSyntaxError) as exc:
        assemble(source)
    assert str(exc.value) == f"line 1: {message}"


@pytest.mark.parametrize("source,error,message", [
    ("LOADI R1, R2\n", AsmSyntaxError, "line 1: bad operand 'R2'"),
    (".word 1, 2\n", AsmSyntaxError, "line 1: .word takes one value"),
    (".org 0xFF\nNOP\nend:\n", ProgramTooLargeError,
     "line 3: label 'end' falls outside the 256-word ROM"),
    (".org start\n", AsmSyntaxError,
     "line 1: .org takes one numeric address"),
])
def test_directive_and_operand_errors_name_the_line(source, error, message):
    with pytest.raises(error) as exc:
        assemble(source)
    assert str(exc.value) == message


def test_errors_carry_the_source_line():
    with pytest.raises(UnknownMnemonicError) as exc:
        assemble("NOP\nNOP\nFROB\n")
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_disassemble_canonical_and_escaped_words():
    listing = disassemble(RomImage([0x6940, 0x23FF, 0xA800, 0x6941,
                                    0x2805, 0x3B00]))
    lines = listing.splitlines()
    assert len(lines) == ROM_WORDS
    assert lines[0] == "ADD R1, R2"
    assert lines[1] == "LOADI R3, 0xFF"
    assert lines[2] == ".word 0xA800"   # illegal opcode kept verbatim
    assert lines[3] == ".word 0x6941"   # stray bits kept verbatim
    assert lines[4] == "BI 0x05"
    assert lines[5] == "INC R3"
    assert lines[6] == "NOP"


def test_disassemble_assemble_roundtrip_on_random_images():
    rng = random.Random(0x5EED)
    for _ in range(10):
        image = RomImage([rng.randrange(0x10000) for _ in range(ROM_WORDS)])
        again, _ = assemble(disassemble(image))
        assert again == image


def test_rom_file_roundtrip():
    rng = random.Random(0xF11E)
    image = RomImage([rng.randrange(0x10000) for _ in range(ROM_WORDS)])
    text = format_rom_file(image)
    lines = text.splitlines()
    assert len(lines) == ROM_WORDS
    assert all(len(line) == 4 for line in lines)
    assert parse_rom_file(text) == image
    assert parse_rom_file(text.lower()) == image


def test_rom_file_errors():
    with pytest.raises(RomFileError) as exc:
        parse_rom_file("0000\nXYZ0\n")
    assert exc.value.line == 2
    assert str(exc.value) == "line 2: expected a 4-hex-digit word, got 'XYZ0'"
    # int() would take these Arabic-Indic digits; the format does not.
    with pytest.raises(RomFileError) as exc:
        parse_rom_file("0000\n\u0660\u0660\u0660\u0660\n")
    assert str(exc.value) == ("line 2: expected a 4-hex-digit word, "
                              "got '\u0660\u0660\u0660\u0660'")
    with pytest.raises(RomFileError, match="expected 256 words"):
        parse_rom_file("0000\n" * 10)
    with pytest.raises(RomFileError):
        parse_rom_file("0000\n" * 300)


def test_rom_file_blank_lines_may_only_trail():
    assert parse_rom_file("0001\n" * ROM_WORDS + "\n  \n\n") == \
        RomImage([1] * ROM_WORDS)
    with pytest.raises(RomFileError) as exc:
        parse_rom_file("0001\n" * 100 + "\n" + "0001\n" * 156)
    assert str(exc.value) == "line 101: expected a 4-hex-digit word, got ''"
