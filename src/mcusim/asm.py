"""Two-pass assembler, disassembler, and ROM image file I/O.

Source grammar, one statement per line:

    [label:] MNEMONIC [operands]   ; comment
    [label:] .org  <addr>
    [label:] .word <value>

Registers are R0..R7; numeric operands are decimal or 0x-prefixed hex;
labels resolve to their word address and may stand anywhere an 8-bit
operand is accepted (and in .word).

ROM image files are 256 lines of one 4-hex-digit word each, most
significant nibble first.
"""

from __future__ import annotations

import re

from .isa import (
    FORMATS,
    ILLEGAL_CODES,
    NUM_REGISTERS,
    OPERAND_MASK,
    ROM_WORDS,
    WORD_MASK,
    BY_MNEMONIC,
    Instruction,
    Op,
    RomImage,
    decode,
    encode,
    is_canonical,
)


class AsmError(Exception):
    """A bad line of assembly source or of a ROM image file, tagged with
    its 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class AsmSyntaxError(AsmError):
    pass


class UnknownMnemonicError(AsmError):
    pass


class UndefinedLabelError(AsmError):
    pass


class DuplicateLabelError(AsmError):
    pass


class OperandOutOfRangeError(AsmError):
    pass


class ProgramTooLargeError(AsmError):
    pass


class RomFileError(AsmError):
    """Malformed ROM image file."""


_LABEL_RE = re.compile(r"^([A-Za-z_]\w*)\s*:\s*(.*)$")
_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")
_REG_RE = re.compile(r"^[Rr](\d+)$")
_NUM_RE = re.compile(r"^(0[xX][0-9A-Fa-f]+|\d+)$")
_WORD_RE = re.compile(r"[0-9A-Fa-f]{4}")


def _split_statement(raw: str) -> tuple[list[str], str | None, str]:
    """Strip comment, peel off label definitions, split mnemonic/operands."""
    text = raw.split(";", 1)[0].strip()
    labels = []
    while (m := _LABEL_RE.match(text)) is not None:
        labels.append(m.group(1))
        text = m.group(2).strip()
    if not text:
        return labels, None, ""
    parts = text.split(None, 1)
    return labels, parts[0], parts[1].strip() if len(parts) > 1 else ""


def _parse_value(token: str, lineno: int, symbols: dict[str, int] | None,
                 limit: int) -> int:
    """Numeric literal or (in pass 2) label reference, range-checked."""
    if _NUM_RE.match(token):
        value = int(token, 0)
    elif _NAME_RE.match(token) and not _REG_RE.match(token):
        if symbols is None:
            return 0  # pass 1 only sizes the statement
        if token not in symbols:
            raise UndefinedLabelError(lineno, f"undefined label '{token}'")
        value = symbols[token]
    else:
        raise AsmSyntaxError(lineno, f"bad operand '{token}'")
    if value > limit:
        raise OperandOutOfRangeError(
            lineno, f"value {value} exceeds maximum {limit}")
    return value


def _parse_register(token: str, lineno: int) -> int:
    m = _REG_RE.match(token)
    if not m:
        raise AsmSyntaxError(lineno, f"expected register, got '{token}'")
    reg = int(m.group(1))
    if reg >= NUM_REGISTERS:
        raise OperandOutOfRangeError(lineno, f"no such register R{reg}")
    return reg


def _operands(field: str) -> list[str]:
    return [t.strip() for t in field.split(",")] if field else []


def _encode_statement(mnemonic: str, field: str, lineno: int,
                      symbols: dict[str, int] | None) -> int:
    """Encode one instruction or .word line into a 16-bit word."""
    if mnemonic.lower() == ".word":
        toks = _operands(field)
        if len(toks) != 1:
            raise AsmSyntaxError(lineno, ".word takes one value")
        return _parse_value(toks[0], lineno, symbols, WORD_MASK)

    op = BY_MNEMONIC.get(mnemonic.upper())
    if op is None:
        raise UnknownMnemonicError(lineno, f"unknown mnemonic '{mnemonic}'")
    fields = FORMATS[op].value
    toks = _operands(field)
    if len(toks) != len(fields):
        raise AsmSyntaxError(lineno, f"{op.name} takes {len(fields)} "
                                     f"operand(s), got {len(toks)}")
    return encode(Instruction(op, **{
        name: (_parse_value(tok, lineno, symbols, OPERAND_MASK)
               if name == "operand8" else _parse_register(tok, lineno))
        for name, tok in zip(fields, toks)}))


def assemble(source: str) -> tuple[RomImage, dict[str, int]]:
    """Assemble source text into a ROM image plus its symbol table.

    Pass 1 assigns an address to every statement and collects labels;
    pass 2 encodes with all labels resolved. The image is padded with
    NOP (0x0000) to exactly 256 words.
    """
    lines = source.splitlines()

    symbols: dict[str, int] = {}
    placed: list[tuple[int, int, str, str]] = []  # (addr, lineno, mnemonic, operands)
    used: set[int] = set()
    addr = 0
    for lineno, raw in enumerate(lines, start=1):
        labels, mnemonic, field = _split_statement(raw)
        for label in labels:
            if _REG_RE.match(label):
                raise AsmSyntaxError(
                    lineno, f"label '{label}' would shadow a register name")
            if label in symbols:
                raise DuplicateLabelError(lineno, f"duplicate label '{label}'")
            if addr >= ROM_WORDS:
                raise ProgramTooLargeError(
                    lineno, f"label '{label}' falls outside the {ROM_WORDS}-word ROM")
            symbols[label] = addr
        if mnemonic is None:
            continue
        if mnemonic.lower() == ".org":
            toks = _operands(field)
            if len(toks) != 1 or not _NUM_RE.match(toks[0]):
                raise AsmSyntaxError(lineno, ".org takes one numeric address")
            addr = _parse_value(toks[0], lineno, {}, ROM_WORDS - 1)
            continue
        if addr >= ROM_WORDS:
            raise ProgramTooLargeError(
                lineno, f"program exceeds {ROM_WORDS} words")
        if addr in used:
            raise AsmSyntaxError(
                lineno, f"address 0x{addr:02X} assigned twice (check .org)")
        used.add(addr)
        # Size/syntax check now so pass 1 reports errors in source order.
        _encode_statement(mnemonic, field, lineno, None)
        placed.append((addr, lineno, mnemonic, field))
        addr += 1

    words = [0] * ROM_WORDS
    for addr, lineno, mnemonic, field in placed:
        words[addr] = _encode_statement(mnemonic, field, lineno, symbols)
    return RomImage(words), symbols


def format_instruction(instr: Instruction) -> str:
    """Canonical source form of one instruction."""
    operands = [f"0x{instr.operand8:02X}" if name == "operand8"
                else f"R{getattr(instr, name)}"
                for name in FORMATS[instr.opcode].value]
    name = instr.opcode.name
    return f"{name} {', '.join(operands)}" if operands else name


def disassemble(image: RomImage) -> str:
    """One line per ROM word; assembling the result reproduces the image.

    Words that are not the canonical encoding of any instruction (either
    an unassigned opcode or stray bits in unused fields) are kept exact
    with a `.word 0xNNNN` line.
    """
    return "".join(f"{format_instruction(decode(word))}\n"
                   if is_canonical(word) else f".word 0x{word:04X}\n"
                   for word in image)


def read_text(path: str, error) -> str:
    """A file's text, decoded as UTF-8. A byte that does not decode
    raises `error(line, message)` with the 1-based line that holds it,
    counted as `str.splitlines` counts lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode() + "?").splitlines())
        raise error(line, f"byte 0x{data[exc.start]:02X} is not UTF-8")


def format_rom_file(image: RomImage) -> str:
    """Render an image as the 256-line hex file format."""
    return "\n".join(f"{w:04X}" for w in image) + "\n"


def parse_rom_file(text: str) -> RomImage:
    """Parse the 256-line hex format, rejecting malformed or short files."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    words = []
    for lineno, line in enumerate(lines, start=1):
        tok = line.strip()
        if not _WORD_RE.fullmatch(tok):
            raise RomFileError(lineno, f"expected a 4-hex-digit word, got '{tok}'")
        words.append(int(tok, 16))
    if len(words) != ROM_WORDS:
        raise RomFileError(
            len(lines) + 1, f"expected {ROM_WORDS} words, got {len(words)}")
    return RomImage(words)
