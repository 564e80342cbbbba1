"""Ports, UART timing and FIFO bounds, 7-segment driver."""

import pathlib
import random

import pytest

from mcusim.peripherals import (
    BAUD_DIVISOR,
    FIFO_DEPTH,
    Peripherals,
    PortState,
    SevenSeg,
    TxOverflowError,
    Uart,
    bcd_to_7seg,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "sevenseg_golden.txt"


def test_segment_patterns_match_the_golden_table():
    table = {}
    for line in GOLDEN.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        digit, bits = line.split()
        table[int(digit)] = int(bits, 2)
    assert len(table) == 16
    for digit, pattern in table.items():
        assert bcd_to_7seg(digit) == pattern, digit


def test_segment_spot_values():
    assert bcd_to_7seg(8) == 0b1111111   # every segment lit
    assert bcd_to_7seg(0) == 0b0111111
    assert bcd_to_7seg(12) == 0          # non-BCD input blanks
    assert bcd_to_7seg(0x18) == bcd_to_7seg(8)  # only low 4 bits matter


def test_sevenseg_show():
    seg = SevenSeg()
    seg.show(5)
    assert seg.segments == 0b1101101
    assert seg.last_digit == 5
    seg.show(0xFF)
    assert seg.segments == 0
    assert seg.last_digit == 0xF


def test_port0_latches_and_masks():
    ports = PortState()
    ports.write_port0(0xAA)
    assert ports.port0_latch == 0xAA
    ports.write_port0(0x1FF)
    assert ports.port0_latch == 0xFF


def test_port1_is_level_sensitive():
    ports = PortState()
    ports.inject_port1(0x5C)
    assert ports.read_port1() == 0x5C
    assert ports.read_port1() == 0x5C  # reads do not consume
    ports.inject_port1(0x01)
    assert ports.read_port1() == 0x01


def test_uart_divisor_timing():
    # A byte sent to an empty queue leaves BAUD_DIVISOR cycles later.
    uart = Uart()
    uart.send(0x141, 3)
    assert list(uart.tx_queue) == [0x41]
    assert list(uart.tx_done) == [3 + BAUD_DIVISOR]


def test_uart_drains_multiple_bytes():
    # Queued bytes leave back to back, BAUD_DIVISOR cycles apart.
    uart = Uart()
    for cycle, byte in ((5, 1), (7, 2), (9, 3)):
        uart.send(byte, cycle)
    assert list(uart.tx_queue) == [1, 2, 3]
    assert list(uart.tx_done) == [5 + BAUD_DIVISOR * k for k in (1, 2, 3)]


def test_uart_preserves_byte_order():
    # Against a countdown clocked every cycle, dropping each byte in its
    # leave cycle before that cycle's send, as the machine does.
    rng = random.Random(0xABCD)
    uart = Uart()
    queue, countdown = [], 0
    expected, left = [], []
    for cycle in range(3000):
        if queue:
            countdown = countdown or BAUD_DIVISOR
            countdown -= 1
            if not countdown:
                expected.append((cycle, queue.pop(0)))
        while uart.tx_done and uart.tx_done[0] <= cycle:
            left.append((uart.tx_done.popleft(), uart.tx_queue.popleft()))
        if rng.random() < (0.3 if cycle % 500 < 100 else 0.03):
            byte = rng.randrange(256)
            queue.append(byte)
            uart.send(byte, cycle)
    assert left == expected
    assert len(left) > 200


def test_uart_tx_overflow_at_bound():
    uart = Uart()
    for i in range(FIFO_DEPTH):
        uart.send(i, i)
    with pytest.raises(TxOverflowError):
        uart.send(0, FIFO_DEPTH)
    assert len(uart.tx_queue) == len(uart.tx_done) == FIFO_DEPTH


def test_uart_reset_clears_both_queues():
    uart = Uart()
    uart.send(7, 0)
    uart.send(8, 1)
    uart.reset()
    assert not uart.tx_queue and not uart.tx_done


def test_peripherals_reset_keeps_external_input_level():
    periph = Peripherals()
    periph.ports.write_port0(0x11)
    periph.ports.inject_port1(0x22)
    periph.uart.send(0x33, 0)
    periph.sevenseg.show(4)
    periph.reset()
    assert periph.ports.port0_latch == 0
    assert periph.ports.read_port1() == 0x22  # host-driven level survives
    assert not periph.uart.tx_queue
    assert periph.sevenseg.segments == 0
