"""I/O blocks: output/input ports, byte-level UART, 7-segment driver."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

FIFO_DEPTH = 256

# gfedcba common-cathode patterns for digits 0-9; non-BCD inputs blank.
SEGMENT_TABLE = (
    0b0111111,  # 0
    0b0000110,  # 1
    0b1011011,  # 2
    0b1001111,  # 3
    0b1100110,  # 4
    0b1101101,  # 5
    0b1111101,  # 6
    0b0000111,  # 7
    0b1111111,  # 8
    0b1101111,  # 9
    0, 0, 0, 0, 0, 0,
)


def bcd_to_7seg(digit: int) -> int:
    """Segment pattern for a 4-bit input; bit 0 = a .. bit 6 = g."""
    return SEGMENT_TABLE[digit & 0xF]


class TxOverflowError(Exception):
    """UART transmit FIFO is full."""


@dataclass
class PortState:
    """Port 0 latches output bytes; port 1 is a level-sensitive input."""

    port0_latch: int = 0
    port1_input: int = 0

    def write_port0(self, value: int) -> None:
        self.port0_latch = value & 0xFF

    def read_port1(self) -> int:
        # Reading does not consume; the input holds its level until the
        # host injects a new byte.
        return self.port1_input

    def inject_port1(self, value: int) -> None:
        self.port1_input = value & 0xFF


class Uart:
    """Byte-granularity UART: one byte leaves per baud_divisor cycles.

    No start/stop framing is modeled; the divisor is the whole cost of
    a byte. Only the transmitter is modeled, driven by the instruction
    stream; no instruction reads a receiver.
    """

    def __init__(self, baud_divisor: int = 10):
        if baud_divisor < 1:
            raise ValueError("baud divisor must be at least 1")
        self.baud_divisor = baud_divisor
        self.tx_queue: deque[int] = deque()
        self.tx_busy_cycles = 0

    @property
    def busy(self) -> bool:
        return bool(self.tx_queue)

    def send(self, byte: int) -> None:
        if len(self.tx_queue) >= FIFO_DEPTH:
            raise TxOverflowError(
                f"transmit FIFO full ({FIFO_DEPTH} bytes pending)")
        self.tx_queue.append(byte & 0xFF)

    def tick(self, cycles: int) -> tuple[int, list[tuple[int, int]]]:
        """Advance `cycles` clocked cycles. Returns how many of them, from
        the first, began with a byte queued, and (offset, byte) for each
        byte that finished, offset counted from the first cycle."""
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        queue = self.tx_queue
        sent = []
        spent = 0
        while queue and spent < cycles:
            if self.tx_busy_cycles == 0:
                self.tx_busy_cycles = self.baud_divisor
            step = min(cycles - spent, self.tx_busy_cycles)
            self.tx_busy_cycles -= step
            spent += step
            if self.tx_busy_cycles == 0:
                sent.append((spent - 1, queue.popleft()))
        return spent, sent

    def reset(self) -> None:
        self.tx_queue.clear()
        self.tx_busy_cycles = 0


@dataclass
class SevenSeg:
    """BCD to 7-segment driver; remembers the last digit written."""

    segments: int = 0
    last_digit: int = 0

    def show(self, digit: int) -> None:
        self.last_digit = digit & 0xF
        self.segments = bcd_to_7seg(digit)


@dataclass
class Peripherals:
    """Everything outside the CPU core, bundled for the machine."""

    ports: PortState = field(default_factory=PortState)
    uart: Uart = field(default_factory=Uart)
    sevenseg: SevenSeg = field(default_factory=SevenSeg)

    def reset(self) -> None:
        self.ports.port0_latch = 0
        self.uart.reset()
        self.sevenseg.segments = 0
        self.sevenseg.last_digit = 0
