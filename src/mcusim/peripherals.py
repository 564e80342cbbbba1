"""I/O blocks: output/input ports, byte-level UART, 7-segment driver."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

FIFO_DEPTH = 256
BAUD_DIVISOR = 10  # cycles a byte takes to leave

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
    """Byte-granularity UART: a byte leaves BAUD_DIVISOR clocked cycles
    after the later of its send and the leave of the byte ahead of it.

    No start/stop framing is modeled; the divisor is the whole cost of
    a byte. Only the transmitter is modeled, driven by the instruction
    stream; no instruction reads a receiver. `tx_done` holds the cycle
    in which each queued byte leaves if every cycle clocks the UART; the
    machine moves them later for each cycle that does not, and drops a
    byte as it leaves.
    """

    def __init__(self):
        self.tx_queue: deque[int] = deque()
        self.tx_done: deque[int] = deque()

    def send(self, byte: int, cycle: int) -> None:
        """Queue `byte`, sent in `cycle`, behind the bytes still queued."""
        if len(self.tx_queue) >= FIFO_DEPTH:
            raise TxOverflowError(
                f"transmit FIFO full ({FIFO_DEPTH} bytes pending)")
        self.tx_queue.append(byte & 0xFF)
        done = self.tx_done
        done.append((done[-1] if done else cycle) + BAUD_DIVISOR)

    def reset(self) -> None:
        self.tx_queue.clear()
        self.tx_done.clear()


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
