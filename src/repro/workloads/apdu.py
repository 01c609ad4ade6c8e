"""APDU-session workload generator.

Models the bus traffic of real smart card command processing — the
traffic mix the Figure-1 platform exists to serve.  One session is a
sequence of ISO-7816-style commands; each command expands into the
bus-transaction phases its firmware would perform:

* ``SELECT``       — read the applet directory from EEPROM, touch RAM,
* ``READ_RECORD``  — EEPROM record read (bursts) + UART-style response
  writes,
* ``UPDATE_RECORD`` — RAM staging + EEPROM programming writes,
* ``VERIFY_PIN``   — EEPROM reads + a RAM compare loop,
* ``CHALLENGE``    — TRNG-register reads,
* ``INTERNAL_AUTH`` — crypto-coprocessor-style SFR traffic bursts.

The generator is seeded and produces plain master scripts, so APDU
sessions slot into any experiment (robustness classes, Table-3-style
performance runs, characterisation).
"""

from __future__ import annotations

import random
import typing

from repro.ec import data_read, data_write, instruction_fetch
from repro.soc.smartcard import (EEPROM_BASE, RAM_BASE, RNG_BASE,
                                 ROM_BASE, UART_BASE)
from repro.tlm.master import ScriptItem

COMMANDS = ("select", "read_record", "update_record", "verify_pin",
            "challenge", "internal_auth")


def _fetch_run(rng: random.Random, script: list, lines: int) -> None:
    """Instruction-fetch bursts of the command handler's code."""
    base = ROM_BASE + 0x40 * rng.randrange(64)
    for line in range(lines):
        script.append(instruction_fetch(base + 16 * line,
                                        burst_length=4))


def _select(rng: random.Random, script: list) -> None:
    _fetch_run(rng, script, 3)
    directory = EEPROM_BASE + 0x40 * rng.randrange(8)
    script.append(data_read(directory, burst_length=4))
    script.append(data_write(RAM_BASE + 0x20, [rng.getrandbits(32)]))


def _read_record(rng: random.Random, script: list) -> None:
    _fetch_run(rng, script, 2)
    record = EEPROM_BASE + 0x100 + 0x20 * rng.randrange(16)
    for beat in range(2):
        script.append(data_read(record + 16 * beat, burst_length=4))
    for index in range(4):
        script.append((1, data_write(UART_BASE, [rng.getrandbits(8)])))


def _update_record(rng: random.Random, script: list) -> None:
    _fetch_run(rng, script, 2)
    staging = RAM_BASE + 0x100
    payload = [rng.getrandbits(32) for _ in range(4)]
    script.append(data_write(staging, payload))
    record = EEPROM_BASE + 0x400 + 0x20 * rng.randrange(16)
    # EEPROM programming writes, spaced like a commit loop
    for index, word in enumerate(payload):
        script.append((2, data_write(record + 4 * index, [word])))


def _verify_pin(rng: random.Random, script: list) -> None:
    _fetch_run(rng, script, 2)
    script.append(data_read(EEPROM_BASE + 0x800, burst_length=2))
    for index in range(2):
        script.append(data_read(RAM_BASE + 0x40 + 4 * index))
    script.append(data_write(RAM_BASE + 0x48, [rng.getrandbits(1)]))


def _challenge(rng: random.Random, script: list) -> None:
    _fetch_run(rng, script, 1)
    for _ in range(rng.randint(1, 2)):
        script.append((3, data_read(RNG_BASE + 4)))   # STATUS poll
        script.append(data_read(RNG_BASE))            # DATA


def _internal_auth(rng: random.Random, script: list) -> None:
    _fetch_run(rng, script, 2)
    block = [rng.getrandbits(32), rng.getrandbits(32)]
    script.append(data_write(RAM_BASE + 0x200, block))
    script.append(data_read(RAM_BASE + 0x200, burst_length=2))
    for index in range(3):
        script.append((4, data_read(RAM_BASE + 0x208)))


_EXPANDERS = {
    "select": _select,
    "read_record": _read_record,
    "update_record": _update_record,
    "verify_pin": _verify_pin,
    "challenge": _challenge,
    "internal_auth": _internal_auth,
}


# -- byte-level wire images ---------------------------------------------
#
# The T=1 link layer (:mod:`repro.link`) carries real command/response
# APDUs over the UART; these helpers give every command a deterministic
# ISO-7816-4-style byte image so the card endpoint can decode INS ->
# expander and synthesise a matching response.

#: instruction byte per command (ISO 7816-4 conventions)
INS = {
    "select": 0xA4,
    "read_record": 0xB2,
    "update_record": 0xDC,
    "verify_pin": 0x20,
    "challenge": 0x84,
    "internal_auth": 0x88,
}

COMMAND_BY_INS = {ins: name for name, ins in INS.items()}

#: command-body (Lc field) length per command
_CDATA_LENGTHS = {
    "select": 6,
    "read_record": 0,
    "update_record": 8,
    "verify_pin": 4,
    "challenge": 0,
    "internal_auth": 8,
}

#: response-body length per command (before the SW1/SW2 trailer)
_RESPONSE_LENGTHS = {
    "select": 12,
    "read_record": 16,
    "update_record": 0,
    "verify_pin": 0,
    "challenge": 8,
    "internal_auth": 16,
}


def command_apdu(command: str, rng: random.Random) -> typing.List[int]:
    """Seeded CLA/INS/P1/P2/Lc[/data] wire image of *command*."""
    length = _CDATA_LENGTHS[command]
    apdu = [0x00, INS[command], rng.getrandbits(8), rng.getrandbits(8),
            length]
    apdu.extend(rng.getrandbits(8) for _ in range(length))
    return apdu


def response_apdu(command: str, rng: random.Random) -> typing.List[int]:
    """Seeded response body plus the 0x9000 status trailer."""
    body = [rng.getrandbits(8) for _ in range(_RESPONSE_LENGTHS[command])]
    return body + [0x90, 0x00]


def command_script(command: str,
                   rng: random.Random) -> typing.List[ScriptItem]:
    """The bus script the card firmware runs to serve *command*."""
    script: typing.List[ScriptItem] = []
    _EXPANDERS[command](rng, script)
    return script


class ApduSession:
    """One generated session: the bus script plus its command list."""

    def __init__(self, script: typing.List[ScriptItem],
                 commands: typing.List[str]) -> None:
        self.script = script
        self.commands = commands

    def histogram(self) -> typing.Dict[str, int]:
        counts = {name: 0 for name in COMMANDS}
        for command in self.commands:
            counts[command] += 1
        return counts

    def __len__(self) -> int:
        return len(self.script)


def apdu_session(rng: random.Random, commands: int = 10,
                 inter_command_gap: int = 6) -> ApduSession:
    """A seeded card session of *commands* APDU expansions."""
    script: typing.List[ScriptItem] = []
    executed = ["select"]
    _select(rng, script)  # every session begins with a SELECT
    for _ in range(commands - 1):
        command = rng.choice(COMMANDS[1:])
        executed.append(command)
        marker = len(script)
        _EXPANDERS[command](rng, script)
        if marker < len(script):
            first = script[marker]
            if isinstance(first, tuple):
                script[marker] = (first[0] + inter_command_gap, first[1])
            else:
                script[marker] = (inter_command_gap, first)
    return ApduSession(script, executed)
