"""Smart card SoC substrate: the Figure-1 target architecture.

MIPS-like core (trace generator for the bus), memories with realistic
wait-state behaviour, and the smart card peripherals with per-event
energy ledgers.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "assembler": ("AssemblerError", "assemble", "load_words"),
    "cpu": ("CpuFault", "MipsCore"),
    "crypto": ("CryptoCoprocessor", "DmaDriver", "xtea_decrypt",
               "xtea_encrypt"),
    "dma": ("DmaController",),
    "interrupt": ("InterruptController",),
    "journal": ("JournalState", "TransactionJournal"),
    "memory": ("Eeprom", "Flash", "Rom", "ScratchpadRam"),
    "peripheral": ("Peripheral",),
    "rng": ("TrueRandomNumberGenerator",),
    "smartcard": ("DEFAULT_CLOCK_HZ", "DMA_BASE", "EEPROM_BASE",
                  "FLASH_BASE", "INTC_BASE", "RAM_BASE", "RNG_BASE",
                  "ROM_BASE", "SmartCardPlatform", "TIMER_BASE", "UART_BASE"),
    "timer": ("TimerUnit",),
    "uart": ("Uart",),
})
