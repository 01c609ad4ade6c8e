"""Stimulus: the EC-spec verification sequences, parameterised random
generators, and the bus trace record/replay format."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "apdu": ("ApduSession", "apdu_session"),
    "ecspec": ("ALL_SEQUENCES", "full_suite"),
    "generator": ("Mix", "PROGRAM_MIX", "TABLE3_MIX", "Window",
                  "generate_script", "sub_word_script", "table3_script"),
    "trace": ("BusTrace", "TraceRecord"),
})
