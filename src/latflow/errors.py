"""Shared exception types; the CLI maps them onto exit codes."""


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


def shown(text: str) -> str:
    """text as an error message quotes it: whole up to 24 characters, else
    its head and its length."""
    return text if len(text) <= 24 else f"{text[:12]}... ({len(text)} characters)"


class BudgetError(RuntimeError):
    """An enumeration or grid budget was exceeded (CLI exit code 3)."""


class InvariantError(RuntimeError):
    """An internal invariant failed; indicates a bug.  Deliberately not
    mapped to a CLI exit code: it should surface as a crash."""
