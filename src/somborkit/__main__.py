"""``python -m somborkit``: the command-line front end."""

from .cli import entry

entry()
