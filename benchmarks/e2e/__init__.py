"""The sweep-level benchmark (see README.md). A package so that ``trace.py``
is ``e2e.trace`` and never shadows the standard library's ``trace``."""
