#!/usr/bin/env python
"""Docs gate: project documentation must stay runnable and unbroken.

Six checks, run by CI's docs job (and ``scripts/run_ci_locally.sh``):

* **Links** — every intra-repo markdown link in ``README.md`` and
  ``docs/*.md`` must resolve to an existing file or directory (relative
  to the file containing the link). External ``http(s)``/``mailto``
  targets and pure in-page anchors are skipped; a path with an anchor
  (``file.md#section``) is checked as a path. A renamed benchmark or a
  moved doc fails here instead of rotting silently.
* **Snippets** — every fenced ``python`` code block in ``README.md`` is
  executed, in order, in its own namespace with the repo's ``src`` on
  the path. The README quickstart is therefore a *tested* example: if
  the public API it shows drifts, CI fails with the snippet's traceback.
  (Blocks in ``docs/`` are shell/reference material and are not
  executed; executable doc snippets belong in the README or
  ``examples/``.)
* **Flags** — every ``--flag`` mentioned anywhere in the checked docs
  must be an option the CLI actually accepts (collected from
  ``repro.cli.build_parser()``, subcommands included). A flag renamed in
  ``cli.py`` — or a table row documenting a flag that never shipped —
  fails here instead of misleading a reader. In ``docs/cli.md``, a table
  row of the form ``| `--flag {a,b,c}` | `default` |`` is also held to the
  parser's choices and default for that flag.
* **Cited pages** — every ``*.md`` file named in the source text
  (docstrings and comments) of ``src/repro/`` or ``benchmarks/*.py`` must
  exist at that path from the repo root. Code outlives the pages it
  cites; a reader sent to a ``DESIGN.md`` that was never written fails
  here.

* **Rejection table** — the table between the ``REJECTED`` markers of
  ``docs/architecture.md`` must be, line for line, what
  ``repro.core.runtime.REJECTED`` renders to (one row per refused
  composition: features, message, why). A rejection added or reworded
  fails here until the page says so.
* **Ledger sizes** — the section *Not on the serving path* of
  ``docs/architecture.md`` quotes how many names, methods, keywords,
  defaulted parameters and config fields the ledgers of
  ``tests/integration/test_reachability.py`` hold (``TEST_ONLY``,
  ``TEST_ONLY_KEYWORDS``, ``TEST_ONLY_DEFAULTS``, ``TEST_ONLY_FIELDS``).
  The counts are read by parsing
  that file, never importing it; a row added or deleted there fails here
  until the page's numbers follow.

Run from the repo root::

    python scripts/check_docs.py
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: markdown inline links: [text](target); images share the syntax
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: fenced code blocks with an info string, non-greedy body
_FENCE = re.compile(r"^```(\w+)\n(.*?)^```", re.MULTILINE | re.DOTALL)
#: link schemes that are not filesystem paths
_EXTERNAL = ("http://", "https://", "mailto:")
#: a long option mentioned in prose, a table, or a shell block; the
#: lookbehind keeps it from matching the tail of a longer flag or word
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: documented flags owned by repo scripts rather than ``python -m repro``
#: (scripts build their parsers inline in main(), so they can't be
#: introspected the way build_parser() can)
_SCRIPT_FLAGS = {
    "--only",  # scripts/ci_smoke.py
}
#: a docs/cli.md table row documenting a flag's choices and its default
_CHOICE_ROW = re.compile(r"^\| `(--[a-z-]+) \{([^}]+)\}` \| `([^`]*)` \|", re.MULTILINE)
#: choices a row may list although this machine's parser lacks them
_OPTIONAL_CHOICES = {"cupy"}  # registered only where CuPy is installed
#: a markdown file named in source text
_CITED_PAGE = re.compile(r"[\w./-]*\w\.md\b")


def doc_files() -> list[Path]:
    docs = [REPO / "README.md"]
    docs.extend(sorted((REPO / "docs").glob("*.md")))
    return [d for d in docs if d.exists()]


def check_links(files: list[Path]) -> list[str]:
    """Return human-readable errors for intra-repo links that don't resolve."""
    errors = []
    for doc in files:
        text = doc.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO)}: broken link -> {target}"
                )
    return errors


def cli_options() -> dict[str, argparse.Action]:
    """Every long option the CLI accepts, across all subcommands, with an
    action that declares it (every flag with choices belongs to ``search``
    and ``evaluate``, which generate it from one ``Config`` field)."""
    from repro.cli import build_parser

    options: dict[str, argparse.Action] = {}
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            options.update(
                (s, action) for s in action.option_strings if s.startswith("--")
            )
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return options


def check_flags(files: list[Path]) -> list[str]:
    """Return errors for documented ``--flags`` the CLI does not accept,
    and for ``docs/cli.md`` rows whose choices or default have drifted."""
    options = cli_options()
    known = set(options) | _SCRIPT_FLAGS
    errors = []
    for doc in files:
        text = doc.read_text(encoding="utf-8")
        for flag in sorted(set(_FLAG.findall(text))):
            if flag not in known:
                errors.append(
                    f"{doc.relative_to(REPO)}: documents unknown flag {flag}"
                )
    cli_md = REPO / "docs" / "cli.md"
    for flag, choices, default in _CHOICE_ROW.findall(cli_md.read_text(encoding="utf-8")):
        action = options.get(flag)
        if action is None:
            continue  # reported above
        documented, actual = set(choices.split(",")), set(action.choices or ())
        if documented - _OPTIONAL_CHOICES != actual - _OPTIONAL_CHOICES:
            errors.append(
                f"docs/cli.md: {flag} documents choices {sorted(documented)}, "
                f"the parser accepts {sorted(actual)}"
            )
        if default != str(action.default):
            errors.append(
                f"docs/cli.md: {flag} documents default {default!r}, "
                f"the parser's is {action.default!r}"
            )
    return errors


def check_cited_pages() -> list[str]:
    """Return errors for ``*.md`` files the source cites but the repo lacks."""
    sources = sorted((REPO / "src" / "repro").rglob("*.py"))
    sources += sorted((REPO / "benchmarks").glob("*.py"))
    return [
        f"{source.relative_to(REPO)}: cites {page}, which does not exist"
        for source in sources
        for page in sorted(set(_CITED_PAGE.findall(source.read_text(encoding="utf-8"))))
        if not (REPO / page).exists()
    ]


_TABLE = re.compile(r"<!-- REJECTED:begin -->\n(.*?)<!-- REJECTED:end -->", re.DOTALL)


def rejection_table() -> str:
    """``repro.core.runtime.REJECTED`` as the markdown table the docs carry."""
    from repro.core.runtime import REJECTED

    lines = ["| Features | `ConfigError` message | Why |", "| --- | --- | --- |"]
    for row in REJECTED:
        features = " × ".join(f"`{feature}`" for feature in row.features)
        lines.append(f"| {features} | {row.message} | {row.reason} |")
    return "\n".join(lines) + "\n"


def check_rejection_table() -> list[str]:
    """Return an error when ``docs/architecture.md`` and the table disagree."""
    found = _TABLE.search((REPO / "docs" / "architecture.md").read_text(encoding="utf-8"))
    if found is None:
        return ["docs/architecture.md: no <!-- REJECTED:begin/end --> table"]
    if found.group(1) != rejection_table():
        return [
            "docs/architecture.md: the rejection table is not what "
            "repro.core.runtime.REJECTED renders; it should read\n" + rejection_table()
        ]
    return []


_LEDGERS = REPO / "tests" / "integration" / "test_reachability.py"
_SECTION = re.compile(r"^## Not on the serving path.*?(?=^## )", re.MULTILINE | re.DOTALL)
_SIZES = re.compile(
    r"\d+\s+names,\s+\d+\s+methods,\s+\d+\s+keywords,\s+\d+\s+defaulted\s+parameters"
    r"\s+and\s+\d+\s+fields?"
)


def ledger_sizes() -> str:
    """The reachability ledgers' row counts, worded as the docs quote them.

    A ``TEST_ONLY`` key is a method when what precedes its last dot is not
    a module (``repro.obs.metrics.Counter.value_for``), a name otherwise."""
    rows: dict[str, list[str]] = {}
    for node in ast.parse(_LEDGERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            rows.update((t.id, [k.value for k in node.value.keys]) for t in node.targets)

    def is_module(dotted: str) -> bool:
        path = REPO / "src" / dotted.replace(".", "/")
        return path.with_suffix(".py").exists() or (path / "__init__.py").exists()

    names = sum(is_module(key.rpartition(".")[0]) for key in rows["TEST_ONLY"])
    methods = len(rows["TEST_ONLY"]) - names
    fields = len(rows["TEST_ONLY_FIELDS"])
    return (
        f"{names} names, {methods} methods, {len(rows['TEST_ONLY_KEYWORDS'])} keywords, "
        f"{len(rows['TEST_ONLY_DEFAULTS'])} defaulted parameters and "
        f"{fields} field{'s' if fields != 1 else ''}"
    )


def check_ledger_sizes() -> list[str]:
    """Return an error when the architecture page misquotes the ledgers."""
    section = _SECTION.search((REPO / "docs" / "architecture.md").read_text(encoding="utf-8"))
    quoted = [" ".join(q.split()) for q in _SIZES.findall(section.group(0))] if section else []
    if quoted != [ledger_sizes()]:
        return [
            "docs/architecture.md § Not on the serving path quotes the reachability ledgers "
            f"as {quoted or 'nothing'}; it should say {ledger_sizes()!r}"
        ]
    return []


def python_blocks(doc: Path) -> list[str]:
    return [
        body
        for language, body in _FENCE.findall(doc.read_text(encoding="utf-8"))
        if language == "python"
    ]


def run_snippets(doc: Path) -> list[str]:
    """Execute every python block of ``doc``; return errors."""
    errors = []
    for index, source in enumerate(python_blocks(doc)):
        label = f"{doc.relative_to(REPO)} python block #{index + 1}"
        start = time.perf_counter()
        try:
            exec(compile(source, label, "exec"), {"__name__": f"_doc_snippet_{index}"})
        except Exception as error:  # noqa: BLE001 - report, don't crash the gate
            errors.append(f"{label}: {type(error).__name__}: {error}")
        else:
            print(f"  ran {label} ({time.perf_counter() - start:.1f}s)")
    return errors


def main() -> int:
    files = doc_files()
    if len(files) < 2:
        print(f"expected README.md plus docs/*.md, found only {files}")
        return 1
    print(f"checking links in {len(files)} docs...")
    errors = check_links(files)
    print("checking documented CLI flags against build_parser()...")
    errors += check_flags(files)
    print("checking *.md pages cited from src/repro and benchmarks/*.py...")
    errors += check_cited_pages()
    print("checking the rejection table against repro.core.runtime.REJECTED...")
    errors += check_rejection_table()
    print("checking the ledger sizes quoted against test_reachability.py...")
    errors += check_ledger_sizes()
    print("running README python snippets...")
    errors += run_snippets(REPO / "README.md")
    if errors:
        print("\nDOCS CHECK FAILED:")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("docs check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
