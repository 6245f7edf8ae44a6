#!/usr/bin/env python
"""Execute every Python code block in README.md and docs/*.md.

The documentation's promise is that its quickstart snippets run as printed;
this script keeps that promise mechanically checkable.  Every fenced
```` ```python ```` block is executed in its own namespace (fenced ``bash`` /
``console`` blocks are shell examples and are skipped), and
``examples/quickstart.py`` — the longer tour the README points at — is run
as a subprocess.  It also checks that ``docs/reproducing.md`` names every
performance floor of ``benchmarks/check_regression.py`` by its JSON section
key, so that list cannot drift.  CI's ``docs`` job fails if any block
raises or a floor is undocumented.

Run from the repository root::

    PYTHONPATH=src python docs/check_docs.py
"""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documents whose ```python blocks must execute.
DOCUMENTS = (
    "README.md",
    "docs/architecture.md",
    "docs/reproducing.md",
    "docs/distributed.md",
    "docs/service.md",
    "docs/gossip.md",
    "docs/static_analysis.md",
)

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_blocks(path: Path) -> list[str]:
    return [match.group(1) for match in _FENCE.finditer(path.read_text())]


def undocumented_floors() -> list[str]:
    """Floor section keys of ``check_regression.FLOORS`` missing from
    ``docs/reproducing.md`` (a key counts as named when it appears in
    backticks)."""
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = (REPO_ROOT / "docs" / "reproducing.md").read_text()
    sections = dict.fromkeys(path[0] for _, path, _ in module.FLOORS)
    return [section for section in sections if f"`{section}`" not in text]


def main() -> int:
    failures = 0
    for name in DOCUMENTS:
        path = REPO_ROOT / name
        blocks = python_blocks(path)
        for index, block in enumerate(blocks):
            label = f"{name} block {index + 1}/{len(blocks)}"
            try:
                exec(compile(block, f"<{label}>", "exec"), {"__name__": "__docs__"})
            except Exception as exc:  # noqa: BLE001 - report and keep going
                failures += 1
                print(f"FAIL  {label}: {exc!r}", file=sys.stderr)
            else:
                print(f"  ok  {label}")
        if not blocks:
            print(f"  --  {name}: no python blocks")

    quickstart = REPO_ROOT / "examples" / "quickstart.py"
    result = subprocess.run(
        [sys.executable, str(quickstart)], cwd=REPO_ROOT, capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        failures += 1
        print(f"FAIL  examples/quickstart.py:\n{result.stderr}", file=sys.stderr)
    else:
        print("  ok  examples/quickstart.py")

    missing = undocumented_floors()
    for section in missing:
        failures += 1
        print(
            f"FAIL  docs/reproducing.md does not name the `{section}` floor "
            "of benchmarks/check_regression.py",
            file=sys.stderr,
        )
    if not missing:
        print("  ok  docs/reproducing.md names every check_regression floor")

    if failures:
        print(f"\n{failures} documentation check(s) failed.", file=sys.stderr)
        return 1
    print("\nAll documentation code blocks execute.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
