"""Markdown link/anchor checker + docstring-surface checker for the repo docs.

**Link mode** (the default) validates, for every markdown file it is
given (or the default doc set):

* **relative links** ``[text](path)`` resolve to an existing file or
  directory (relative to the file containing the link);
* **anchored links** ``[text](path#anchor)`` / ``[text](#anchor)`` point
  at a heading that actually exists in the target markdown file, using
  GitHub's heading-to-anchor slug rules (lowercase, spaces to hyphens,
  punctuation stripped);
* external links (``http://``, ``https://``, ``mailto:``) are *not*
  fetched — CI must not depend on the network — but obviously malformed
  ones (empty targets) still fail.

**Docstring mode** (``--docstrings``) mirrors the CI ruff D100–D104 job
without requiring ruff: every module in the given packages (default: the
documented ``repro.service`` / ``repro.disk`` / ``repro.core`` /
``repro.graph`` / ``repro.stats`` / ``repro.walk`` / ``repro.util`` /
``repro.store`` surface) must carry a module docstring,
and every public class, method and function a docstring.
``tests/test_docs.py`` runs both modes, so the docs gate holds even
where only pytest is installed.

Exit status 0 when everything passes, 1 otherwise (one line per
problem). Run from the repo root::

    python tools/check_docs.py            # the default documentation set
    python tools/check_docs.py README.md docs/ARCHITECTURE.md
    python tools/check_docs.py --docstrings                 # default packages
    python tools/check_docs.py --docstrings src/repro/disk
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documentation surface checked by CI when no files are given.
DEFAULT_DOC_SET = (
    "README.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/ARCHITECTURE.md",
    "docs/OPERATIONS.md",
    "benchmarks/README.md",
    "src/repro/service/README.md",
)

#: The packages whose docstring surface CI enforces (ruff D100–D104 scope).
DEFAULT_DOCSTRING_PACKAGES = (
    "src/repro/service",
    "src/repro/disk",
    "src/repro/core",
    "src/repro/graph",
    "src/repro/stats",
    "src/repro/walk",
    "src/repro/util",
    "src/repro/store",
)

#: Inline markdown links: [text](target). Images share the syntax with a
#: leading "!", which the pattern tolerates. Nested brackets in the text
#: are not supported (the doc set doesn't use them).
_LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: ATX headings, the only heading style the doc set uses.
_HEADING_PATTERN = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")

_EXTERNAL_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def github_slug(heading: str) -> str:
    """GitHub's heading → anchor slug transformation.

    Lowercase, backtick/asterisk markers and punctuation removed, spaces
    turned into hyphens. Underscores are *kept* — GitHub preserves them
    (``## node_count semantics`` anchors as ``#node_count-semantics``);
    stripping them would both reject correct anchors and accept wrong
    ones.
    """
    text = re.sub(r"[`*]", "", heading.strip())
    text = re.sub(r"!?\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    text = text.replace(" ", "-")
    return text


def _strip_code_blocks(markdown: str) -> str:
    """Remove fenced code blocks so example links inside them are ignored."""
    out: list[str] = []
    in_fence = False
    for line in markdown.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def heading_slugs(markdown_path: Path) -> set[str]:
    """Every anchor GitHub would generate for ``markdown_path``'s headings.

    Duplicate headings get ``-1``, ``-2`` … suffixes, exactly as GitHub
    disambiguates them.
    """
    slugs: set[str] = set()
    seen: dict[str, int] = {}
    content = _strip_code_blocks(markdown_path.read_text(encoding="utf-8"))
    for line in content.splitlines():
        match = _HEADING_PATTERN.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        slugs.add(slug if count == 0 else f"{slug}-{count}")
    return slugs


def check_file(markdown_path: Path) -> list[str]:
    """All broken-link messages for one markdown file (empty = clean)."""
    problems: list[str] = []
    content = _strip_code_blocks(markdown_path.read_text(encoding="utf-8"))
    for target in _LINK_PATTERN.findall(content):
        if target.startswith(_EXTERNAL_SCHEMES):
            continue
        if target.startswith("#"):
            path_part, anchor = "", target[1:]
        elif "#" in target:
            path_part, anchor = target.split("#", 1)
        else:
            path_part, anchor = target, ""
        resolved = (
            markdown_path.parent / path_part if path_part else markdown_path
        )
        try:
            resolved = resolved.resolve()
        except OSError:  # pragma: no cover - unresolvable path
            problems.append(f"{markdown_path}: unresolvable link {target!r}")
            continue
        if path_part and not resolved.exists():
            problems.append(f"{markdown_path}: broken link {target!r}")
            continue
        if anchor:
            if resolved.suffix.lower() not in (".md", ".markdown"):
                problems.append(
                    f"{markdown_path}: anchor on non-markdown target {target!r}"
                )
                continue
            if anchor not in heading_slugs(resolved):
                problems.append(
                    f"{markdown_path}: missing anchor {target!r} "
                    f"(no heading slugs to {anchor!r} in {resolved.name})"
                )
    return problems


def _docstring_problems_in_tree(tree: ast.Module, path: Path) -> "list[str]":
    """D100/D104 (module) and D101–D103 (public defs) presence checks."""
    problems: list[str] = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{path}: missing module docstring (D100/D104)")

    def visit(node: ast.AST, *, inside_function: bool, inside_private: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                private = inside_private or child.name.startswith("_")
                if not private and ast.get_docstring(child) is None:
                    problems.append(
                        f"{path}:{child.lineno}: public class "
                        f"{child.name!r} has no docstring (D101)"
                    )
                visit(
                    child,
                    inside_function=inside_function,
                    inside_private=private,
                )
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested helpers are implementation detail, and members of
                # private classes inherit privacy (pydocstyle semantics:
                # every ancestor must be public for a name to be public).
                if (
                    not inside_function
                    and not inside_private
                    and not child.name.startswith("_")
                    and ast.get_docstring(child) is None
                ):
                    problems.append(
                        f"{path}:{child.lineno}: public function/method "
                        f"{child.name!r} has no docstring (D102/D103)"
                    )
                visit(child, inside_function=True, inside_private=inside_private)

    visit(tree, inside_function=False, inside_private=False)
    return problems


def check_docstrings(paths: "list[Path] | tuple[Path, ...]") -> "list[str]":
    """All docstring-surface problems under ``paths`` (empty = clean).

    Each path is a ``.py`` file or a package directory (walked
    recursively). Mirrors the CI ruff ``D100,D101,D102,D103,D104``
    selection: module docstrings everywhere, docstrings on every public
    class/function/method; private names (leading underscore) and
    function-local helpers are exempt.
    """
    problems: list[str] = []
    for base in paths:
        base = Path(base)
        if not base.exists():
            problems.append(f"{base}: path does not exist")
            continue
        files = [base] if base.suffix == ".py" else sorted(base.rglob("*.py"))
        for file in files:
            try:
                tree = ast.parse(file.read_text(encoding="utf-8"), filename=str(file))
            except SyntaxError as error:  # pragma: no cover - broken source
                problems.append(f"{file}: cannot parse ({error})")
                continue
            problems.extend(_docstring_problems_in_tree(tree, file))
    return problems


def main(argv: "list[str] | None" = None) -> int:
    """Check markdown links (default) or the docstring surface (``--docstrings``)."""
    args = list(argv) if argv is not None else sys.argv[1:]
    if "--docstrings" in args:
        args.remove("--docstrings")
        targets = [Path(arg) for arg in args] or [
            REPO_ROOT / rel for rel in DEFAULT_DOCSTRING_PACKAGES
        ]
        problems = check_docstrings(targets)
        for problem in problems:
            print(problem, file=sys.stderr)
        checked = ", ".join(str(p) for p in targets)
        if problems:
            print(
                f"FAILED: {len(problems)} docstring problem(s) across {checked}",
                file=sys.stderr,
            )
            return 1
        print(f"OK: docstring surface complete ({checked})")
        return 0
    files = [Path(arg) for arg in args] if args else [
        REPO_ROOT / rel for rel in DEFAULT_DOC_SET
    ]
    problems: list[str] = []
    for path in files:
        if not path.exists():
            problems.append(f"{path}: file does not exist")
            continue
        problems.extend(check_file(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    checked = ", ".join(str(p) for p in files)
    if problems:
        print(f"FAILED: {len(problems)} broken link(s) across {checked}", file=sys.stderr)
        return 1
    print(f"OK: all links resolve ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
