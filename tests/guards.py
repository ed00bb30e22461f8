"""The walk that the three AST guards share.

tests/test_exports.py, tests/test_parameters.py and tests/test_fields.py each
hold a kind of name that the package defines against what the programs in
PROGRAMS do with it; tests do not count.  Each file is parsed once a session,
and the programs' nodes are listed once.
"""

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reductionlab"
PROGRAMS = ("src", "demos", "perfbench", "bench")


@cache
def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def modules():
    """(path, tree) of each module of the package."""
    return [(path, parse(path)) for path in sorted(PACKAGE.glob("*.py"))]


@cache
def program_nodes():
    """(path, node) of every node of every file in PROGRAMS."""
    return tuple((path, node) for top in PROGRAMS for path in sorted((ROOT / top).rglob("*.py"))
                 for node in ast.walk(parse(path)))


def check_listed(found, allowed, unlisted, stale):
    """Fail on a label of found that allowed does not name, with the message
    unlisted, and on an entry of allowed that found does not hold, with the
    message stale; each message is followed by its labels."""
    missing = sorted(set(found) - set(allowed))
    assert not missing, unlisted + ", ".join(missing)
    gone = sorted(set(allowed) - set(found))
    assert not gone, stale + ", ".join(gone)
