"""Every field of a package result type is read by the package.

The fields of each dataclass and the properties of each class in
src/reductionlab are the package's results.  A field counts as read when
some code in src/, demos/, perfbench/ or bench/ loads an attribute of its
name; attributes are matched by name alone, as in tests/test_exports.py, and
tests do not count.  A field that only tests read is a result that no program
needs, which every run still pays to fill; remove it, or give it an entry in
ALLOWED with the reason it stays.  An entry whose field a program reads, or
that is gone, is stale.
"""

import ast

from guards import check_listed, modules, program_nodes

ALLOWED = {
    "phenomenology.PaperValue.criterion": "the acceptance criteria 01–05 select their rows by it",
    "reduction.DecayFit.slope": "the statistic of variance_decay_check, an allowed export",
}


def _is(decorator, name):
    """Whether a decorator is `name`, bare, called or as an attribute."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def _fields(path, tree):
    """(label, name) of each dataclass field and each property in the module at path."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        data = any(_is(d, "dataclass") for d in cls.decorator_list)
        for node in cls.body:
            if data and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            elif isinstance(node, ast.FunctionDef) and any(
                    _is(d, "property") for d in node.decorator_list):
                name = node.name
            else:
                continue
            yield f"{path.stem}.{cls.name}.{name}", name


def _reads():
    """The name of every attribute that a program loads."""
    return {node.attr for _, node in program_nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_field_is_read_or_allowed():
    fields = dict(f for path, tree in modules() for f in _fields(path, tree))
    # the walk sees fields of each kind: a dataclass field with and without a
    # default, and a property
    assert {"linalg.Spectrum.eigenvalues", "ensemble.EnsembleRun.outcomes",
            "ensemble.EnsembleRun.frequencies"} <= set(fields)
    reads = _reads()
    unread = {label for label, name in fields.items() if name not in reads}
    check_listed(unread, ALLOWED,
                 "nothing in src/, demos/, perfbench/ or bench/ reads these fields; "
                 "remove each, or allow it with a reason: ",
                 "these allowed fields are read by a program now, or gone; drop their entries: ")
