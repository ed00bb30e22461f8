"""Every defaulted parameter of a package function is set by some program.

A default that no call in src/, demos/, perfbench/ or bench/ ever overrides
is a constant under a name; write it as the constant.  Tests do not count, as
in tests/test_exports.py: an option that only a test sets is one that no
program needs, so remove it, or give it an entry in ALLOWED with the reason
it stays.  An entry whose parameter a program sets, or that is gone, is
stale.  Calls are matched to functions by name alone.  A call sets a
parameter by keyword, or by position when it passes that many positional
arguments (a method's self or cls not counted); a call that splats *args or
**kwargs counts as setting every parameter it could reach that way.
"""

import ast

from guards import check_listed, modules, program_nodes

ALLOWED = {
    "cli.main(argv)": "tests drive the CLI in process through its argument list",
}


def _defaulted(path, tree):
    """(label, name, keyword, position) of each defaulted parameter of each
    function of the module at path; position is None for a keyword-only
    parameter."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        a, bound = f.args, id(f) in methods
        if bound and any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list):
            bound = False
        pos = a.posonlyargs + a.args
        first = len(pos) - len(a.defaults)
        params = [(p.arg, i - bound) for i, p in enumerate(pos[first:], first)]
        params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for arg, position in params:
            yield f"{path.stem}.{f.name}({arg})", f.name, arg, position


def _calls():
    """name → list of (keywords, positional count, splats *args, splats **kwargs)."""
    calls = {}
    for _, node in program_nodes():
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            star = any(isinstance(x, ast.Starred) for x in node.args)
            keys = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((keys - {None}, len(node.args), star, None in keys))
    return calls


def _is_set(calls, name, arg, position):
    return any(arg in keys or splat_kw
               or (position is not None and (n_pos > position or star))
               for keys, n_pos, star, splat_kw in calls.get(name, ()))


def test_every_default_is_set_by_some_call():
    params = [p for path, tree in modules() for p in _defaulted(path, tree)]
    labels = {label for label, *_ in params}
    # the walk sees parameters that only a test sets, and keyword-only ones
    assert {"cli.main(argv)", "reduction.born_statistics(workers)"} <= labels
    calls = _calls()
    unset = {label for label, *p in params if not _is_set(calls, *p)}
    check_listed(unset, ALLOWED,
                 "nothing in src/, demos/, perfbench/ or bench/ sets these defaults; "
                 "make each a constant, or allow it with a reason: ",
                 "these allowed defaults are set by a program now, or gone; drop their entries: ")
