"""Every name a package module exports in `__all__` is used by the package.

A name counts as used when some code in src/, demos/, perfbench/ or bench/
refers to it outside its own definition: by name, as an attribute, or in
an import.  Tests do not count, so a name that only tests call is a wrapper
around work the package does elsewhere; remove it, or give it an entry in
ALLOWED with the reason it stays.
"""

import ast

from guards import check_listed, modules, program_nodes

ALLOWED = {
    "dynamics.evolve_expectation": "the paper's expectation flow E[ρ](t), in closed form",
    "composite.partial_expectation": "the handle by which a kron oracle checks _contractions",
    "reduction.gibbs_state": "the paper's exp(−βH)/Z, the equilibrium reference of the tests",
    "reduction.variance_decay_check": "the paper's law dE[V] = −σ²E[V²]dt, an acceptance fit",
    "phenomenology.decoherence_rate_general": "the paper's rate N_scatt·Re[1 − ⟨S⟩]",
    "linalg.save_array": "the writer of the --hamiltonian FILE format the README documents",
}


def _exports(tree):
    """(name, first line, last line) of each `__all__` name of a module's
    tree, with the lines of its top-level definition ((0, -1) if none)."""
    spans, names = {}, []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, ast.Assign):
            ids = [getattr(t, "id", None) for t in node.targets]
            spans.update(dict.fromkeys(ids, (node.lineno, node.end_lineno)))
            if "__all__" in ids:
                names = [e.value for e in node.value.elts]
    return [(name, *spans.get(name, (0, -1))) for name in names]


def _references():
    """name → (path, line) of each place it is loaded, read as an attribute
    or imported."""
    refs = {}
    for path, node in program_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_export_is_used_or_allowed():
    refs = _references()
    exports = {f"{path.stem}.{name}": (path, name, lo, hi)
               for path, tree in modules() for name, lo, hi in _exports(tree)}
    # the walk sees names of each kind: a class, a function, a constant
    assert {"linalg.Spectrum", "reduction.born_statistics", "dynamics.ANTICOMMUTATOR"} <= set(
        exports)
    unused = {label for label, (path, name, lo, hi) in exports.items()
              if all(where == path and lo <= line <= hi for where, line in refs.get(name, ()))}
    check_listed(unused, ALLOWED,
                 "nothing in src/, demos/, perfbench/ or bench/ uses these exports; "
                 "remove each, or allow it with a reason: ",
                 "these allowed exports are used now; drop their entries: ")
