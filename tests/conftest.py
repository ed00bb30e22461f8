"""Shared fixtures, and the opt-in ``--digest PATH`` option.

With ``--digest PATH`` the session wraps the entry points that perfbench's
tracer wraps (every public function of `reduction`, `ensemble.run_*_ensemble`
and `composite.hartree_vs_full`) and writes one line per call made in the
pytest process: the test id, the entry point, and a sha256 of every ndarray
in its result (fields of dataclasses, nested ones included; float fields are
written exactly, as float.hex).  Calls made in forked workers are not
written.  Run the same tests in two trees and `diff` the two files to see
whether their results are byte-identical.  Without the option nothing is
wrapped.
"""

import dataclasses
import functools
import hashlib
import inspect
import os

import numpy as np
import pytest

from reductionlab import composite, ensemble, reduction

_DIGEST = pytest.StashKey()


def pytest_addoption(parser):
    parser.addoption("--digest", metavar="PATH", default=None,
                     help="write a sha256 of every ndarray of each entry-point result to PATH")


def _entry_points():
    pts = [(reduction, n) for n in reduction.__all__ if inspect.isfunction(getattr(reduction, n))]
    pts += [(ensemble, n) for n in ensemble.__all__
            if n.startswith("run_") and n.endswith("_ensemble")]
    return pts + [(composite, "hartree_vs_full")]


def _fields(value, name=""):
    """(name, digest) of every ndarray and float in value, through dataclass
    fields, lists and tuples."""
    if isinstance(value, np.ndarray):
        h = hashlib.sha256(f"{value.dtype} {value.shape} ".encode())
        h.update(repr(value.tolist()).encode() if value.dtype == object
                 else np.ascontiguousarray(value).tobytes())
        yield name, h.hexdigest()
    elif isinstance(value, float):
        yield name, value.hex()
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _fields(getattr(value, f.name), f"{name}.{f.name}".lstrip("."))
    elif isinstance(value, (list, tuple)):
        for k, v in enumerate(value):
            yield from _fields(v, f"{name}[{k}]")


class _Digest:
    """The --digest record: wraps the entry points until close(), which
    restores them and writes one line per call made in this process."""

    def __init__(self, path):
        self.path, self.lines, self.test, self.saved = path, [], "<collection>", []
        for mod, name in _entry_points():
            fn = getattr(mod, name)
            self.saved.append((mod, name, fn))
            setattr(mod, name, self._wrap(f"{mod.__name__.rsplit('.', 1)[-1]}.{name}", fn))

    def _wrap(self, label, fn):
        pid = os.getpid()

        @functools.wraps(fn)
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            if os.getpid() == pid:
                fields = " ".join(f"{k}={v}" for k, v in _fields(out))
                self.lines.append(f"{self.test} {label} {fields}\n")
            return out
        return call

    def close(self):
        for mod, name, fn in self.saved:
            setattr(mod, name, fn)
        with open(self.path, "w", encoding="utf-8") as f:
            f.writelines(self.lines)


def pytest_configure(config):
    if config.getoption("--digest"):
        config.stash[_DIGEST] = _Digest(config.getoption("--digest"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    digest = item.config.stash.get(_DIGEST, None)
    if digest:
        digest.test = item.nodeid
    yield


def pytest_unconfigure(config):
    digest = config.stash.get(_DIGEST, None)
    if digest:
        digest.close()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
