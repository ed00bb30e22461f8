"""Shared fixtures, and the opt-in ``--digest PATH`` option.

With ``--digest PATH`` the session wraps the entry points that compute
results: every public function of `reduction`, `ensemble.run_ensemble`,
`composite.hartree_vs_full`, `accretion.occupancy_simulate`,
`accretion.pnk_exact` and `dynamics.evolve_trajectory`.  The wrappers are in
place before the test modules are collected, so a name that a test imports
from its module is wrapped too.  The session writes one line per call: the
test id, the entry point, and a sha256 of every ndarray in its result
(fields and properties of dataclasses, nested ones included; float values
are written exactly, as float.hex, and Python and numpy ints in decimal;
bools and other values are not written).  A call made in a forked worker is
written to ``PATH.<pid>`` with its place: the parent's line count at the
fork and the worker's multiprocessing identity.  close() merges those lines
in, each worker's after the parent lines written before its fork, in the
order the workers were started, so a pool's calls land where a serial run
writes them and the file is the same for any worker count.  Run the same
tests in two trees and compare the two files (bench/parity.py does) to see
whether their results are byte-identical.  Without the option nothing is
wrapped.  Each wrapper runs with globals named inside the package, so that
`dynamics.check_stability`, which warns at the first caller outside the
package, passes over it to the test.  With the option, Hypothesis draws its
examples derandomized and without its example database, so that two runs of
the same tree write the same file.
"""

import dataclasses
import functools
import glob
import hashlib
import inspect
import multiprocessing
import os
import types

import hypothesis
import numpy as np
import pytest

from reductionlab import accretion, composite, dynamics, ensemble, reduction

_DIGEST = pytest.StashKey()


def pytest_addoption(parser):
    parser.addoption("--digest", metavar="PATH", default=None,
                     help="write a sha256 of every ndarray of each entry-point result to PATH")


def _entry_points():
    pts = [(reduction, n) for n in reduction.__all__ if inspect.isfunction(getattr(reduction, n))]
    return pts + [(ensemble, "run_ensemble"), (composite, "hartree_vs_full"),
                  (accretion, "occupancy_simulate"), (accretion, "pnk_exact"),
                  (dynamics, "evolve_trajectory")]


def _fields(value, name=""):
    """(name, digest) of every ndarray, float and int (not bool) in value,
    through dataclass fields and properties, lists and tuples."""
    if isinstance(value, np.ndarray):
        h = hashlib.sha256(f"{value.dtype} {value.shape} ".encode())
        h.update(repr(value.tolist()).encode() if value.dtype == object
                 else np.ascontiguousarray(value).tobytes())
        yield name, h.hexdigest()
    elif isinstance(value, float):
        yield name, value.hex()
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        yield name, str(int(value))
    elif dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value)]
        names += [k for k, _ in inspect.getmembers(type(value), lambda a: isinstance(a, property))]
        for k in names:
            yield from _fields(getattr(value, k), f"{name}.{k}".lstrip("."))
    elif isinstance(value, (list, tuple)):
        for k, v in enumerate(value):
            yield from _fields(v, f"{name}[{k}]")


class _Digest:
    """The --digest record: wraps the entry points until close(), which
    restores them and writes one line per call, forked workers' included."""

    def __init__(self, path):
        self.path, self.lines, self.test, self.saved = path, [], "<collection>", []
        for stale in self._forked_files():   # left by a session that did not close
            os.remove(stale)
        for mod, name in _entry_points():
            fn = getattr(mod, name)
            self.saved.append((mod, name, fn))
            setattr(mod, name, self._wrap(f"{mod.__name__.rsplit('.', 1)[-1]}.{name}", fn))

    def _wrap(self, label, fn):
        pid = os.getpid()

        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            fields = " ".join(f"{k}={v}" for k, v in _fields(out))
            line = f"{self.test} {label} {fields}\n"
            if os.getpid() == pid:
                self.lines.append(line)
            else:   # a forked worker: the parent's line count at the fork, then its identity
                place = (len(self.lines),) + multiprocessing.current_process()._identity
                with open(f"{self.path}.{os.getpid()}", "a", encoding="utf-8") as f:
                    f.write(" ".join(map(str, place)) + f"\t{line}")
            return out
        inside = types.FunctionType(call.__code__, dict(globals(), __name__="reductionlab._digest"),
                                    call.__name__, None, call.__closure__)
        return functools.wraps(fn)(inside)

    def _forked_files(self):
        return [p for p in glob.glob(glob.escape(self.path) + ".*") if p.rsplit(".", 1)[1].isdigit()]

    def close(self):
        for mod, name, fn in self.saved:
            setattr(mod, name, fn)
        forked = []   # (place, line) of every worker's call
        for path in self._forked_files():
            with open(path, encoding="utf-8") as f:
                for entry in f:
                    place, line = entry.split("\t", 1)
                    forked.append((tuple(map(int, place.split())), line))
            os.remove(path)
        lines, done = [], 0
        for place, line in sorted(forked, key=lambda e: e[0]):   # stable: a worker's own order
            lines += self.lines[done:place[0]] + [line]
            done = place[0]
        with open(self.path, "w", encoding="utf-8") as f:
            f.writelines(lines + self.lines[done:])


def pytest_configure(config):
    if config.getoption("--digest"):
        hypothesis.settings.register_profile("digest", derandomize=True, database=None)
        hypothesis.settings.load_profile("digest")
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
