import signal

import pytest

from affine_crystals.algebra import build_psi, valid_psi_indices
from affine_crystals.cartan import build_datum, swept_types
from affine_crystals.crystal import build_crystal
from affine_crystals.tensor import TensorCrystal

# criterion sweep: every valid rank parameter up to 5 plus the fixed
# exceptional families
SWEPT_NAMES = [t.name for t in swept_types(5, with_exceptional=True)]

# seconds one test may run; the slowest takes under 2 s
TIME_LIMIT = 60


class _Expired(BaseException):
    """Raised by the alarm; not an Exception, so that hypothesis does not
    take it for a failing example and replay the test without a limit."""


@pytest.hookimpl(wrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    """Fail a test that runs past TIME_LIMIT seconds, so a loop that never
    ends (a lattice walk with a wrong pairing) fails the suite instead of
    hanging it.  Needs SIGALRM; elsewhere tests run without a limit.  The
    failure carries no traceback: the alarm can land on an instruction
    without a line number, which pytest cannot render."""
    if not hasattr(signal, "SIGALRM"):
        return (yield)

    def expire(signum, frame):
        raise _Expired

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT)
    try:
        return (yield)
    except _Expired:
        pytest.fail(f"test ran past its {TIME_LIMIT} s limit", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class FamilyContext:
    def __init__(self, name):
        self.name = name
        self.datum = build_datum(name)
        self.graph = build_crystal(self.datum)
        self._tensor = None
        self._psis = None

    @property
    def tensor(self):
        if self._tensor is None:
            self._tensor = TensorCrystal(self.graph)
        return self._tensor

    @property
    def psis(self):
        if self._psis is None:
            self._psis = {
                i: build_psi(self.graph, i)
                for i in valid_psi_indices(self.datum)
            }
        return self._psis


def simple_root(i, n):
    """alpha_i of a rank-n system, as doubled coordinates."""
    return (0,) * (i - 1) + (2,) + (0,) * (n - i)


_CACHE = {}


def family(name):
    if name not in _CACHE:
        _CACHE[name] = FamilyContext(name)
    return _CACHE[name]


def pair_index(graph, left, right):
    """The left-major index of the pair left (x) right of B (x) B."""
    return graph.index[left] * len(graph) + graph.index[right]


def pair_elements(graph, k):
    """The elements (left, right) of pair k of B (x) B."""
    l, r = divmod(k, len(graph))
    return graph.elements[l], graph.elements[r]


def pair_label(graph, k):
    left, right = pair_elements(graph, k)
    return f"{left.label()} (x) {right.label()}"


@pytest.fixture(scope="session")
def swept_families():
    return [family(name) for name in SWEPT_NAMES]
