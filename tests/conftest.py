import pytest

from affine_crystals.algebra import build_psi, valid_psi_indices
from affine_crystals.cartan import build_datum, swept_types
from affine_crystals.crystal import build_crystal
from affine_crystals.tensor import TensorCrystal

# criterion sweep: every valid rank parameter up to 5 plus the fixed
# exceptional families
SWEPT_NAMES = [t.name for t in swept_types(5, with_exceptional=True)]


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


_CACHE = {}


def family(name):
    if name not in _CACHE:
        _CACHE[name] = FamilyContext(name)
    return _CACHE[name]


@pytest.fixture(scope="session")
def swept_families():
    return [family(name) for name in SWEPT_NAMES]
