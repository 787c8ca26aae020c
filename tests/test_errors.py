"""Every DomainError guard that no other test reaches raises its tag."""

import numpy as np
import pytest

from frozenplanet import detline, elliptic, frozen, helium, loops, solve
from frozenplanet.errors import DomainError


def _swapped_pair():
    return helium.PairLoop(
        loops.from_coeffs(loops.ODD_SINE, [1.0]), loops.from_coeffs(loops.EVEN_COSINE, [1.6])
    )


@pytest.mark.parametrize(
    "tag, call",
    [
        ("solve.modes", lambda: solve.free_fall_seed(3)),
        ("solve.space", lambda: solve.spectrum(frozen.certify(solve.free_fall_seed(8), 0.0), "x")),
        ("loops.class", lambda: loops.from_coeffs("bogus", [1.0])),
        ("loops.size", lambda: loops.from_coeffs(loops.ODD_SINE, [])),
        ("helium.classes", _swapped_pair),
        ("elliptic.order", lambda: elliptic.In(-1, 0.5)),
        ("detline.modes", lambda: detline.bernd_unitary(1.5, 3)),
        ("detline.tau", lambda: detline.bernd_unitary(0.5, 8)),
        ("detline.symmetric", lambda: detline.sections(np.array([[1.0, 2.0], [0.0, 1.0]]))),
    ],
)
def test_guard_raises_its_tag(tag, call):
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.tag == tag
