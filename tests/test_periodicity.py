"""The periodicity onset on a sweep of cyclic modules, over QQ and GF(32003).

Eleven cyclic modules R/I over eleven rings in k[x,y,z,w] are walked to
step 7.  The onset is the engine's 2-periodicity certificate, read from
the ring alone: a matrix factorization of the equation on a hypersurface,
one repeated differential elsewhere.  Against the older rule that forked
on the field (`oracles.periodicity_onset_reference`):

- on a hypersurface the onset never comes later, and elsewhere it is the
  same step;
- it does not depend on the field: QQ and GF(32003) give the same onset;
- it is real: two steps past it the resolution repeats, with the Betti
  numbers of F_{k+2} those of F_k and its shifts those of F_k moved by
  one constant (deg f on a hypersurface), read off a longer walk.
"""

import pytest

from reflextor import GF, QQ, make_ring
from reflextor.caps import Caps
from reflextor.homology import free_resolution, resolution
from reflextor.modules import cyclic
from reflextor.parse import parse_poly

from oracles import periodicity_onset_reference

HYPERSURFACES = [["x*y"], ["x*y - z*w"], ["x^2"], ["x*y*z"], ["x^2 + y*z"]]
OTHER_RINGS = [["x^2", "y^2"], ["x*y", "z^2"], ["x*y", "z*w"],
               ["x^2", "y^2", "z^2"], ["x*y", "x*z"], ["x^2", "y*z"]]
IDEALS = [["x"], ["y"], ["z"], ["x", "y"], ["x", "z"], ["x + z"], ["z + w"],
          ["x", "y", "z", "w"], ["x^2"], ["x", "z", "w"], ["y", "w"]]
LENGTH = 7


def _sweep(field, equations):
    """(engine onset, reference onset, resolution, caps) per ideal, each
    resolution walked to LENGTH in a run of its own, and deg f on a
    hypersurface (else None)."""
    ring = make_ring(field, ["x", "y", "z", "w"], equations)
    out = []
    for gens in IDEALS:
        caps = Caps(resolution_length=LENGTH + 4)
        m = cyclic(ring, tuple(parse_poly(g, ring.sig) for g in gens))
        view = free_resolution(m, LENGTH, caps)
        out.append((view.periodicity_onset(), periodicity_onset_reference(view),
                    resolution(m, caps), caps))
    degree = ring.ideal.generators[0].total_degree() if ring.hypersurface else None
    return out, degree


def _repeats_from(res, onset, caps, degree):
    """F_{k+2} is F_k with every shift moved by one constant, for
    k = onset - 1 .. onset + 1; the constant is `degree` unless that is None."""
    res.extend_to(onset + 3, caps)
    moves = set()
    for k in range(onset - 1, onset + 2):
        low, high = sorted(res.shift(k)), sorted(res.shift(k + 2))
        if len(low) != len(high):
            return False
        moves |= {b - a for a, b in zip(low, high)}
    return len(moves) == 1 and degree in (None, *moves)


@pytest.mark.parametrize("equations", HYPERSURFACES + OTHER_RINGS,
                         ids=lambda eqs: ",".join(eqs).replace(" ", ""))
def test_onset_is_one_test_per_ring_on_every_field(equations):
    (qq, degree), (gf, _) = (_sweep(field, equations) for field in (QQ, GF(32003)))
    assert [row[0] for row in qq] == [row[0] for row in gf]
    for onset, reference, res, caps in qq + gf:
        if degree is not None:
            assert reference is None or (onset is not None and onset <= reference)
        else:
            assert onset == reference
        if onset is not None:
            assert _repeats_from(res, onset, caps, degree)
