import math

import numpy as np
from hypothesis import strategies as st

from li_qt.sg_experiment import UnitVector3


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random proper rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


_COMPONENT = st.floats(-1.0, 1.0, allow_nan=False)
_DIRECTIONS = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(lambda v: math.hypot(*v) > 1e-3)


@st.composite
def orientation_pairs(draw) -> tuple[UnitVector3, UnitVector3]:
    """Two magnet orientations; identical, antipodal, theta = 0 and theta = pi pairs
    (with a zero-probability outcome, so tied CDF edges) are drawn as often as free ones."""
    a = UnitVector3(*draw(_DIRECTIONS))
    kind = draw(st.sampled_from(["free", "identical", "antipodal", "theta 0", "theta pi", "inside tolerance"]))
    if kind == "free":
        return a, UnitVector3(*draw(_DIRECTIONS))
    if kind == "identical":
        return a, a
    if kind == "antipodal":
        return a, UnitVector3(-a.x, -a.y, -a.z)
    if kind == "inside tolerance":  # 1 + 5e-13 long, which UnitVector3 leaves as it is
        longer = UnitVector3(*(c * (1 + 5e-13) for c in a.as_array()))
        return longer, longer
    azimuth = draw(st.floats(0.0, 2 * math.pi))
    z = UnitVector3(0.0, 0.0, 1.0)
    return z, UnitVector3.from_polar(0.0 if kind == "theta 0" else math.pi, azimuth)
