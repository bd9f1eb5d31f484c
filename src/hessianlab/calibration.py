"""Calibrated dimensional constants, frozen in one versioned file.

Every inequality in the verification chains needs a concrete constant
where the theory only asserts existence. Analytic entries are derived in
closed form; empirical entries are the maxima of a measured ratio over a
fixed-seed candidate family times a safety factor. The packaged JSON is
the frozen reference, read as it stands; `calibration_hash()` stamps
artifacts so reports are traceable to the exact constants used.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

_DATA_PATH = pathlib.Path(__file__).parent / "calibration_data.json"
_cache = None


def get_constants() -> dict:
    global _cache
    if _cache is None:
        with open(_DATA_PATH) as fh:
            _cache = json.load(fh)
    return _cache


def calibration_hash() -> str:
    blob = json.dumps(get_constants(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def profile_integral_bound(n: int) -> float:
    """Exact factor (n/(n-1))^((n-1)/n) linking the layer-cake norm of a
    unit sub-level set to its weighted volume profile."""
    return (n / (n - 1.0)) ** ((n - 1.0) / n)


def level_perimeter_bound(n: int, a: float = 1.0 / 3.0, b: float = 0.5) -> float:
    """Factor bounding the boundary measure at the mean-value level by the
    volume: chain the mean-value identity (1/(b-a)), the profile bound and
    the cone volume comparison mu(1) <= a^(-n) mu(a)."""
    return a ** (-(n - 1.0)) / (b - a)
