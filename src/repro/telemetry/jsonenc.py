"""The one JSON encoder for telemetry and service output.

Records keep their values as measured: an R-hat of chains stuck at
different values stays ``inf``, an unknown one ``nan``.  JSON has no
number for either, so :func:`dumps` sends a nan or infinite float as
``null`` -- in dicts, lists and tuples, and as a numpy scalar.  Numpy
arrays become lists, and any other object its ``repr``.
"""

from __future__ import annotations

import json
import math

import numpy as np


def dumps(obj, **kwargs) -> str:
    """``json.dumps`` of ``obj`` with its nan and infinite floats sent
    as ``null``; ``kwargs`` pass through (``indent``, ``separators``)."""
    return json.dumps(_finite(obj), default=json_default, **kwargs)


def _finite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, np.generic):
        return _finite(obj.item())
    return obj


def json_default(obj):
    """``json.dumps`` fallback: numpy values become plain JSON, anything
    else its ``repr``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return repr(obj)
