"""Cached structural fingerprints for frozen cache-key dataclasses.

The caches of the solve path key on frozen dataclasses -- modules for the
test-time curves, SOC and test-cell specs for the certificate cache and the
engine's canonical keys, architectures for the simulated-annealing point
memo (:class:`repro.solvers.evaluate.PointMemo`).  A generated dataclass
``__hash__`` re-walks every nested field tuple on every lookup, which
profiling shows dominates hot sweeps (millions of ``hash`` calls for a few
thousand distinct objects).  The cache-key classes therefore define
``__hash__`` explicitly: the structural hash is computed once, stored on
the instance under :data:`FINGERPRINT_SLOT` via ``object.__setattr__``
(legal on frozen dataclasses), and every later lookup hashes a
precomputed int.

Two hazards shape the design:

* **Process-specific hashes.** String hashing is randomised per process
  (``PYTHONHASHSEED``), so a fingerprint must never travel between
  processes: a pickled object carrying a stale fingerprint would be equal
  to, yet hash differently from, a locally-built twin.  Classes using
  cached fingerprints assign :func:`pickle_state` to ``__getstate__`` so
  the slot is stripped from pickles and lazily recomputed on first hash in
  the receiving process.
* **Laziness.** The fingerprint is computed on first ``hash()`` rather
  than in ``__post_init__`` so unpickled instances (which skip
  ``__post_init__``) need no special handling.
"""

from __future__ import annotations

from typing import Any

#: Instance-dict slot the cached structural hash is stored under.
FINGERPRINT_SLOT = "_fingerprint"


def pickle_state(obj: Any) -> dict[str, Any]:
    """``__getstate__`` implementation that drops the cached fingerprint.

    Everything else in the instance dict (dataclass fields, cached derived
    quantities such as group fills) is process-independent and kept.
    """
    state = obj.__dict__
    if FINGERPRINT_SLOT in state:
        state = {key: value for key, value in state.items() if key != FINGERPRINT_SLOT}
    return state
