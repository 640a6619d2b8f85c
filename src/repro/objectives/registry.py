"""Registry of optimisation objectives for the test-infrastructure problem.

The paper's core question is economic, not just temporal: the best test
architecture depends on *what is being optimised* -- raw test time,
multi-site throughput, or ATE cost per good die.  This registry mirrors the
solver registry (:mod:`repro.solvers.registry`): each objective backend
registers an evaluation callable under a name with
:func:`register_objective`, and every layer above -- the shared evaluation
kernel (:mod:`repro.solvers.evaluate`), the Step-2 site search, the
scenario :class:`~repro.api.engine.Engine` and the CLI -- looks objectives
up by name instead of hard-wiring the throughput formula.  The built-in
backends (:mod:`repro.objectives.backends`):

* ``"throughput"`` -- devices per hour, ``D_th`` or ``D^u_th`` (the
  default; exactly the behaviour before the registry existed);
* ``"test_time"`` -- raw test application time per touchdown, minimised;
* ``"cost_per_good_die"`` -- amortised ATE capital per good die, built on
  the Section-7 :class:`~repro.ate.pricing.AtePricing` street prices;
* ``"channel_budget"`` -- throughput per employed ATE channel.

An :class:`ObjectiveSpec` carries a *sense* (``"max"`` or ``"min"``);
solvers compare candidates through :meth:`ObjectiveSpec.signed` so a
minimised objective needs no special-casing anywhere in the search code.

Backend modules are imported lazily on first lookup, so importing this
module never creates a cycle with the evaluation stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ate.spec import AteSpec
    from repro.multisite.throughput import MultiSiteScenario
    from repro.optimize.config import OptimizationConfig

#: ``backend(scenario, config, ate) -> float``: evaluate one multi-site
#: configuration.  The scenario carries sites/timing/yields, the config the
#: variant switches, and the ATE the machine the cost objectives price.
ObjectiveBackend = Callable[["MultiSiteScenario", "OptimizationConfig", "AteSpec"], float]

#: Name of the objective used when no objective is specified anywhere.
#: Scenarios running this objective keep their pre-registry canonical keys
#: (and therefore their store records and digests).
DEFAULT_OBJECTIVE = "throughput"

#: The two legal optimisation senses.
SENSES = ("max", "min")


@dataclass(frozen=True)
class ObjectiveSpec:
    """One registered optimisation objective.

    Attributes
    ----------
    name:
        Registry name; scenarios reference objectives by it.
    title:
        Short label CLI listings print.
    backend:
        The evaluation callable (see :data:`ObjectiveBackend`).
    sense:
        ``"max"`` when larger values are better, ``"min"`` otherwise.
    units:
        Unit string reports print next to values.
    description:
        One-line explanation shown by ``repro objectives``.
    """

    name: str
    title: str
    backend: ObjectiveBackend
    sense: str = "max"
    units: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.sense not in SENSES:
            raise ConfigurationError(
                f"objective sense must be one of {SENSES}, got {self.sense!r}"
            )

    @property
    def maximize(self) -> bool:
        """``True`` when larger objective values are better."""
        return self.sense == "max"

    def value(
        self,
        scenario: "MultiSiteScenario",
        config: "OptimizationConfig",
        ate: "AteSpec",
    ) -> float:
        """Evaluate the objective for one multi-site configuration."""
        return self.backend(scenario, config, ate)

    def signed(self, value: float) -> float:
        """Map a raw objective value onto the maximise convention.

        Solvers always *maximise* the signed value, so a ``"min"``
        objective contributes its negation -- candidate ranking code never
        needs to branch on the sense.
        """
        return value if self.maximize else -value

    def describe_value(self, value: float) -> str:
        """Render a value with its units, as reports print it."""
        units = f" {self.units}" if self.units else ""
        return f"{value:.4g}{units}"


_REGISTRY: dict[str, ObjectiveSpec] = {}


def register_objective(
    name: str,
    title: str,
    sense: str = "max",
    units: str = "",
    description: str = "",
) -> Callable[[ObjectiveBackend], ObjectiveBackend]:
    """Function decorator registering an objective backend under ``name``.

    >>> @register_objective("demo", title="Demo", sense="min")   # doctest: +SKIP
    ... def _evaluate_demo(scenario, config, ate):
    ...     ...
    """
    if not name:
        raise ConfigurationError("objective name must be non-empty")

    def decorator(backend: ObjectiveBackend) -> ObjectiveBackend:
        if name in _REGISTRY:
            raise ConfigurationError(f"objective {name!r} is already registered")
        _REGISTRY[name] = ObjectiveSpec(
            name=name,
            title=title,
            backend=backend,
            sense=sense,
            units=units,
            description=description,
        )
        return backend

    return decorator


def _ensure_backends() -> None:
    """Import the built-in backend module (self-registration side effect)."""
    import repro.objectives.backends  # noqa: F401


def get_objective(name: str) -> ObjectiveSpec:
    """Look an objective up by name.

    Raises
    ------
    ConfigurationError
        When no objective of that name is registered.
    """
    _ensure_backends()
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown objective {name!r}; registered: {known}")
    return _REGISTRY[name]


def objective_names() -> tuple[str, ...]:
    """Names of all registered objectives, sorted."""
    _ensure_backends()
    return tuple(sorted(_REGISTRY))


def list_objectives() -> tuple[ObjectiveSpec, ...]:
    """All registered objectives, sorted by name."""
    return tuple(_REGISTRY[name] for name in objective_names())
