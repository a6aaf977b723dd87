"""Co-diffusion of two coupled contagions on a lattice + random-regular multiplex."""

__version__ = "0.1.0"

from .analysis import (  # noqa: F401
    CATEGORIES,
    ModalityReport,
    category_series,
    ceiling,
    inflection,
    kde,
    mode_shares,
)
from .config import SweepSpec, enumerate_parameter_sets, load_spec, run_config_for  # noqa: F401
from .engine import (  # noqa: F401
    CountsSeries,
    EnsembleResult,
    RunConfig,
    run,
    run_ensemble,
    seed_population,
    step,
    stream,
)
from .errors import (  # noqa: F401
    AnalysisError,
    ConfigurationError,
    GraphGenerationError,
    IntegrationError,
)
from .kernel import (  # noqa: F401
    NAIVE,
    STATE_A,
    STATE_AB,
    STATE_B,
    Densities,
    DormancyParams,
    KernelParams,
    adoption_probability,
    choose_contagion,
    dormancy_rate,
    threshold_of,
)
from .meanfield import MeanFieldParams, MeanFieldState, integrate, mf_rates  # noqa: F401
from .topology import (  # noqa: F401
    Layer,
    MultiplexGraph,
    build_lattice,
    build_rrg,
)
