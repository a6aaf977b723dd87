"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid structural or sweep parameter (grid side, degree, ranges, bad config keys)."""


class GraphGenerationError(RuntimeError):
    """Random graph sampling failed to produce a simple graph within the restart budget."""


class AnalysisError(ValueError):
    """Statistic undefined for the given input (series too short, too few samples),
    or `analyze` refusing its inputs: a malformed manifest.json, or a series it
    lists that is missing, unlisted or changed."""


class IntegrationError(RuntimeError):
    """ODE trajectory left the admissible region; reduce the step size."""
