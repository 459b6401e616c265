"""Exception and warning types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid scenario configuration; maps to CLI exit code 1."""


class NonPositiveCount(ConfigError):
    """A count (of elements, antennas, realizations, ...) or a seed below its least value."""


class UnknownEnvironment(ConfigError):
    """Environment name not found in the preset registry."""


class EmptySweep(ConfigError):
    """A sweep list is empty or inconsistent with the campaign axis."""


class NearFieldViolation(ConfigError):
    """Terminal inside the Fraunhofer distance of an RIS under strict checking."""


class CoincidentPoints(ValueError):
    """Direction requested between two identical points."""


class DimensionMismatch(ValueError):
    """Matrix/vector shapes inconsistent with the scenario dimensions."""


class NonPositiveDistance(ValueError):
    """Distance argument must be strictly positive."""


class EmptyList(ValueError):
    """An operation requiring a non-empty sequence received an empty one."""


class NonFiniteEntries(ValueError):
    """A channel matrix contains NaN or infinite entries."""


class SingularPinv(RuntimeError):
    """Pseudoinverse phase computation failed and no fallback RNG was supplied."""


class NearFieldWarning(UserWarning):
    """Terminal lies inside the Fraunhofer distance of an RIS (far-field model)."""


class SingularPinvWarning(UserWarning):
    """Pseudoinverse phase computation fell back to random phases."""


class ModelValidityWarning(UserWarning):
    """An input was clamped to the validity floor of a propagation model."""
