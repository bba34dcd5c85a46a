"""Exception types shared across the package."""


class DemaError(Exception):
    pass


class DimensionError(DemaError, ValueError):
    """Operand shapes are incompatible."""


class ConfigError(DemaError, ValueError):
    """A configuration value is out of its legal range."""


class ContractError(DemaError, ValueError):
    """A caller violated an operation precondition."""


class FormatError(DemaError, ValueError):
    """An input file is missing, unreadable or not in the expected format."""


class NumericError(DemaError, ArithmeticError):
    """Non-finite values or numeric degeneracy."""
