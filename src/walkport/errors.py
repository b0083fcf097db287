"""Exception types shared across the package."""


class WalkportError(Exception):
    """Base class for all walkport errors."""


class InvalidDefinition(WalkportError, ValueError):
    """A register, layout, shift rule, walk step, measurement family or
    protocol spec is malformed."""


class UnknownProtocol(WalkportError, KeyError):
    """No protocol has the requested id."""


class NonFiniteAmplitude(WalkportError, ValueError):
    """A state amplitude is NaN or infinite."""


class UnknownPauliOp(WalkportError, ValueError):
    """A Pauli string names an op other than I, X, Z or ZX."""


class InvalidLabel(WalkportError):
    """A basis label does not fit its register layout."""


class EmptyState(WalkportError):
    """A state was requested from an empty term list."""


class WrongRegisterKind(WalkportError):
    """An operation targeted a register of the wrong kind."""


class NotUnitary(WalkportError):
    """A gate matrix failed the unitarity check."""


class OutOfBounds(WalkportError):
    """A shift would move a lattice walker past the configured bound."""


class UnknownRegister(WalkportError):
    """A register name is not present in the layout."""


class ShapeMismatch(WalkportError):
    """A payload vector has the wrong length for the protocol."""


class NotNormalized(WalkportError):
    """A payload vector is not unit norm."""


class MissingCorrection(WalkportError):
    """A measurement outcome has no row in the correction table."""


class NoPauliCorrection(WalkportError):
    """No Pauli string restores the target state for a branch."""


class MappingIncomplete(WalkportError):
    """Two protocols' branch maps do not pair their outcomes one to one."""


class DimensionOverflow(WalkportError):
    """A dense object would exceed the configured dimension cap."""
