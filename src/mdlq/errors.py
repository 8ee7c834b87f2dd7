"""Exception types shared across the package.

Every error carries a stable machine-readable ``name`` (the class name) so the
CLI can print it on stderr and map it to a nonzero exit code.
"""


class MdlqError(Exception):
    """Base class for all package errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


class InadmissibleIndex(MdlqError):
    """Sublattice parameters violate the family constraint for the lattice."""


class NoRepresentation(MdlqError):
    """No admissible parameters represent the requested index."""


class NotSimilar(MdlqError):
    """The scaled-orthogonality certificate for a sublattice failed."""


class GroupPropertyViolation(MdlqError):
    """A symmetry group failed one of its structural property checks."""

    def __init__(self, prop: str, detail: str = ""):
        super().__init__(f"group property violated: {prop}" + (f" ({detail})" if detail else ""))
        self.prop = prop


class SizeMismatch(MdlqError):
    """Point-orbit and edge-class-orbit counts differ in the matching."""


class AsymmetricEdgeSet(MdlqError):
    """The shortest-edge set cannot be completed with negation-closed pairs."""


class PropertyCheckFailed(MdlqError):
    """A labeling violated one of its three defining properties."""

    def __init__(self, prop: str, detail: str = ""):
        super().__init__(f"labeling property failed: {prop}" + (f" ({detail})" if detail else ""))
        self.prop = prop


class NotALabel(MdlqError):
    """A directed edge is not in the range of the labeling function."""


class ZeroEdge(MdlqError):
    """Operation undefined for the zero-length edge."""


class ResourceLimit(MdlqError):
    """An enumeration would exceed its fixed size cap."""


class InvalidInput(MdlqError):
    """Malformed or out-of-range input from outside the program: a CLI or
    config value, a design file, a file that cannot be read or written, or
    samples beyond the int64 domain."""
