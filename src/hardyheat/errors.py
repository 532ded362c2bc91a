"""Exception types shared across the package."""


class DomainError(ValueError):
    """Inputs outside the mathematically admissible range."""


class RegimeAmbiguityError(DomainError):
    """The nonlinearity power sits inside the unresolved band around p_plus."""


class QuadratureError(RuntimeError):
    """A quadrature failed to converge or the integral diverges."""


class BlowupFitError(RuntimeError):
    """Blow-up time extrapolation refused (tail not monotone/increasing)."""


class CertificationError(RuntimeError):
    """A numerical certification (supersolution, constants) failed."""


class ProfileError(CertificationError):
    """A kernel table that KernelProfile or its file's header refuses."""


class UnsupportedDatumError(DomainError):
    """Initial datum violates a support/positivity requirement."""
