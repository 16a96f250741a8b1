"""Exception types shared across the package."""


class EcError(Exception):
    """Base class for every error this package raises deliberately."""


# --- field / modulus ---

class InvalidModulus(EcError):
    """Modulus is not an odd prime in the supported range."""


# --- curve construction and group operations ---

class SingularCurve(EcError):
    """4*a^3 + 27*b^2 vanishes mod p."""


class GeneratorOffCurve(EcError):
    """Declared generator does not satisfy the curve equation."""


class BadOrder(EcError):
    """Declared generator order does not annihilate the generator."""


class OffCurveInput(EcError):
    """A point handed to a group operation is not on the curve."""


class MixedCurve(OffCurveInput):
    """A coordinate lies outside [0, p), as one from a larger curve does."""


class CurveTooLarge(EcError):
    """Exhaustive operation requested on a curve above the brute-force bound."""


class UnknownCurve(EcError):
    """Curve name not present in the registry."""


# --- message encoding ---

class EncodingFailure(EcError):
    """No candidate x in the search window landed on the curve."""


class ParamsTooLarge(EcError):
    """Encoding window does not fit below the field modulus."""


class IdentityPointError(EcError):
    """The identity cannot be decoded to a message block."""


class DecodeRangeError(EcError):
    """Decoded value falls outside the message block range."""


# --- serialization ---

class FormatError(EcError):
    """A key, ciphertext, or curve file does not match its format."""


class KeyConsistencyError(FormatError):
    """Key file's public point does not match secret * G."""


# --- shared region / locking ---

class ReentrantLock(EcError):
    """Worker attempted to re-acquire a lock it already holds."""


class NotOwner(EcError):
    """Release attempted through a dead or foreign handle."""


class LockNotHeld(EcError):
    """Slot access attempted without holding the region lock."""


class EmptySlot(EcError):
    """Read from a slot that has not been written this round."""


class SlotAlreadyWritten(EcError):
    """Second write to a slot within the same round."""


class WorkerFailure(EcError):
    """A pipeline worker died; carries the failing worker id."""

    def __init__(self, worker: int, message: str):
        super().__init__(f"worker {worker}: {message}")
        self.worker = worker


# --- benchmarking ---

class ModeMismatch(EcError):
    """Execution modes produced different ciphertexts for the same input."""
