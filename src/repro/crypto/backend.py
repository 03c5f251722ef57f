"""The crypto backend seam: pure-python reference vs gmpy2 acceleration.

Every modular-arithmetic primitive the hot paths touch — exponentiation,
inversion, the wrapped big-int type the fixed-base tables hold — routes
through one process-global :class:`CryptoBackend`.  Two backends exist:

* ``"python"`` — CPython's built-in ``pow`` / ``int`` arithmetic.  The
  reference implementation and the default when gmpy2 is absent.
* ``"gmpy2"`` — GMP via :mod:`gmpy2` when the interpreter has it:
  ``powmod`` / ``invert`` and ``mpz``-typed table entries, which makes
  every multiplication in the windowed-exponentiation and multi-exp
  ladders a GMP call instead of a CPython big-int one.

Both backends compute *bit-identical* integers — ``int(gmpy2.powmod(b,
e, m)) == pow(b, e, m)`` for all inputs — so switching backends can
never move an artifact; the CI backend matrix and the diffjson gates
hold this empirically, and ``tests/test_crypto_backend.py`` holds it
property-by-property.  The seam is therefore *outside* the determinism
contract (like ``REPRO_FASTPATH``), but the choice is part of the
:class:`repro.context.RunContext` that pool shards run under, so a
worker's telemetry describes the same configuration the coordinator ran.

Selection: ``resolve_backend(None)`` takes the current run context's
backend (``python`` | ``gmpy2`` | ``auto``); its default comes from
``REPRO_CRYPTO_BACKEND``, else ``auto`` — gmpy2 when importable, python
otherwise.  ``--crypto-backend`` on the experiments and campaign CLIs
sets it for the run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from ..errors import InvalidParameterError

#: Accepted spellings for the env/CLI value.
BACKEND_CHOICES = ("auto", "python", "gmpy2")


class CryptoBackend:
    """The primitive-arithmetic interface both backends implement.

    ``wrap`` converts an ``int`` into the backend's native big-int type
    (identity for python, ``mpz`` for gmpy2) — table entries and ladder
    accumulators are held wrapped so inner-loop multiplications stay
    native.  Every public kernel unwraps back to ``int`` at its boundary
    (:func:`repro.fastpath.kernels`), so nothing outside the kernels
    ever observes a backend-native type.
    """

    name = "abstract"

    def wrap(self, value: int) -> Any:
        raise NotImplementedError

    def unwrap(self, value: Any) -> int:
        return int(value)

    def powmod(self, base: Any, exponent: int, modulus: int) -> Any:
        raise NotImplementedError

    def invert(self, value: int, modulus: int) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PythonBackend(CryptoBackend):
    """CPython built-ins: the reference semantics every backend must match."""

    name = "python"

    def wrap(self, value: int) -> int:
        return value

    def powmod(self, base: Any, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    def invert(self, value: int, modulus: int) -> int:
        return pow(value, -1, modulus)


class Gmpy2Backend(CryptoBackend):
    """GMP arithmetic via :mod:`gmpy2` (constructed only when importable)."""

    name = "gmpy2"

    def __init__(self) -> None:
        import gmpy2  # deferred: only resolve_backend("gmpy2") pays the import

        self._gmpy2 = gmpy2
        self._mpz = gmpy2.mpz

    def wrap(self, value: int) -> Any:
        return self._mpz(value)

    def powmod(self, base: Any, exponent: int, modulus: int) -> Any:
        return self._gmpy2.powmod(base, exponent, modulus)

    def invert(self, value: int, modulus: int) -> int:
        return int(self._gmpy2.invert(value, modulus))


def gmpy2_available() -> bool:
    """Whether the interpreter can import :mod:`gmpy2` at all."""
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> List[str]:
    """The backend names this interpreter can actually instantiate."""
    names = ["python"]
    if gmpy2_available():
        names.append("gmpy2")
    return names


def _build(name: str) -> CryptoBackend:
    if name == "python":
        return PythonBackend()
    if name == "gmpy2":
        try:
            return Gmpy2Backend()
        except ImportError:
            raise InvalidParameterError(
                "crypto backend 'gmpy2' requested but gmpy2 is not importable;"
                " install it or use REPRO_CRYPTO_BACKEND=python"
            ) from None
    raise InvalidParameterError(
        f"unknown crypto backend {name!r}; known: {sorted(BACKEND_CHOICES)}"
    )


def resolve_backend(name: Optional[str] = None) -> CryptoBackend:
    """Normalize a backend choice (explicit, env, or auto) to an instance.

    ``None`` takes the current run context's choice; ``"auto"`` picks
    gmpy2 when importable and python otherwise — auto-detection is safe
    because the backends are bit-identical by contract.
    """
    if name is None:
        from ..context import current  # deferred: repro.context imports this module

        name = current().crypto_backend
    name = str(name).strip().lower() or "auto"
    if name == "auto":
        name = "gmpy2" if gmpy2_available() else "python"
    return _build(name)


#: The process-global active backend, resolved lazily on first use;
#: :func:`repro.context.use` swaps it for a context with another backend.
_ACTIVE: Optional[CryptoBackend] = None


def active() -> CryptoBackend:
    """The backend every kernel call in this process routes through."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = resolve_backend()
    return _ACTIVE


@contextmanager
def using(name: str) -> Iterator[CryptoBackend]:
    """Scope with a specific backend active (A/B benchmarks, tests)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = resolve_backend(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous

