"""The arithmetic kernels behind :mod:`repro.fastpath`.

Every kernel is an *exact integer identity* with the naive code path it
replaces — no approximation, no probabilistic shortcut — so enabling the
fastpath can never change a computed value:

* **windowed fixed-base exponentiation** (:func:`pow_mod`): for a base
  ``b`` that keeps recurring (the group generator, the Pedersen ``h``),
  precompute ``b ** (d << (w * i)) mod p`` for every window position
  ``i`` and digit ``d``; then ``b ** e`` is a product of one table entry
  per nonzero base-``2**w`` digit of ``e``.  The identity
  ``b**x * b**y == b**(x+y) (mod p)`` holds for *any* integer ``b``, so
  the table path equals ``pow(b, e, p)`` unconditionally.
* **simultaneous multi-exponentiation** (:func:`multi_pow`): Shamir's
  trick — one shared square-and-multiply ladder over all bases, with
  precomputed subset products when the base count is small.  Again exact
  for arbitrary bases and exponents.
* **Horner's rule in the exponent** (:func:`vss_expected`): the VSS
  share check needs ``prod_j c_j ** (x**j mod q)``.  When ``x**t < q``
  the reductions are the identity and the product telescopes to
  ``(((c_t)**x * c_{t-1})**x ... )**x * c_0`` — ``t`` *tiny*-exponent
  pows instead of ``t+1`` full-width ones.  When ``x**t`` might reach
  ``q`` (or a base might lie outside the order-``q`` subgroup, where
  reduction is no longer harmless) the kernel falls back to
  :func:`multi_pow` over the explicitly reduced exponents, which mirrors
  the naive loop digit for digit.

Cache policy: tables are built per ``(p, base)`` after a base has been
seen :data:`PROMOTION_THRESHOLD` times (or eagerly via
:func:`ensure_table`, used by the pool-worker warm start), capped at
:data:`MAX_TABLES` per process.  Caches never need invalidation — a
``(p, base)`` pair fully determines the table contents.

Telemetry lives in a dedicated process-local registry (``STATS``, a
:class:`repro.obs.Metrics`): cache hit rates depend on process topology
(a pool worker's caches are colder than the coordinator's), so recording
them into the ambient deterministic registry would break the
serial-vs-parallel artifact equality that CI gates on.

Backend seam: every primitive routes through the process-global
:mod:`repro.crypto.backend` (pure-python reference by default, gmpy2
when available).  Table entries and ladder accumulators are held in the
backend's native big-int type; every kernel unwraps to ``int`` at its
return boundary, so the two backends are observationally identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..crypto import backend as _backend
from ..obs import Metrics

#: Process-local fastpath telemetry (fastpath.* counters).  Deliberately
#: separate from :data:`repro.obs.runtime.metrics` — see module docstring.
STATS = Metrics()

#: Window width in bits for fixed-base tables (measured best at 4--64 bit
#: exponents on CPython: ~3-5x over built-in ``pow``).
WINDOW = 6

#: Build a fixed-base table once a base has been exponentiated this often.
PROMOTION_THRESHOLD = 3

#: Hard cap on resident fixed-base tables (a 48-bit table is ~500 ints).
MAX_TABLES = 128

#: Hard cap on memoized Lagrange coefficient sets.
MAX_LAGRANGE_SETS = 4096

_TABLES: Dict[Tuple[int, int], List[List[int]]] = {}
_USE_COUNTS: Dict[Tuple[int, int], int] = {}
_LAGRANGE: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}


def clear_caches() -> None:
    """Drop every per-process cache (tables, use counts, Lagrange sets)."""
    _TABLES.clear()
    _USE_COUNTS.clear()
    _LAGRANGE.clear()


def cache_sizes() -> Dict[str, int]:
    return {
        "tables": len(_TABLES),
        "use_counts": len(_USE_COUNTS),
        "lagrange_sets": len(_LAGRANGE),
    }


# -- fixed-base windowed exponentiation ---------------------------------------------


def _build_table(p: int, base: int, exponent_bits: int) -> List[List[Any]]:
    """Rows of ``base ** (d << (WINDOW * i)) mod p`` for all digits d.

    Entries are backend-native (``int`` or ``mpz``) so the hot ladder in
    :func:`pow_mod` multiplies in the backend's arithmetic throughout.
    """
    size = 1 << WINDOW
    digits = (exponent_bits + WINDOW - 1) // WINDOW
    table: List[List[Any]] = []
    wrap = _backend.active().wrap
    one = wrap(1)
    b = wrap(base % p)
    for _ in range(digits):
        row = [one] * size
        acc = one
        for d in range(1, size):
            acc = acc * b % p
            row[d] = acc
        table.append(row)
        b = row[size - 1] * b % p  # b ** (2 ** WINDOW)
    return table


def ensure_table(p: int, q: int, base: int) -> None:
    """Eagerly build the fixed-base table for ``(p, base)`` (warm start)."""
    key = (p, base % p)
    if key not in _TABLES and len(_TABLES) < MAX_TABLES:
        _TABLES[key] = _build_table(p, key[1], q.bit_length())
        STATS.inc("fastpath.table.builds")


def cached_table_keys() -> List[Tuple[int, int]]:
    """The ``(p, base)`` pairs with resident tables (for warm-state export)."""
    return list(_TABLES)


def pow_mod(p: int, q: int, base: int, exponent: int) -> int:
    """``pow(base, exponent, p)`` through the fixed-base table cache.

    ``exponent`` must already be normalized to ``[0, q)`` by the caller
    (:meth:`repro.crypto.group.SchnorrGroup.normalize_exponent`).
    """
    key = (p, base)
    table = _TABLES.get(key)
    if table is None:
        STATS.inc("fastpath.pow.table_misses")
        count = _USE_COUNTS.get(key, 0) + 1
        if count >= PROMOTION_THRESHOLD and len(_TABLES) < MAX_TABLES:
            _USE_COUNTS.pop(key, None)
            table = _TABLES[key] = _build_table(p, base, q.bit_length())
            STATS.inc("fastpath.table.builds")
        else:
            if len(_USE_COUNTS) > 4 * MAX_TABLES:
                _USE_COUNTS.clear()
            _USE_COUNTS[key] = count
            return int(_backend.active().powmod(base, exponent, p))
    else:
        STATS.inc("fastpath.pow.table_hits")
    acc = 1
    mask = (1 << WINDOW) - 1
    i = 0
    while exponent:
        digit = exponent & mask
        if digit:
            acc = acc * table[i][digit] % p
        exponent >>= WINDOW
        i += 1
    return int(acc)


# -- simultaneous multi-exponentiation (Shamir's trick) -----------------------------

#: Subset-product precomputation is worthwhile only for a handful of bases
#: (the table has ``2**k - 1`` entries).
_MAX_SUBSET_BASES = 4

#: Digit-window width for the many-base bucket multi-exp.  4 bits is the
#: measured sweet spot for 64-point batches at simulation-grade moduli:
#: wider windows pay quadratically more bucket-aggregation
#: multiplications, narrower ones pay more windows of digit bookkeeping.
_BUCKET_WINDOW = 4


def _bucket_multi_pow(p: int, pairs: Sequence[Tuple[int, int]], wrap) -> int:
    """Yao's bucket method over ``pairs`` of ``(base, exponent)``.

    For each :data:`_BUCKET_WINDOW`-bit digit window (most significant
    first) every base is multiplied into the bucket named by its digit;
    the window's contribution ``prod_d bucket[d]**d`` falls out of a
    running suffix product, and successive windows are glued with
    ``_BUCKET_WINDOW`` squarings.
    """
    width = _BUCKET_WINDOW
    digit_mask = (1 << width) - 1
    top = ((max(e.bit_length() for _, e in pairs) - 1) // width) * width
    one = wrap(1)
    acc = one
    for shift in range(top, -width, -width):
        if shift != top:
            for _ in range(width):
                acc = acc * acc % p
        buckets = [one] * (digit_mask + 1)
        for base, exponent in pairs:
            digit = (exponent >> shift) & digit_mask
            if digit:
                buckets[digit] = buckets[digit] * base % p
        suffix = one
        window = one
        for digit in range(digit_mask, 0, -1):
            suffix = suffix * buckets[digit] % p
            window = window * suffix % p
        acc = acc * window % p
    return int(acc)


def multi_pow(p: int, bases: Sequence[int], exponents: Sequence[int]) -> int:
    """``prod_i bases[i] ** exponents[i] mod p`` — exactly, two strategies.

    Exact for arbitrary integer bases and non-negative exponents.  Up to
    :data:`_MAX_SUBSET_BASES` bases use Shamir's trick: one subset-product
    table and a single shared square-and-multiply ladder.  Larger batches
    (the RLC batch-verification path: many bases, short combiner
    exponents) use Yao's bucket method with :data:`_BUCKET_WINDOW`-bit
    digit windows — per window every base lands in one digit bucket (one
    multiplication), the 15 buckets aggregate with a running suffix
    product, and only the window boundaries pay squarings.  The digit
    bookkeeping is O(bases · windows) interpreter operations, an order
    less than any per-bit shared ladder over the same batch.
    """
    if len(bases) != len(exponents):
        raise ValueError("bases and exponents must have equal length")
    STATS.inc("fastpath.multiexp.calls")
    backend = _backend.active()
    pairs = [(b % p, e) for b, e in zip(bases, exponents, strict=True) if e > 0]
    if not pairs:
        return 1 % p
    wrap = backend.wrap
    if len(pairs) > _MAX_SUBSET_BASES:
        return _bucket_multi_pow(p, pairs, wrap)
    k = len(pairs)
    # Product of every base subset; each ladder step then costs at most
    # one multiplication on top of the shared squaring.
    products: List[Any] = [1] * (1 << k)
    for i, (b, _) in enumerate(pairs):
        bit = 1 << i
        wrapped = wrap(b)
        for mask in range(bit):
            products[bit | mask] = products[mask] * wrapped % p
    exps = [e for _, e in pairs]
    acc = wrap(1)
    for bit in range(max(e.bit_length() for e in exps) - 1, -1, -1):
        acc = acc * acc % p
        mask = 0
        for i, e in enumerate(exps):
            if (e >> bit) & 1:
                mask |= 1 << i
        if mask:
            acc = acc * products[mask] % p
    return int(acc)


# -- VSS share-check product --------------------------------------------------------


def vss_expected(p: int, q: int, commitment_values: Sequence[int], x: int) -> int:
    """``prod_j commitment_values[j] ** (x**j mod q) mod p`` — exactly.

    Mirrors the naive ``expected * commitment ** x_power`` loop of
    :mod:`repro.crypto.vss` for every input, including commitment values
    an adversary injects from outside the order-``q`` subgroup (where the
    ``mod q`` reduction of the exponent is *not* harmless and Horner's
    rule would diverge — those take the reduced-exponent ladder instead).
    """
    values = [c % p for c in commitment_values]
    if not values:
        return 1 % p
    degree = len(values) - 1
    if degree == 0:
        return values[0]
    x = int(x)
    if 0 <= x and x.bit_length() * degree < q.bit_length():
        # x**degree < q, so every naive exponent x**j mod q == x**j and the
        # product telescopes via Horner's rule in the exponent.
        STATS.inc("fastpath.vss.horner")
        backend = _backend.active()
        acc = backend.wrap(values[degree])
        for value in reversed(values[:degree]):
            acc = backend.powmod(acc, x, p) * value % p
        return int(acc)
    STATS.inc("fastpath.vss.ladder")
    exponents = []
    x_power = 1
    for _ in values:
        exponents.append(x_power)
        x_power = x_power * x % q
    return multi_pow(p, values, exponents)


# -- Pedersen commitment kernel -----------------------------------------------------


def pedersen_commit(p: int, q: int, g: int, h: int, value: int, randomness: int) -> int:
    """``g**value * h**randomness mod p`` via the fixed-base tables.

    Callers pass exponents already reduced to ``[0, q)``; ``g`` and ``h``
    are hot bases (every commit/verify reuses them), so both promote to
    tables almost immediately.
    """
    return pow_mod(p, q, g, value) * pow_mod(p, q, h, randomness) % p


# -- memoized Lagrange coefficient sets ---------------------------------------------


def lagrange_cache_get(modulus: int, xs: Tuple[int, ...]):
    """The cached coefficient tuple for evaluation points ``xs``, or None."""
    entry = _LAGRANGE.get((modulus, xs))
    if entry is None:
        STATS.inc("fastpath.lagrange.misses")
    else:
        STATS.inc("fastpath.lagrange.hits")
    return entry


def lagrange_cache_put(modulus: int, xs: Tuple[int, ...], coefficients: Tuple[int, ...]) -> None:
    if len(_LAGRANGE) >= MAX_LAGRANGE_SETS:
        _LAGRANGE.clear()
    _LAGRANGE[(modulus, xs)] = coefficients
