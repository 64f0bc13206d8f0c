"""Modular exponentiation on OpenSSL's Montgomery kernels.

CPython's three-argument ``pow`` is about 10x slower than OpenSSL's
Montgomery code on an RSA private-key half and 2-5x slower on the public
exponent 65537, and RSA operations dominate the cost of sanitizing a
package.  This module hands exponentiations to the libcrypto that
CPython's ``hashlib`` already links, so no package is added.  It has three
entry points, and each returns exactly what built-in ``pow`` returns:

* :func:`powmod` runs ``BN_mod_exp_mont_consttime``.  It is constant-time,
  so it may receive secrets (Miller-Rabin odd parts of secret prime
  candidates).
* :func:`powmod2` computes both CRT halves of an RSA private-key operation
  in one ``BN_mod_exp_mont_consttime_x2`` call, which OpenSSL runs as a
  single AVX-512 IFMA pass when both halves are 1024-bit and as two
  constant-time exponentiations otherwise.  It may receive secrets.  The
  symbol is optional: it exists only in OpenSSL >= 3.0, and without it the
  pair is two :func:`powmod` calls.
* :func:`powmod_public` runs ``BN_mod_exp_mont``, which is variable-time:
  its running time depends on the exponent, so it must only ever receive
  public exponents (RSA verification).

Built-in ``pow`` handles what the kernels do not (even moduli, moduli
below 3, negative exponents) and platforms where the BN symbols do not
resolve.  Every BIGNUM is released with ``BN_clear_free``, because the
exponents may be private.  Each call allocates and frees its own BIGNUMs
and ``BN_CTX``; the module keeps no mutable native state.
"""

from __future__ import annotations

import ctypes


def _load_libcrypto():
    """Declare the BN functions of hashlib's libcrypto, or return None."""
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        bn_p = ctypes.c_void_p
        signatures = {
            "BN_CTX_new": ([], bn_p),
            "BN_CTX_free": ([bn_p], None),
            "BN_bin2bn": ([ctypes.c_char_p, ctypes.c_int, bn_p], bn_p),
            "BN_bn2binpad": ([bn_p, ctypes.c_char_p, ctypes.c_int],
                             ctypes.c_int),
            "BN_new": ([], bn_p),
            "BN_clear_free": ([bn_p], None),
            "BN_mod_exp_mont": ([bn_p] * 6, ctypes.c_int),
            "BN_mod_exp_mont_consttime": ([bn_p] * 6, ctypes.c_int),
        }
        for name, (argtypes, restype) in signatures.items():
            function = getattr(lib, name)
            function.argtypes = argtypes
            function.restype = restype
    except (ImportError, OSError, AttributeError):
        return None
    return lib


_LIB = _load_libcrypto()
try:  # optional: OpenSSL >= 3.0 only
    _EXP_X2 = _LIB.BN_mod_exp_mont_consttime_x2
    _EXP_X2.argtypes = [ctypes.c_void_p] * 11
    _EXP_X2.restype = ctypes.c_int
except AttributeError:  # no such symbol, or no libcrypto at all
    _EXP_X2 = None

#: The kernel the exponentiations run on, for diagnostics: ``"openssl"``
#: when the BN symbols resolved (with or without the optional x2 call),
#: ``"python"`` (built-in ``pow``) otherwise.
BACKEND = "openssl" if _LIB is not None else "python"


def _on_kernel(exponent: int, modulus: int) -> bool:
    """Whether the Montgomery kernels take this exponent and modulus."""
    return modulus >= 3 and modulus & 1 == 1 and exponent >= 0


def _new_bn(owned: list, value: int | None = None) -> int:
    """A BIGNUM holding ``value`` (a fresh zero when None), recorded in
    ``owned`` so the caller's ``finally`` clears and frees it."""
    if value is None:
        bn = _LIB.BN_new()
    else:
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        bn = _LIB.BN_bin2bn(raw, len(raw), None)
    if not bn:
        raise MemoryError("BN_new/BN_bin2bn failed")
    owned.append(bn)
    return bn


def _to_int(bn: int, modulus: int) -> int:
    size = (modulus.bit_length() + 7) // 8
    out = ctypes.create_string_buffer(size)
    if _LIB.BN_bn2binpad(bn, out, size) != size:
        raise ArithmeticError("BN_bn2binpad failed")
    return int.from_bytes(out.raw, "big")


def _release(owned: list, ctx) -> None:
    for bn in owned:
        _LIB.BN_clear_free(bn)
    _LIB.BN_CTX_free(ctx)  # NULL-safe, like BN_clear_free


def _exp(kernel, base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent % modulus`` on a kernel with
    ``BN_mod_exp_mont``'s signature."""
    ctx, owned = None, []
    try:
        ctx = _LIB.BN_CTX_new()
        if not ctx:
            raise MemoryError("BN_CTX_new failed")
        result = _new_bn(owned)
        if not kernel(result, _new_bn(owned, base % modulus),
                      _new_bn(owned, exponent), _new_bn(owned, modulus),
                      ctx, None):
            raise ArithmeticError(f"{kernel.__name__} failed")
        return _to_int(result, modulus)
    finally:
        _release(owned, ctx)


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``, on OpenSSL's constant-time kernel
    where it applies."""
    if _LIB is None or not _on_kernel(exponent, modulus):
        return pow(base, exponent, modulus)
    return _exp(_LIB.BN_mod_exp_mont_consttime, base, exponent, modulus)


def powmod2(base: int, exponent1: int, modulus1: int,
            exponent2: int, modulus2: int) -> tuple[int, int]:
    """``(pow(base, exponent1, modulus1), pow(base, exponent2, modulus2))``
    from one constant-time ``BN_mod_exp_mont_consttime_x2`` call.

    Both halves of an RSA-CRT signature share the base, so the pair takes
    one.  Where the x2 symbol is missing, or either slot needs ``pow``'s
    fallback, each slot goes through :func:`powmod` instead.
    """
    if (_LIB is None or _EXP_X2 is None
            or not _on_kernel(exponent1, modulus1)
            or not _on_kernel(exponent2, modulus2)):
        return (powmod(base, exponent1, modulus1),
                powmod(base, exponent2, modulus2))
    ctx, owned = None, []
    try:
        ctx = _LIB.BN_CTX_new()
        if not ctx:
            raise MemoryError("BN_CTX_new failed")
        result1, result2 = _new_bn(owned), _new_bn(owned)
        if not _EXP_X2(
                result1, _new_bn(owned, base % modulus1),
                _new_bn(owned, exponent1), _new_bn(owned, modulus1), None,
                result2, _new_bn(owned, base % modulus2),
                _new_bn(owned, exponent2), _new_bn(owned, modulus2), None,
                ctx):
            raise ArithmeticError("BN_mod_exp_mont_consttime_x2 failed")
        return _to_int(result1, modulus1), _to_int(result2, modulus2)
    finally:
        _release(owned, ctx)


def powmod_public(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` on OpenSSL's variable-time
    ``BN_mod_exp_mont`` where it applies.

    Its running time depends on the exponent's bits, so it takes public
    exponents only: RSA verification's ``e``.  Never pass a private
    exponent here; :func:`powmod` and :func:`powmod2` are the
    constant-time entry points.
    """
    if _LIB is None or not _on_kernel(exponent, modulus):
        return pow(base, exponent, modulus)
    return _exp(_LIB.BN_mod_exp_mont, base, exponent, modulus)
