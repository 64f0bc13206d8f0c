"""Modular exponentiation on OpenSSL's constant-time Montgomery kernel.

CPython's three-argument ``pow`` is 8-11x slower than OpenSSL's Montgomery
code at RSA sizes, and RSA private-key operations dominate the cost of
sanitizing a package.  :func:`powmod` hands the exponentiation to
``BN_mod_exp_mont_consttime`` in the libcrypto that CPython's ``hashlib``
already links, so no package is added.  It returns exactly what
``pow(base, exponent, modulus)`` returns; built-in ``pow`` handles what the
kernel does not (even moduli, moduli below 3, negative exponents) and
platforms where the BN symbols do not resolve.

The exponents passed here are private (CRT exponents, Miller-Rabin odd
parts of secret prime candidates), so every BIGNUM is released with
``BN_clear_free``.  Each call allocates and frees its own BIGNUMs and
``BN_CTX``; the module keeps no mutable native state.
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

#: The kernel :func:`powmod` runs on, for diagnostics: ``"openssl"`` when
#: the BN symbols resolved, ``"python"`` (built-in ``pow``) otherwise.
BACKEND = "openssl" if _LIB is not None else "python"


def _to_bn(value: int) -> int:
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    bn = _LIB.BN_bin2bn(raw, len(raw), None)
    if not bn:
        raise MemoryError("BN_bin2bn failed")
    return bn


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``, on OpenSSL where it applies."""
    if _LIB is None or modulus < 3 or not modulus & 1 or exponent < 0:
        return pow(base, exponent, modulus)
    size = (modulus.bit_length() + 7) // 8
    ctx = result = a = p = m = None
    try:
        ctx = _LIB.BN_CTX_new()
        result = _LIB.BN_new()
        if not ctx or not result:
            raise MemoryError("BN_CTX_new/BN_new failed")
        a = _to_bn(base % modulus)
        p = _to_bn(exponent)
        m = _to_bn(modulus)
        if not _LIB.BN_mod_exp_mont_consttime(result, a, p, m, ctx, None):
            raise ArithmeticError("BN_mod_exp_mont_consttime failed")
        out = ctypes.create_string_buffer(size)
        if _LIB.BN_bn2binpad(result, out, size) != size:
            raise ArithmeticError("BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")
    finally:
        for bn in (result, a, p, m):
            _LIB.BN_clear_free(bn)  # NULL-safe, like BN_CTX_free
        _LIB.BN_CTX_free(ctx)
