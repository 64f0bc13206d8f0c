"""Modular exponentiation on OpenSSL's Montgomery kernels.

CPython's three-argument ``pow`` is about 10x slower than OpenSSL's
Montgomery code on an RSA private-key half and 2-5x slower on the public
exponent 65537, and RSA operations dominate the cost of sanitizing a
package.  This module hands exponentiations to the libcrypto that
CPython's ``hashlib`` already links, so no package is added.  It has one
class, :class:`ModExp`, which holds one fixed exponent and modulus in
OpenSSL form for as long as the object lives: a BIGNUM for each and the
modulus's ``BN_MONT_CTX``, built once.  RSA keys keep theirs, and seeded
key generation builds one per prime candidate, so a signature, a
verification or a Miller-Rabin round is one kernel call on contexts set
up in advance, and two rounds of 1,024-bit candidates are one.  It has
three kernels, and each returns exactly what built-in ``pow`` returns:

- :meth:`ModExp.pair` runs two constant-time exponentiations, each on
  its own object and base, in one ``BN_mod_exp_mont_consttime_x2`` call,
  which OpenSSL runs as a single AVX-512 IFMA pass when both moduli are
  1024-bit and as two constant-time exponentiations otherwise: both CRT
  halves of a private-key operation (one base), or two Miller-Rabin
  rounds (a witness each).  It may receive secrets.  The symbol is
  optional: it exists only in OpenSSL >= 3.0, and without it the pair is
  two ``BN_mod_exp_mont_consttime`` calls on the same held contexts.
- :meth:`ModExp.private` runs one constant-time
  ``BN_mod_exp_mont_consttime`` call.  It may receive secrets: the
  Miller-Rabin odd parts of secret prime candidates.
- :meth:`ModExp.public` runs ``BN_mod_exp_mont``, which is
  variable-time: its running time depends on the exponent, so it must
  only ever hold public exponents (RSA verification).

There is no one-off function any more: the module-level exponentiation
that built and freed its contexts on every call lost its only caller when
the prime search began to hold a :class:`ModExp` per candidate, and was
deleted.

Built-in ``pow`` handles what the kernels do not (even moduli, moduli
below 3, negative exponents) and platforms where the BN symbols do not
resolve; a :class:`ModExp` then holds no native state at all.  Every
BIGNUM is released with ``BN_clear_free``, because exponents and moduli
may be private.

Native lifetime: what a call allocates (its bases, results and
``BN_CTX``) is cleared and freed before the call returns.  What a
:class:`ModExp` holds lives exactly as long as that object: a
``weakref.finalize`` on it clears both BIGNUMs and frees the Montgomery
context, whose ``BN_MONT_CTX_free`` clears its own copies of the
modulus.  Copies of a key share the object (``deepcopy`` returns it
unchanged) and pickling rebuilds it from (exponent, modulus), so no
native handle is ever duplicated.  Whether an object holds native state
is settled when it is built.
"""

from __future__ import annotations

import ctypes
import weakref


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
            "BN_MONT_CTX_new": ([], bn_p),
            "BN_MONT_CTX_set": ([bn_p] * 3, ctypes.c_int),
            "BN_MONT_CTX_free": ([bn_p], None),
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


def _new_ctx() -> int:
    ctx = _LIB.BN_CTX_new()
    if not ctx:
        raise MemoryError("BN_CTX_new failed")
    return ctx


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


def _free_held(lib, bns: list, mont) -> None:
    """A :class:`ModExp`'s finalizer.  It gets the library it was built
    with, so it never depends on module state at interpreter exit."""
    for bn in bns:
        lib.BN_clear_free(bn)
    lib.BN_MONT_CTX_free(mont)  # NULL-safe; clears its copy of the modulus


class ModExp:
    """``pow(base, exponent, modulus)`` for one fixed exponent and
    modulus, with both and the modulus's Montgomery context held in
    OpenSSL form for the object's lifetime (see the module docstring).
    """

    __slots__ = ("exponent", "modulus", "_handles", "__weakref__")

    def __init__(self, exponent: int, modulus: int):
        self.exponent = exponent
        self.modulus = modulus
        #: (exponent BIGNUM, modulus BIGNUM, BN_MONT_CTX), or None where
        #: the kernels do not apply and ``pow`` answers instead.
        self._handles = None
        if _LIB is None or not _on_kernel(exponent, modulus):
            return
        lib, owned, mont, ctx = _LIB, [], None, None
        try:
            exponent_bn = _new_bn(owned, exponent)
            modulus_bn = _new_bn(owned, modulus)
            mont = lib.BN_MONT_CTX_new()
            ctx = _new_ctx()
            if not mont or not lib.BN_MONT_CTX_set(mont, modulus_bn, ctx):
                raise MemoryError("BN_MONT_CTX_new/BN_MONT_CTX_set failed")
        except BaseException:
            _free_held(lib, owned, mont)
            raise
        finally:
            lib.BN_CTX_free(ctx)
        self._handles = (exponent_bn, modulus_bn, mont)
        weakref.finalize(self, _free_held, lib, owned, mont)

    def __reduce__(self):
        return type(self), (self.exponent, self.modulus)

    def __deepcopy__(self, memo) -> "ModExp":
        return self

    def _single(self, kernel: str, base: int) -> int:
        """The libcrypto function ``kernel`` (``BN_mod_exp_mont`` or its
        constant-time twin) on the held contexts, or ``pow`` where this
        object holds none."""
        if self._handles is None:
            return pow(base, self.exponent, self.modulus)
        exponent_bn, modulus_bn, mont = self._handles
        ctx, owned = None, []
        try:
            ctx = _new_ctx()
            result = _new_bn(owned)
            if not getattr(_LIB, kernel)(
                    result, _new_bn(owned, base % self.modulus),
                    exponent_bn, modulus_bn, ctx, mont):
                raise ArithmeticError(f"{kernel} failed")
            return _to_int(result, self.modulus)
        finally:
            _release(owned, ctx)

    def private(self, base: int) -> int:
        """``pow(base, exponent, modulus)`` on the constant-time
        ``BN_mod_exp_mont_consttime``.

        It may receive secrets: the prime search runs the full-size
        Miller-Rabin rounds it does not pair here, on a context held per
        candidate.
        """
        return self._single("BN_mod_exp_mont_consttime", base)

    def public(self, base: int) -> int:
        """``pow(base, exponent, modulus)`` on the variable-time
        ``BN_mod_exp_mont``.

        Its running time depends on the exponent's bits, so call it only
        on a public exponent: RSA verification's ``e``.  :meth:`private`
        and :meth:`pair` are the constant-time kernels for private
        exponents.
        """
        return self._single("BN_mod_exp_mont", base)

    def pair(self, base: int, other: "ModExp",
             other_base: int) -> tuple[int, int]:
        """``(pow(base, self.exponent, self.modulus),
        pow(other_base, other.exponent, other.modulus))`` in one
        constant-time ``BN_mod_exp_mont_consttime_x2`` call.

        Each slot takes its own base: both halves of an RSA-CRT signature
        pass the same one, and two Miller-Rabin rounds pass a witness
        each.  Without the x2 symbol each half is one
        ``BN_mod_exp_mont_consttime`` call; where either object holds no
        native state, each half is ``pow``'s.
        """
        if self._handles is None or other._handles is None:
            return (pow(base, self.exponent, self.modulus),
                    pow(other_base, other.exponent, other.modulus))
        (exponent1, modulus1, mont1) = self._handles
        (exponent2, modulus2, mont2) = other._handles
        ctx, owned = None, []
        try:
            ctx = _new_ctx()
            result1, result2 = _new_bn(owned), _new_bn(owned)
            base1 = _new_bn(owned, base % self.modulus)
            base2 = _new_bn(owned, other_base % other.modulus)
            if _EXP_X2 is not None:
                ok = _EXP_X2(result1, base1, exponent1, modulus1, mont1,
                             result2, base2, exponent2, modulus2, mont2, ctx)
            else:
                kernel = _LIB.BN_mod_exp_mont_consttime
                ok = (kernel(result1, base1, exponent1, modulus1, ctx, mont1)
                      and kernel(result2, base2, exponent2, modulus2, ctx,
                                 mont2))
            if not ok:
                raise ArithmeticError("constant-time CRT pair failed")
            return (_to_int(result1, self.modulus),
                    _to_int(result2, other.modulus))
        finally:
            _release(owned, ctx)
