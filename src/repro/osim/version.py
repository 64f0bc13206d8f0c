"""Alpine-style package version parsing and comparison.

Versions look like ``1.2.3-r4``: a dotted numeric core plus a package
release number.  Comparison is numeric segment-by-segment, with shorter
cores padded with zeros (``1.2 < 1.2.1``, ``1.2 == 1.2.0``) and the
release number as tiebreaker.  Parsing drops trailing zero segments, so
the padding rule is plain tuple order, consistent with ``==`` and
``hash``.
"""

from __future__ import annotations

import re
from functools import total_ordering

from repro.util.errors import PackageManagerError

_VERSION_RE = re.compile(r"^(\d+(?:\.\d+)*)([a-z])?(?:-r(\d+))?$")


@total_ordering
class Version:
    """A parsed package version, ordered like apk orders them."""

    def __init__(self, text: str):
        match = _VERSION_RE.match(text.strip())
        if match is None:
            raise PackageManagerError(f"unparseable version: {text!r}")
        core, letter, release = match.groups()
        self.text = text.strip()
        parts = [int(part) for part in core.split(".")]
        while parts and parts[-1] == 0:
            parts.pop()
        self._core = tuple(parts)
        self._letter = letter or ""
        self._release = int(release) if release is not None else 0

    def _key(self) -> tuple:
        return (self._core, self._letter, self._release)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other) -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Version({self.text!r})"


def is_newer(candidate: str, installed: str) -> bool:
    """True if ``candidate`` is strictly newer than ``installed``."""
    return Version(candidate) > Version(installed)
