"""The segment-by-segment path normalizer: the oracle the fs tests use.

This is the loop :func:`repro.osim.fs.normalize` runs for every path it
cannot return unchanged: split on ``/``, drop empty and ``.`` segments,
let ``..`` pop the previous segment (never above the root), and rejoin.
The library returns an already-normal path as it is, without the loop;
a property test pins the two equal on generated paths.
"""

from __future__ import annotations

from repro.util.errors import FileSystemError


def reference_normalize(path: str) -> str:
    """Normalize to an absolute path with no trailing slash (except root)."""
    if not path.startswith("/"):
        raise FileSystemError(f"path must be absolute: {path!r}")
    parts: list[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)
