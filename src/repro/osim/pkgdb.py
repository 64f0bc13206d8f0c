"""The installed-package database.

Alpine keeps it as a plain file (``/lib/apk/db/installed``); the paper's
Fig. 11 experiment *tampers* with this file (rewriting version numbers and
hashes) to make installed packages look outdated, so the database here is
likewise a text file inside the simulated filesystem rather than opaque
Python state.

The format follows Alpine's: one record per package, records separated
by a blank line, one ``key:value`` line per field — ``P:`` name, ``V:``
version, ``C:`` content hash — and one ``R:<path>`` line per installed
file.  Lines end at ``"\\n"`` only, so no other character in a path can
split a record; a value containing ``"\\n"`` cannot be stored, and the
package manager refuses a package with such a file path before
installing it.

Every operation reads the file through :meth:`SimFileSystem.read_file`
(so open hooks fire and a raw rewrite is seen), but parses it only when
the read returns a different object than the one parsed last.  The
filesystem stores every write as a fresh immutable ``bytes`` object, so
the same object always holds the same text; :meth:`_store` primes the
parse with the bytes it has just written.  Each write joins the records'
texts, and a record formats its text once, on the first write that
holds it, so installing n packages formats n records, not n(n+1)/2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.osim.fs import SimFileSystem
from repro.util.errors import PackageManagerError

DB_PATH = "/lib/apk/db/installed"


@dataclass(frozen=True)
class InstalledPackage:
    """One installed package record."""

    name: str
    version: str
    content_hash: str
    files: tuple[str, ...]

    @functools.cached_property
    def record(self) -> str:
        """This package's block of the database file, formatted once."""
        return _format_record(self)


def _format_record(package: InstalledPackage) -> str:
    lines = [f"P:{package.name}", f"V:{package.version}",
             f"C:{package.content_hash}"]
    lines.extend(f"R:{path}" for path in package.files)
    return "\n".join(lines)


class PackageDatabase:
    """File-backed database of installed packages."""

    def __init__(self, fs: SimFileSystem, path: str = DB_PATH):
        self._fs = fs
        self._path = path
        #: The ``bytes`` object last parsed, and the records it holds
        #: (shared with no caller: mutators copy, readers return fresh
        #: containers of the frozen records).
        self._parsed_from: bytes | None = None
        self._records: dict[str, InstalledPackage] = {}
        if not fs.exists(path):
            fs.write_file(path, b"")

    # -- persistence -----------------------------------------------------------

    @staticmethod
    def _parse(raw: bytes) -> dict[str, InstalledPackage]:
        packages: dict[str, InstalledPackage] = {}
        for block in raw.decode().split("\n\n"):
            if not block.strip():
                continue
            fields: dict[str, str] = {}
            files: list[str] = []
            for line in block.split("\n"):
                key, _, value = line.partition(":")
                if key == "R":
                    files.append(value)
                else:
                    fields[key] = value
            try:
                package = InstalledPackage(
                    name=fields["P"],
                    version=fields["V"],
                    content_hash=fields["C"],
                    files=tuple(files),
                )
            except KeyError as exc:
                raise PackageManagerError(
                    f"corrupt package database block: missing {exc}"
                ) from exc
            packages[package.name] = package
        return packages

    def _load(self) -> dict[str, InstalledPackage]:
        """The current records; read-only to callers."""
        raw = self._fs.read_file(self._path)
        if raw is not self._parsed_from:
            records = self._parse(raw)
            self._parsed_from = raw if type(raw) is bytes else None
            self._records = records
        return self._records

    def _store(self, packages: dict[str, InstalledPackage]):
        raw = "\n\n".join(packages[name].record
                           for name in sorted(packages)).encode()
        self._fs.write_file(self._path, raw)
        self._parsed_from = raw
        self._records = packages

    # -- operations ---------------------------------------------------------------

    def add(self, package: InstalledPackage):
        packages = dict(self._load())
        packages[package.name] = package
        self._store(packages)

    def remove(self, name: str):
        packages = dict(self._load())
        if name not in packages:
            raise PackageManagerError(f"package not installed: {name}")
        del packages[name]
        self._store(packages)

    def get(self, name: str) -> InstalledPackage | None:
        return self._load().get(name)

    def all(self) -> list[InstalledPackage]:
        return sorted(self._load().values(), key=lambda p: p.name)

    def installed_names(self) -> set[str]:
        return set(self._load())

    def mark_outdated(self, name: str, fake_version: str = "0.0.0-r0"):
        """Tamper helper used by the Fig. 11 experiment: rewrite the version
        and hash so the package manager believes an update is pending."""
        packages = dict(self._load())
        if name not in packages:
            raise PackageManagerError(f"package not installed: {name}")
        current = packages[name]
        packages[name] = InstalledPackage(
            name=current.name,
            version=fake_version,
            content_hash="0" * 64,
            files=current.files,
        )
        self._store(packages)
