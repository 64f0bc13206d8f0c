"""The tar reader against the field-by-field reader it replaced.

:func:`repro.archive.tar.read_tar` unpacks each header in one ``struct``
call and sums its checksum with two ``zlib.adler32`` halves;
:func:`reference_read_tar` slices every field and sums the header byte
by byte.  Over archives from :func:`write_tar` and single-field
mutations of them, the two must return equal entries or raise the same
:class:`PackagingError` with the same message, and nothing else may
escape either.  The example budget follows the active ``hypothesis``
profile (``--hypothesis-profile=deep`` in CI's codec fuzzing step).
"""

import io
import tarfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive.tar import (
    BLOCK_SIZE,
    TYPE_DIRECTORY,
    TYPE_REGULAR,
    TYPE_SYMLINK,
    TarEntry,
    read_tar,
    write_tar,
)
from repro.util.errors import ReproError
from reference_archive import reference_read_tar

#: (offset, width) of every numeric header field.
_OCTAL_FIELDS = {
    "mode": (100, 8),
    "uid": (108, 8),
    "gid": (116, 8),
    "size": (124, 12),
    "mtime": (136, 12),
    "checksum": (148, 8),
}
#: (offset, width) of every string header field.
_STRING_FIELDS = {
    "name": (0, 100),
    "linkname": (157, 100),
    "uname": (265, 32),
    "gname": (297, 32),
}
#: Where the header bytes no reader reads begin (devmajor onwards).
_UNREAD = 329
_NUMERIC_BYTES = b"01234567 89\x00-+_xa\t"

_names = st.text(
    st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789/._-é"),
    min_size=1, max_size=40)
_pax_keys = st.text(st.characters(min_codepoint=33, max_codepoint=126),
                    min_size=1, max_size=20).filter(lambda s: "=" not in s)


@st.composite
def _entries(draw):
    kind = draw(st.sampled_from((TYPE_REGULAR, TYPE_REGULAR,
                                 TYPE_DIRECTORY, TYPE_SYMLINK)))
    return TarEntry(
        name=draw(_names),
        data=draw(st.binary(max_size=1300)) if kind == TYPE_REGULAR else b"",
        mode=draw(st.integers(0, 0o7777)),
        uid=draw(st.integers(0, 0o7777777)),
        gid=draw(st.integers(0, 0o7777777)),
        mtime=draw(st.integers(0, 0o77777777777)),
        typeflag=kind,
        linkname=draw(_names) if kind == TYPE_SYMLINK else "",
        uname=draw(st.sampled_from(("root", "op", "café"))),
        gname=draw(st.sampled_from(("root", "wheel"))),
        pax_headers=draw(st.dictionaries(_pax_keys, st.binary(max_size=80),
                                         max_size=3)),
    )


def _headers(blob: bytes) -> list[tuple[int, bool]]:
    """(offset, is a PAX header) of every header :func:`write_tar` wrote."""
    headers = []
    offset = 0
    while blob[offset:offset + BLOCK_SIZE] != bytes(BLOCK_SIZE):
        size = int(blob[offset + 124:offset + 135], 8)
        headers.append((offset, blob[offset + 156:offset + 157] == b"x"))
        offset += BLOCK_SIZE + -(-size // BLOCK_SIZE) * BLOCK_SIZE
    return headers


def _reseal(archive: bytearray, offset: int) -> None:
    """Rewrite one header's checksum to match its current bytes."""
    archive[offset + 148:offset + 156] = b" " * 8
    total = sum(archive[offset:offset + BLOCK_SIZE])
    archive[offset + 148:offset + 156] = b"%06o\x00 " % total


def _mutate(draw, blob: bytes) -> bytes:
    """One single-field mutation of ``blob`` (or none)."""
    kind = draw(st.sampled_from((
        "none", "magic", "checksum", "octal", "size", "truncate",
        "pax_length", "pax_newline", "utf8", "heavy")))
    archive = bytearray(blob)
    headers = _headers(blob)
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "none" or not headers:
        return blob
    offset, _ = draw(st.sampled_from(headers))
    if kind == "magic":
        archive[offset + 257:offset + 265] = draw(st.binary(min_size=8,
                                                            max_size=8))
    elif kind == "checksum":
        archive[offset + 148:offset + 156] = draw(st.one_of(
            st.binary(min_size=8, max_size=8),
            st.lists(st.sampled_from(_NUMERIC_BYTES), min_size=8,
                     max_size=8).map(bytes)))
    elif kind == "octal":
        field = draw(st.sampled_from(sorted(set(_OCTAL_FIELDS)
                                            - {"checksum"})))
        start, width = _OCTAL_FIELDS[field]
        archive[offset + start:offset + start + width] = bytes(draw(
            st.lists(st.sampled_from(_NUMERIC_BYTES), min_size=width,
                     max_size=width)))
        if draw(st.booleans()):
            _reseal(archive, offset)
    elif kind == "size":
        start, width = _OCTAL_FIELDS["size"]
        size = draw(st.integers(0, len(blob) + 2 * BLOCK_SIZE))
        archive[offset + start:offset + start + width] = b"%011o\x00" % size
        _reseal(archive, offset)
    elif kind == "heavy":
        # A header whose bytes sum past Adler-32's modulus (65,521): DEL
        # in every string field and 0xFF in the bytes no reader reads.
        for start, width in _STRING_FIELDS.values():
            archive[offset + start:offset + start + width] = b"\x7f" * width
        archive[offset + _UNREAD:offset + BLOCK_SIZE] = \
            b"\xff" * (BLOCK_SIZE - _UNREAD)
        _reseal(archive, offset)
    elif kind == "utf8":
        field = draw(st.sampled_from(sorted(_STRING_FIELDS)))
        start, width = _STRING_FIELDS[field]
        at = draw(st.integers(0, 8))
        bad = draw(st.sampled_from((b"\xff", b"\xc3", b"\xe9t", b"\xed\xa0\x80")))
        archive[offset + start + at:offset + start + at + len(bad)] = bad
        _reseal(archive, offset)
    else:
        pax = [at for at, is_pax in headers if is_pax]
        if not pax:
            return blob
        body = draw(st.sampled_from(pax)) + BLOCK_SIZE
        if kind == "pax_length":
            archive[body] = draw(st.sampled_from(b"0123456789 x\x00"))
        else:
            size = int(blob[body - BLOCK_SIZE + 124:body - BLOCK_SIZE + 135], 8)
            newline = blob.rfind(b"\n", body, body + size)
            archive[newline] = draw(st.sampled_from(b"x \x00"))
    return bytes(archive)


def _verdict(reader, blob: bytes):
    """The entries ``reader`` returns, or the error it raises."""
    try:
        return reader(blob)
    except ReproError as exc:
        return type(exc), str(exc)


@given(st.data())
@settings(deadline=None)
def test_reader_matches_reference_on_mutated_archives(data):
    blob = write_tar(data.draw(st.lists(_entries(), max_size=4)))
    mutated = _mutate(data.draw, blob)
    assert _verdict(read_tar, mutated) == \
        _verdict(reference_read_tar, mutated)


@given(st.binary(max_size=3 * BLOCK_SIZE))
@settings(deadline=None)
def test_reader_matches_reference_on_arbitrary_bytes(blob):
    assert _verdict(read_tar, blob) == _verdict(reference_read_tar, blob)


@pytest.mark.parametrize("fmt", [tarfile.USTAR_FORMAT, tarfile.GNU_FORMAT,
                                 tarfile.PAX_FORMAT])
def test_reader_matches_reference_on_stdlib_archives(fmt):
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w", format=fmt) as tf:
        for name, payload in (("etc/motd", b"hello"), ("bin/sh", b"#!")):
            info = tarfile.TarInfo(name)
            info.size = len(payload)
            tf.addfile(info, io.BytesIO(payload))
        tf.addfile(_directory("usr/"))
    blob = buffer.getvalue()
    assert _verdict(read_tar, blob) == _verdict(reference_read_tar, blob)


def _directory(name: str) -> tarfile.TarInfo:
    info = tarfile.TarInfo(name)
    info.type = tarfile.DIRTYPE
    info.mode = 0o755
    return info
