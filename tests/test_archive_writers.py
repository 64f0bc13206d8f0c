"""The one-pass tar and gzip writers against the writers they replaced.

``tests/reference_archive.py`` keeps the field-by-field tar header
builder and the ``gzip.GzipFile`` compressor verbatim.  The library's
writers must give the same bytes for every input, or raise a
:class:`PackagingError` with the same text, because package blobs,
fingerprints and wire bytes are built from them.
"""

import gzip
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_archive import (
    reference_build_header,
    reference_gzip_compress,
    reference_write_tar,
)
from repro.archive.gz import gzip_compress
from repro.archive.tar import (
    TYPE_DIRECTORY,
    TYPE_PAX_HEADER,
    TYPE_REGULAR,
    TYPE_SYMLINK,
    TarEntry,
    _build_header,
    write_tar,
)
from repro.util.errors import PackagingError

OCTAL_8 = 8 ** 7  # the first value an 8-byte octal field cannot hold
OCTAL_12 = 8 ** 11

_ALPHABET = st.sampled_from("abz09._-/ éß€漢🙂")


def _text(max_bytes):
    """Strings around ``max_bytes`` UTF-8 bytes, some one byte over."""
    short = st.text(_ALPHABET, max_size=12)
    near = st.integers(max_bytes - 3, max_bytes + 1).flatmap(
        lambda size: st.text(st.sampled_from("ab"), min_size=size,
                             max_size=size))
    wide = st.text(_ALPHABET, min_size=max_bytes // 4 - 2,
                   max_size=max_bytes // 4 + 1)  # 4-byte characters
    return st.one_of(short, near, wide)


def _numbers(limit):
    """Numeric field values, about half of them in range."""
    return st.one_of(st.integers(0, limit - 1),
                     st.sampled_from([0, 1, limit - 1, limit, limit + 1, -1]))


def _in_range(limit):
    return st.integers(0, limit - 1)


def _entries(numbers):
    return st.builds(
        TarEntry,
        name=_text(100),
        data=st.binary(max_size=1100),
        mode=st.integers(-1, 0o177777),
        uid=numbers(OCTAL_8),
        gid=numbers(OCTAL_8),
        mtime=numbers(OCTAL_12),
        typeflag=st.sampled_from([TYPE_REGULAR, TYPE_SYMLINK,
                                  TYPE_DIRECTORY, TYPE_PAX_HEADER]),
        linkname=_text(100),
        uname=st.one_of(st.just("root"), _text(32)),
        gname=st.one_of(st.just("root"), _text(32)),
        pax_headers=st.dictionaries(
            st.sampled_from(["SCHILY.xattr.security.ima", "path", "k"]),
            st.binary(max_size=300), max_size=2),
    )


_any_entries = _entries(_numbers)
#: Entries whose numeric fields fit, so most tars are written whole.
_writable_entries = _entries(_in_range)


def _outcome(writer, *args):
    try:
        return writer(*args)
    except PackagingError as exc:
        return f"PackagingError: {exc}"


class TestTarHeaderMatchesTheFieldByFieldBuilder:
    @given(entry=_any_entries, name=_text(100), size=_numbers(OCTAL_12))
    @settings(max_examples=250, deadline=None)
    def test_header_bytes_or_error_text(self, entry, name, size):
        for typeflag in (TYPE_REGULAR, TYPE_SYMLINK, TYPE_DIRECTORY,
                         TYPE_PAX_HEADER):
            assert _outcome(_build_header, name, size, entry, typeflag) == \
                _outcome(reference_build_header, name, size, entry, typeflag)

    @given(st.lists(st.one_of(_writable_entries, _writable_entries,
                              _any_entries), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_tar_bytes_or_error_text(self, entries):
        for entry in entries:
            if entry.typeflag != TYPE_REGULAR and entry.data and \
                    random.Random(entry.name).random() < 0.8:
                entry.data = b""  # mostly valid non-regular entries
        assert _outcome(write_tar, entries) == \
            _outcome(reference_write_tar, entries)

    def test_boundaries_by_hand(self):
        entry = TarEntry(name="x", uid=OCTAL_8 - 1, gid=1, mtime=OCTAL_12 - 1,
                         uname="ü" * 16, gname="g" * 32,
                         linkname="l" * 100, mode=0o7777)
        for name in ("n" * 100, "é" * 50, "n" * 101, "é" * 51):
            for size in (0, OCTAL_12 - 1, OCTAL_12):
                assert _outcome(_build_header, name, size, entry, b"0") == \
                    _outcome(reference_build_header, name, size, entry, b"0")
        assert _build_header("n" * 100, OCTAL_12 - 1, entry, b"0") == \
            reference_build_header("n" * 100, OCTAL_12 - 1, entry, b"0")


def _payload(size, seed, low_entropy):
    rng = random.Random(seed)
    if low_entropy:
        return bytes(rng.choices(b"ab \n", k=size))
    return rng.randbytes(size)


class TestGzipMatchesGzipFile:
    @given(size=st.one_of(st.integers(0, 2048), st.integers(0, 256 * 1024)),
           seed=st.integers(0, 2 ** 32), low_entropy=st.booleans(),
           level=st.integers(0, 9))
    @settings(max_examples=80, deadline=None)
    def test_member_bytes_and_round_trip(self, size, seed, low_entropy,
                                         level):
        data = _payload(size, seed, low_entropy)
        member = gzip_compress(data, level)
        assert member == reference_gzip_compress(data, level)
        assert gzip.decompress(member) == data

    @pytest.mark.parametrize("size", [0, 1, 32767, 32768, 65536, 65537,
                                      131072, 256 * 1024])
    def test_stored_block_boundaries_at_every_level(self, size):
        """Level 0 stores its input; a one-shot ``zlib.compress`` would
        cut those blocks elsewhere than ``GzipFile`` does."""
        for low_entropy in (False, True):
            data = _payload(size, size, low_entropy)
            for level in range(10):
                assert gzip_compress(data, level) == \
                    reference_gzip_compress(data, level)
