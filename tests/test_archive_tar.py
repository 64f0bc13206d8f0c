"""Tests for the from-scratch tar/PAX implementation."""

import io
import tarfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.archive.tar import (
    TYPE_DIRECTORY,
    TYPE_SYMLINK,
    TarEntry,
    read_tar,
    write_tar,
)
from repro.util.errors import PackagingError


class TestRoundTrip:
    def test_single_file(self):
        blob = write_tar([TarEntry(name="etc/motd", data=b"hello")])
        entries = read_tar(blob)
        assert len(entries) == 1
        assert entries[0].name == "etc/motd"
        assert entries[0].data == b"hello"

    def test_metadata_preserved(self):
        entry = TarEntry(name="bin/tool", data=b"\x7fELF", mode=0o755,
                         uid=3, gid=4, mtime=1234, uname="op", gname="ops")
        restored = read_tar(write_tar([entry]))[0]
        assert restored.mode == 0o755
        assert (restored.uid, restored.gid) == (3, 4)
        assert restored.mtime == 1234
        assert (restored.uname, restored.gname) == ("op", "ops")

    def test_directory_and_symlink(self):
        entries = [
            TarEntry(name="usr/lib/", typeflag=TYPE_DIRECTORY, mode=0o755),
            TarEntry(name="usr/lib/libssl.so", typeflag=TYPE_SYMLINK,
                     linkname="libssl.so.1.1"),
        ]
        restored = read_tar(write_tar(entries))
        assert restored[0].is_dir
        assert restored[1].is_symlink
        assert restored[1].linkname == "libssl.so.1.1"

    def test_empty_archive(self):
        assert read_tar(write_tar([])) == []

    def test_many_files_order_preserved(self):
        entries = [TarEntry(name=f"f{i}", data=bytes([i])) for i in range(50)]
        restored = read_tar(write_tar(entries))
        assert [e.name for e in restored] == [f"f{i}" for i in range(50)]

    @given(st.binary(max_size=2000), st.integers(0, 0o777))
    def test_any_content_roundtrips(self, content, mode):
        entry = TarEntry(name="blob.bin", data=content, mode=mode)
        restored = read_tar(write_tar([entry]))[0]
        assert restored.data == content
        assert restored.mode == mode


class TestPaxHeaders:
    def test_xattr_roundtrip(self):
        entry = TarEntry(name="bin/sh", data=b"#!")
        entry.set_xattr("security.ima", b"\x03\x02" + bytes(range(64)))
        restored = read_tar(write_tar([entry]))[0]
        assert restored.xattrs()["security.ima"] == b"\x03\x02" + bytes(range(64))

    def test_binary_signature_value(self):
        signature = bytes(range(256))
        entry = TarEntry(name="lib/libc.so", data=b"x")
        entry.set_xattr("security.ima", signature)
        restored = read_tar(write_tar([entry]))[0]
        assert restored.xattrs()["security.ima"] == signature

    def test_multiple_pax_records(self):
        entry = TarEntry(name="f", data=b"d")
        entry.pax_headers["comment"] = b"sanitized by TSR"
        entry.set_xattr("security.ima", b"\x01")
        entry.set_xattr("user.checksum", b"ab")
        restored = read_tar(write_tar([entry]))[0]
        assert restored.pax_headers["comment"] == b"sanitized by TSR"
        assert set(restored.xattrs()) == {"security.ima", "user.checksum"}

    def test_pax_only_precedes_owner(self):
        entries = [
            TarEntry(name="plain", data=b"1"),
            TarEntry(name="signed", data=b"2",
                     pax_headers={"SCHILY.xattr.security.ima": b"sig"}),
        ]
        restored = read_tar(write_tar(entries))
        assert restored[0].pax_headers == {}
        assert restored[1].xattrs() == {"security.ima": b"sig"}

    @given(st.dictionaries(
        st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1,
                max_size=30).filter(lambda s: "=" not in s),
        st.binary(max_size=300),
        max_size=5,
    ))
    def test_any_records_roundtrip(self, records):
        entry = TarEntry(name="f", data=b"", pax_headers=dict(records))
        restored = read_tar(write_tar([entry]))[0]
        assert restored.pax_headers == records


class TestInterop:
    """Our writer must produce archives GNU-compatible readers accept."""

    def test_stdlib_tarfile_reads_our_output(self):
        blob = write_tar([
            TarEntry(name="etc/passwd", data=b"root:x:0:0::/root:/bin/ash\n"),
            TarEntry(name="usr/", typeflag=TYPE_DIRECTORY, mode=0o755),
        ])
        with tarfile.open(fileobj=io.BytesIO(blob)) as tf:
            names = tf.getnames()
            member = tf.extractfile("etc/passwd")
            assert member is not None
            assert member.read().startswith(b"root:x:")
        assert "etc/passwd" in names

    def test_stdlib_tarfile_sees_pax_xattrs(self):
        entry = TarEntry(name="bin/busybox", data=b"bb")
        entry.set_xattr("security.ima", b"\x03abc")
        blob = write_tar([entry])
        with tarfile.open(fileobj=io.BytesIO(blob)) as tf:
            member = tf.getmember("bin/busybox")
            assert member.pax_headers.get("SCHILY.xattr.security.ima") == "\x03abc"

    def test_we_read_stdlib_tarfile_output(self):
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w", format=tarfile.USTAR_FORMAT) as tf:
            info = tarfile.TarInfo("hello.txt")
            payload = b"from stdlib"
            info.size = len(payload)
            tf.addfile(info, io.BytesIO(payload))
        entries = read_tar(buffer.getvalue())
        assert entries[0].name == "hello.txt"
        assert entries[0].data == b"from stdlib"


class TestErrors:
    def test_truncated_stream_rejected(self):
        blob = write_tar([TarEntry(name="f", data=b"x" * 600)])
        with pytest.raises(PackagingError):
            read_tar(blob[:700])

    def test_corrupt_checksum_rejected(self):
        blob = bytearray(write_tar([TarEntry(name="f", data=b"x")]))
        blob[0] ^= 0xFF  # flip a byte inside the header
        with pytest.raises(PackagingError):
            read_tar(bytes(blob))

    def test_bad_magic_rejected(self):
        blob = bytearray(write_tar([TarEntry(name="f", data=b"x")]))
        blob[257:262] = b"junk!"
        with pytest.raises(PackagingError):
            read_tar(bytes(blob))

    def test_name_too_long_rejected(self):
        with pytest.raises(PackagingError):
            write_tar([TarEntry(name="x" * 150, data=b"")])

    def test_directory_with_data_rejected(self):
        with pytest.raises(PackagingError):
            write_tar([TarEntry(name="d/", typeflag=TYPE_DIRECTORY, data=b"oops")])

    def test_missing_end_marker_rejected(self):
        blob = write_tar([TarEntry(name="f", data=b"x")])
        with pytest.raises(PackagingError):
            read_tar(blob[:-1024])


def _with_pax_body(body: bytes) -> bytes:
    """A one-member archive whose 6-byte PAX body is replaced by ``body``
    (the header checksum covers the header block only)."""
    blob = write_tar([TarEntry(name="f", data=b"x", pax_headers={"k": b"v"})])
    assert len(body) == 6 and blob.count(b"6 k=v\n") == 1
    return blob.replace(b"6 k=v\n", body)


class TestMalformedMetadata:
    """Malformed member metadata is a :class:`PackagingError`, like every
    other malformed archive, never a bare ``ValueError`` or
    ``UnicodeDecodeError``."""

    @pytest.mark.parametrize("body", [
        b"zz k=v",      # non-numeric record length
        b"6xk=v\n",     # no space after the length
        b"9 k=v\n",     # length runs past the header
        b"6 \xff=v\n",  # non-UTF-8 record key
    ])
    def test_bad_pax_record_rejected(self, body):
        with pytest.raises(PackagingError):
            read_tar(_with_pax_body(body))

    def test_non_utf8_member_name_rejected(self):
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w", encoding="latin-1",
                          format=tarfile.USTAR_FORMAT) as tf:
            info = tarfile.TarInfo("caf\u00e9.txt")
            info.size = 2
            tf.addfile(info, io.BytesIO(b"hi"))
        with pytest.raises(PackagingError, match="UTF-8"):
            read_tar(buffer.getvalue())

    def test_text_decodes_utf8_and_rejects_the_rest(self):
        assert TarEntry(name="s", data="caf\u00e9".encode()).text() == \
            "caf\u00e9"
        with pytest.raises(PackagingError, match="'s'"):
            TarEntry(name="s", data=b"caf\xe9").text()
