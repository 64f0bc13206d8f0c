"""Tests for gzip segments, the apk container, and the repository index."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.archive import apk as apk_module
from repro.archive.apk import ApkPackage, PackageFile, package_content_hash
from repro.archive.gz import gzip_compress, gzip_decompress, split_gzip_streams
from repro.archive.index import IndexEntry, RepositoryIndex, parse_index_cached
from repro.archive.tar import TarEntry, write_tar
from repro.crypto.hashes import sha256_hex
from repro.util.errors import IntegrityError, PackagingError, SignatureError


class TestGzip:
    def test_roundtrip(self):
        data = b"alpine linux" * 100
        assert gzip_decompress(gzip_compress(data)) == data

    def test_deterministic(self):
        data = b"same input, same bytes"
        assert gzip_compress(data) == gzip_compress(data)

    def test_split_three_streams(self):
        parts = [gzip_compress(b"sig"), gzip_compress(b"ctrl"), gzip_compress(b"data")]
        pairs = split_gzip_streams(b"".join(parts), expected=3)
        streams = [compressed for compressed, _ in pairs]
        assert streams == parts
        assert [gzip_decompress(s) for s in streams] == [b"sig", b"ctrl", b"data"]
        assert [inflated for _, inflated in pairs] == [b"sig", b"ctrl", b"data"]

    def test_split_rejects_wrong_count(self):
        blob = gzip_compress(b"only one")
        with pytest.raises(PackagingError):
            split_gzip_streams(blob, expected=3)

    def test_split_rejects_garbage(self):
        with pytest.raises(PackagingError):
            split_gzip_streams(b"not gzip at all")

    def test_split_rejects_truncation(self):
        blob = gzip_compress(b"x" * 1000)
        with pytest.raises(PackagingError):
            split_gzip_streams(blob[:-5])

    @pytest.mark.parametrize("seed", range(12))
    def test_split_inflates_like_decompress_over_member_mixes(self, seed):
        rng = random.Random(f"gzip-mix:{seed}")
        kinds = {
            "empty": b"",
            "one-byte": bytes([rng.randrange(256)]),
            "incompressible": rng.randbytes(64 * 1024),
            "compressible": bytes([rng.randrange(256)]) * (64 * 1024),
        }
        members = [kinds[rng.choice(sorted(kinds))]
                   for _ in range(rng.randint(1, 4))]
        parts = [gzip_compress(member) for member in members]
        pairs = split_gzip_streams(b"".join(parts), expected=len(parts))
        assert [compressed for compressed, _ in pairs] == parts
        for (compressed, inflated), member in zip(pairs, members):
            assert inflated == gzip_decompress(compressed) == member

    @pytest.mark.parametrize("corrupt", [0, 1, 2])
    def test_split_rejects_corrupted_member_crc(self, corrupt):
        parts = [gzip_compress(b"sig"), gzip_compress(b"ctrl" * 50),
                 gzip_compress(b"data" * 500)]
        # The gzip trailer is CRC32 then ISIZE: flip one CRC byte.
        crc_at = len(parts[corrupt]) - 8
        member = bytearray(parts[corrupt])
        member[crc_at] ^= 0x01
        parts[corrupt] = bytes(member)
        with pytest.raises(PackagingError):
            split_gzip_streams(b"".join(parts), expected=3)

    @pytest.mark.parametrize("cut", ["trailer", "mid-body", "header"])
    def test_decompress_rejects_truncation(self, cut):
        """A stream cut short is malformed even when the bytes it did
        carry inflate: the CRC32/ISIZE trailer was never checked."""
        blob = gzip_compress(bytes(range(256)) * 100)
        keep = {"trailer": len(blob) - 8,  # body complete, no trailer
                "mid-body": len(blob) // 2,
                "header": 10}[cut]         # the fixed header alone
        with pytest.raises(PackagingError, match="truncated"):
            gzip_decompress(blob[:keep])

    def test_decompress_rejects_trailing_garbage(self):
        with pytest.raises(PackagingError):
            gzip_decompress(gzip_compress(b"a") + b"trailing")

    @given(st.binary(max_size=5000))
    def test_any_payload_roundtrips(self, data):
        assert gzip_decompress(gzip_compress(data)) == data


def _sample_package() -> ApkPackage:
    return ApkPackage(
        name="openssl",
        version="1.1.1g-r0",
        description="toolkit for TLS",
        depends=["musl", "zlib"],
        scripts={".post-install": "#!/bin/sh\nexit 0\n"},
        files=[
            PackageFile(path="/usr/lib/libssl.so.1.1", content=b"\x7fELF" + b"s" * 500),
            PackageFile(path="/etc/ssl/openssl.cnf", content=b"[req]\n", mode=0o600),
        ],
    )


class TestApk:
    def test_build_parse_roundtrip(self, rsa_key):
        blob = _sample_package().build(rsa_key)
        parsed = ApkPackage.parse(blob)
        pkg = parsed.package
        assert pkg.name == "openssl"
        assert pkg.version == "1.1.1g-r0"
        assert pkg.depends == ["musl", "zlib"]
        assert pkg.scripts[".post-install"].startswith("#!/bin/sh")
        assert pkg.file_map()["/etc/ssl/openssl.cnf"].mode == 0o600

    def test_verify_good_signature(self, rsa_key):
        blob = _sample_package().build(rsa_key)
        parsed = ApkPackage.parse(blob)
        signer = parsed.verify([rsa_key.public_key])
        assert signer == rsa_key.public_key

    def test_verify_rejects_untrusted_key(self, rsa_key, rsa_key_alt):
        blob = _sample_package().build(rsa_key)
        parsed = ApkPackage.parse(blob)
        with pytest.raises(SignatureError):
            parsed.verify([rsa_key_alt.public_key])

    def test_verify_detects_tampered_data_segment(self, rsa_key):
        pkg = _sample_package()
        blob = pkg.build(rsa_key)
        streams = [gz for gz, _ in split_gzip_streams(blob, expected=3)]
        # Replace the data segment with different (validly compressed) bytes.
        evil = ApkPackage(name=pkg.name, version=pkg.version,
                          files=[PackageFile(path="/bin/backdoor", content=b"evil")])
        evil_blob = evil.build(rsa_key)
        evil_data = split_gzip_streams(evil_blob, expected=3)[2][0]
        tampered = streams[0] + streams[1] + evil_data
        parsed = ApkPackage.parse(tampered)
        with pytest.raises(IntegrityError):
            parsed.verify([rsa_key.public_key])

    @pytest.mark.parametrize("via_copy", [False, True])
    def test_verify_rehashes_a_swapped_data_segment(self, rsa_key,
                                                     via_copy):
        """After a passing verify, same-length tampered data is still
        caught: the stored digest belongs to the old ``bytes`` object."""
        parsed = ApkPackage.parse(_sample_package().build(rsa_key))
        parsed.verify([rsa_key.public_key])
        target = parsed.copy() if via_copy else parsed
        data = target.data_gz
        target.data_gz = data[:-9] + bytes([data[-9] ^ 0x01]) + data[-8:]
        with pytest.raises(IntegrityError, match="datahash mismatch"):
            target.verify([rsa_key.public_key])
        # A mutable stand-in with the right bytes passes, and is hashed
        # afresh on every call.
        target.data_gz = bytearray(data)
        target.verify([rsa_key.public_key])
        target.data_gz[-9] ^= 0x01
        with pytest.raises(IntegrityError, match="datahash mismatch"):
            target.verify([rsa_key.public_key])

    def test_copies_of_one_parse_hash_the_data_segment_once(
            self, rsa_key, monkeypatch):
        hashed = []

        def counting(data):
            hashed.append(data)
            return sha256_hex(data)

        parsed = ApkPackage.parse(_sample_package().build(rsa_key))
        monkeypatch.setattr(apk_module, "sha256_hex", counting)
        for copy in (parsed, parsed.copy(), parsed.copy().copy()):
            copy.verify([rsa_key.public_key])
        assert hashed == [parsed.data_gz]

    def test_verify_detects_tampered_control_segment(self, rsa_key):
        blob = _sample_package().build(rsa_key)
        streams = [gz for gz, _ in split_gzip_streams(blob, expected=3)]
        other = _sample_package()
        other.version = "9.9.9-r9"
        other_streams = [gz for gz, _ in
                         split_gzip_streams(other.build(rsa_key), expected=3)]
        # Old signature + new control: signature check must fail.
        tampered = streams[0] + other_streams[1] + other_streams[2]
        parsed = ApkPackage.parse(tampered)
        with pytest.raises(SignatureError):
            parsed.verify([rsa_key.public_key])

    def test_ima_signatures_survive_roundtrip(self, rsa_key):
        pkg = _sample_package()
        pkg.files[0].ima_signature = b"\x03" + bytes(64)
        parsed = ApkPackage.parse(pkg.build(rsa_key))
        restored = parsed.package.file_map()["/usr/lib/libssl.so.1.1"]
        assert restored.ima_signature == b"\x03" + bytes(64)

    def test_config_signatures_roundtrip(self, rsa_key):
        pkg = _sample_package()
        pkg.config_signatures["/etc/passwd"] = b"cfg-sig-bytes"
        parsed = ApkPackage.parse(pkg.build(rsa_key))
        assert parsed.package.config_signatures == {"/etc/passwd": b"cfg-sig-bytes"}

    def test_unknown_script_hook_rejected(self):
        with pytest.raises(PackagingError):
            ApkPackage(name="x", version="1", scripts={".mid-install": "#!"})

    def test_deterministic_build(self, rsa_key):
        assert _sample_package().build(rsa_key) == _sample_package().build(rsa_key)

    def test_content_hash_changes_with_content(self, rsa_key):
        a = _sample_package().build(rsa_key)
        pkg = _sample_package()
        pkg.files[0].content = b"different"
        b = pkg.build(rsa_key)
        assert package_content_hash(a) != package_content_hash(b)

    def test_parse_rejects_two_segments(self, rsa_key):
        blob = _sample_package().build(rsa_key)
        streams = [gz for gz, _ in split_gzip_streams(blob, expected=3)]
        with pytest.raises(PackagingError):
            ApkPackage.parse(streams[0] + streams[1])

    @pytest.mark.parametrize("member, text", [
        (".PKGINFO", b"pkgname = caf\xe9\n"),
        (".post-install", b"#!/bin/sh\necho caf\xe9\n"),
    ])
    def test_parse_rejects_non_utf8_control_member(self, rsa_key, member,
                                                   text):
        data_gz = gzip_compress(write_tar([TarEntry(name="f", data=b"x")]))
        pkginfo = (b"pkgname = cafe\npkgver = 1-r0\ndatahash = "
                   + sha256_hex(data_gz).encode() + b"\n")
        control = {".PKGINFO": pkginfo, ".post-install": b"true\n"}
        control[member] = text if member != ".PKGINFO" else pkginfo + text
        control_gz = gzip_compress(write_tar(
            [TarEntry(name=name, data=data) for name, data in control.items()]))
        signature_gz = gzip_compress(write_tar([TarEntry(
            name=".SIGN.RSA.builder.rsa.pub", data=rsa_key.sign(control_gz))]))
        with pytest.raises(PackagingError, match=member):
            ApkPackage.parse(signature_gz + control_gz + data_gz)

    def test_copy_owns_its_containers(self):
        pkg = _sample_package()
        clone = pkg.copy()
        assert clone == pkg
        clone.files[0].content = b"changed"
        clone.files.append(PackageFile(path="/extra", content=b""))
        clone.scripts.clear()
        clone.depends.append("evil")
        assert pkg == _sample_package()


def _sample_index() -> RepositoryIndex:
    index = RepositoryIndex(serial=7)
    index.add(IndexEntry(name="musl", version="1.1.24-r2", size=383152,
                         sha256="ab" * 32))
    index.add(IndexEntry(name="openssl", version="1.1.1g-r0", size=1024,
                         sha256="cd" * 32, depends=("musl",)))
    return index


class TestRepositoryIndex:
    def test_sign_and_verify(self, rsa_key):
        index = _sample_index()
        index.sign(rsa_key)
        assert index.verify(rsa_key.public_key)

    def test_unsigned_never_verifies(self, rsa_key):
        assert not _sample_index().verify(rsa_key.public_key)

    def test_adding_entry_invalidates_signature(self, rsa_key):
        index = _sample_index()
        index.sign(rsa_key)
        index.add(IndexEntry(name="zlib", version="1", size=1, sha256="ee" * 32))
        assert not index.verify(rsa_key.public_key)

    def test_wire_roundtrip(self, rsa_key):
        index = _sample_index()
        index.sign(rsa_key)
        restored = RepositoryIndex.from_bytes(index.to_bytes())
        assert restored.serial == 7
        assert restored.entries == index.entries
        assert restored.verify(rsa_key.public_key)

    def test_serialize_unsigned_rejected(self):
        with pytest.raises(SignatureError):
            _sample_index().to_bytes()

    def test_tampered_body_fails_verification(self, rsa_key):
        index = _sample_index()
        index.sign(rsa_key)
        blob = index.to_bytes().replace(b"1.1.24-r2", b"0.0.1-r00")
        restored = RepositoryIndex.from_bytes(blob)
        assert not restored.verify(rsa_key.public_key)

    def test_diff_updated(self):
        old = _sample_index()
        new = _sample_index()
        new.add(IndexEntry(name="zlib", version="1.2.11-r3", size=10,
                           sha256="11" * 32))
        new.add(IndexEntry(name="openssl", version="1.1.1h-r0", size=2048,
                           sha256="ef" * 32, depends=("musl",)))
        changed = {e.name for e in new.diff_updated(old)}
        assert changed == {"zlib", "openssl"}

    def test_diff_identical_is_empty(self):
        assert _sample_index().diff_updated(_sample_index()) == []

    def test_total_size(self):
        assert _sample_index().total_size() == 383152 + 1024

    def test_malformed_wire_rejected(self):
        with pytest.raises(PackagingError):
            RepositoryIndex.from_bytes(b"garbage")
        with pytest.raises(PackagingError):
            RepositoryIndex.from_bytes(b"sig:00\nnot-serial\n")

    @pytest.mark.parametrize("blob", [
        b"sig:00\nserial:1\n\xff\n",
        b"sig:zz\nserial:1\n",
        b"sig:0\nserial:1\n",
        b"sig:00\nserial:x1\n",
    ], ids=["not-utf8", "non-hex-signature", "odd-length-signature",
            "non-numeric-serial"])
    def test_malformed_header_bytes_raise_packaging_error(self, blob):
        """Every malformation is a :class:`PackagingError` (a
        ``ReproError``), never a bare ``UnicodeDecodeError`` or
        ``ValueError`` that callers catching library errors would miss."""
        with pytest.raises(PackagingError):
            parse_index_cached(blob)
