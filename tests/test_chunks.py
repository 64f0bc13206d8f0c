"""Fuzz suite for content-defined chunking and the chunk diff/patch layer.

The delta path's correctness rests on three properties exercised here with
randomized inputs (fixed seeds — failures reproduce):

* **Tiling** — chunk offsets partition any input exactly, within the
  ``[MIN_CHUNK, MAX_CHUNK]`` bounds (trailing chunk excepted).
* **Round-trip** — for random base/target pairs related by insert, delete,
  and replace edits (including edits straddling chunk boundaries), the
  encoded op stream patches the base back to the *exact* target bytes.
* **Re-chunk stability** — a one-byte edit re-synchronizes within a
  bounded window, so the diff ships a small literal instead of rewriting
  every chunk (the property that makes deltas small at all).

Underneath all three, the library's one-multiply boundary scan must cut
exactly where the byte-at-a-time gear loop (``tests/reference_chunker.py``)
cuts; the oracle differential pins that over random, periodic and
window-edge inputs.
"""

import random

import pytest

from repro.archive import chunks
from repro.archive.chunks import (
    AVG_BITS,
    MAX_CHUNK,
    MIN_CHUNK,
    apply_chunk_ops,
    build_chunk_ops,
    chunk_id,
    chunk_ids,
    chunk_map,
    chunk_offsets,
    decode_ops,
    encode_ops,
)
from repro.util import memo
from repro.util.errors import DeltaError

from reference_chunker import GEAR, reference_chunk_offsets


def _random_bytes(rng: random.Random, size: int) -> bytes:
    return rng.randbytes(size)


def _roundtrip(base: bytes, target: bytes) -> bytes:
    """Diff target against base, wire-encode, decode, patch — like the
    TSR (manifest side) and a client (bytes side) do."""
    ops = build_chunk_ops(set(chunk_ids(base)), target)
    wire = encode_ops(ops)
    return apply_chunk_ops(decode_ops(wire), chunk_map(base))


class TestChunkOffsets:
    @pytest.mark.parametrize("size", [0, 1, MIN_CHUNK - 1, MIN_CHUNK,
                                      MIN_CHUNK + 1, MAX_CHUNK,
                                      MAX_CHUNK + 1, 5 * MAX_CHUNK + 17])
    def test_tiling_is_exact(self, size):
        rng = random.Random(size)
        data = _random_bytes(rng, size)
        offsets = chunk_offsets(data)
        if size == 0:
            assert offsets == []
            return
        assert offsets[0][0] == 0
        assert offsets[-1][1] == size
        for (_, prev_end), (start, _) in zip(offsets, offsets[1:]):
            assert prev_end == start
        assert b"".join(data[s:e] for s, e in offsets) == data

    def test_bounds_respected_except_trailing(self):
        rng = random.Random(99)
        data = _random_bytes(rng, 64 * 1024)
        offsets = chunk_offsets(data)
        for start, end in offsets[:-1]:
            assert MIN_CHUNK <= end - start <= MAX_CHUNK
        assert offsets[-1][1] - offsets[-1][0] <= MAX_CHUNK

    def test_deterministic(self):
        data = _random_bytes(random.Random(3), 20_000)
        assert chunk_offsets(data) == chunk_offsets(data)
        assert chunk_ids(data) == chunk_ids(data)

    def test_chunking_is_content_defined_not_positional(self):
        """A prefix insertion shifts positions but the cut points
        re-synchronize: most chunk ids survive the shift."""
        rng = random.Random(4)
        data = _random_bytes(rng, 32 * 1024)
        shifted = _random_bytes(rng, 7) + data
        survived = set(chunk_ids(data)) & set(chunk_ids(shifted))
        assert len(survived) >= len(chunk_ids(data)) - 3


def _cut_past_min(t: int) -> bytes:
    """A blob whose first chunk is cut ``t`` positions past ``MIN_CHUNK``
    (seeded search against the oracle; a hit takes ~2^AVG_BITS tries)."""
    rng = random.Random(f"cut:{t}")
    for _ in range(1 << (AVG_BITS + 4)):
        data = rng.randbytes(MIN_CHUNK + 2 * AVG_BITS)
        if reference_chunk_offsets(data)[0][1] == MIN_CHUNK + t + 1:
            return data
    raise AssertionError(f"no seeded blob cuts {t} past MIN_CHUNK")


def _oracle_cases() -> list[bytes]:
    rng = random.Random(41)
    probe = rng.randbytes(30_000)
    cases = [
        rng.randbytes(40_000),                    # generic random blob
        bytes(64_000),                            # zero run (no cuts)
        b"\x00\xff" * 32_000,                     # two-byte period
        rng.randbytes(1_000) * 48,                # long repeated period
        rng.randbytes(8192),
        rng.randbytes(8193),
        probe + probe[:500] + probe,              # repeats realign cuts
    ]
    cases += [rng.randbytes(rng.randrange(20_000)) for _ in range(200)]
    for _ in range(200):
        period = rng.randbytes(rng.randrange(1, 64))
        cases.append(period * (rng.randrange(20_000) // len(period)))
    cases += [rng.randbytes(size)
              for size in range(MIN_CHUNK, MIN_CHUNK + 2 * AVG_BITS + 1)]
    # A cut at every position of the replayed window and at the first
    # position the candidate table answers.  Offset 0 tests
    # GEAR[b] & MASK alone, which is never zero for this table.
    cases += [_cut_past_min(t) for t in range(1, AVG_BITS)]
    return cases


class TestScanMatchesOracle:
    def test_offsets_match_scalar_loop(self):
        """The one-multiply scan cuts exactly where the byte-at-a-time
        loop (``tests/reference_chunker.py``) cuts, memo cleared so every
        call scans."""
        assert chunks._GEAR == GEAR
        hash_cuts = set()
        for number, data in enumerate(_oracle_cases()):
            memo.clear_all()
            expected = reference_chunk_offsets(data)
            assert chunk_offsets(data) == expected, (number, len(data))
            hash_cuts.update(end - start - MIN_CHUNK - 1
                             for start, end in expected
                             if end < len(data) and end - start < MAX_CHUNK)
        warm = AVG_BITS - 1
        # Both branches of the walk ran: cuts the scalar replay found
        # (past-MIN offsets 0..warm-1) and cuts from the candidate table
        # (offset warm is its first position).
        assert hash_cuts & set(range(warm))
        assert warm in hash_cuts


class TestDiffPatchRoundTrip:
    #: (seed, base size) grid: sizes below/above one chunk and multi-chunk.
    CASES = [(seed, size)
             for seed in range(8)
             for size in (200, MIN_CHUNK, 3 * 1024, 40 * 1024)]

    @pytest.mark.parametrize("seed,size", CASES)
    def test_random_mutations_roundtrip(self, seed, size):
        rng = random.Random(f"mut:{seed}:{size}")
        base = _random_bytes(rng, size)
        target = bytearray(base)
        for _ in range(rng.randrange(1, 5)):
            kind = rng.choice(("insert", "delete", "replace"))
            if not target:
                kind = "insert"
            at = rng.randrange(len(target) + 1)
            if kind == "insert":
                target[at:at] = _random_bytes(rng, rng.randrange(1, 300))
            elif kind == "delete":
                del target[at:at + rng.randrange(1, 300)]
            else:
                span = rng.randrange(1, 300)
                target[at:at + span] = _random_bytes(rng, span)
        assert _roundtrip(base, bytes(target)) == bytes(target)

    @pytest.mark.parametrize("seed", range(6))
    def test_boundary_straddling_edits_roundtrip(self, seed):
        """Edits placed exactly across a chunk boundary of the base."""
        rng = random.Random(f"straddle:{seed}")
        base = _random_bytes(rng, 24 * 1024)
        offsets = chunk_offsets(base)
        assert len(offsets) >= 3
        _, boundary = offsets[rng.randrange(len(offsets) - 1)]
        target = bytearray(base)
        # Replace a window centered on the boundary, then insert at it.
        target[boundary - 4:boundary + 4] = _random_bytes(rng, 16)
        target[boundary:boundary] = _random_bytes(rng, 64)
        assert _roundtrip(base, bytes(target)) == bytes(target)

    def test_disjoint_inputs_roundtrip_as_pure_literals(self):
        rng = random.Random(12)
        base = _random_bytes(rng, 8 * 1024)
        target = _random_bytes(rng, 8 * 1024)
        ops = build_chunk_ops(set(chunk_ids(base)), target)
        assert all(kind == "literal" for kind, _ in ops)
        assert len(ops) == 1  # adjacent literals merge
        assert _roundtrip(base, target) == target

    def test_identical_inputs_are_all_copies(self):
        data = _random_bytes(random.Random(13), 16 * 1024)
        ops = build_chunk_ops(set(chunk_ids(data)), data)
        assert all(kind == "copy" for kind, _ in ops)
        assert apply_chunk_ops(ops, chunk_map(data)) == data

    def test_empty_target(self):
        base = _random_bytes(random.Random(14), 4096)
        assert _roundtrip(base, b"") == b""


class TestRechunkStability:
    @pytest.mark.parametrize("seed", range(5))
    def test_one_byte_edit_ships_bounded_literals(self, seed):
        """The delta-efficiency property: one flipped byte must not
        invalidate chunks far from the edit."""
        rng = random.Random(f"stable:{seed}")
        base = _random_bytes(rng, 64 * 1024)
        at = rng.randrange(len(base))
        target = base[:at] + bytes([base[at] ^ 0xA5]) + base[at + 1:]
        ops = build_chunk_ops(set(chunk_ids(base)), target)
        literal = sum(len(v) for kind, v in ops if kind == "literal")
        # The edit dirties its own chunk; re-synchronization may cost a
        # neighbour or two, never a constant fraction of the payload.
        assert literal <= 3 * MAX_CHUNK
        assert _roundtrip(base, target) == target


class TestWireEncoding:
    def test_decode_rejects_malformations(self):
        good = encode_ops([("copy", chunk_id(b"x" * 600)),
                           ("literal", b"abc")])
        assert decode_ops(good)  # sanity: the well-formed stream parses
        for bad in [
            b"",                          # empty → no terminator
            good[:-3],                    # truncated terminator
            good + b"x",                  # trailing bytes
            b"R:nothex\nE:\n",            # bad chunk reference
            b"R:" + b"a" * 20 + b"\nE:\n",  # wrong id length
            b"L:9999\nabc" + b"E:\n",     # literal length overruns
            b"L:-1\nE:\n",                # negative length
            b"Q:0\nE:\n",                 # unknown op
        ]:
            with pytest.raises(DeltaError):
                decode_ops(bad)

    @pytest.mark.parametrize("ref", [
        b"0123456789ABCDEF",           # uppercase hex
        b"01234567x9abcdef",           # one non-hex character mid-id
        b"0123456789abcd\xc3\xa9",     # non-ASCII: decodes to U+FFFD
    ])
    def test_decode_rejects_non_lowercase_hex_ids(self, ref):
        good = b"R:0123456789abcdef\nE:\n"
        assert decode_ops(good) == [("copy", "0123456789abcdef")]
        with pytest.raises(DeltaError):
            decode_ops(b"R:" + ref + b"\nE:\n")

    def test_apply_rejects_unknown_chunk(self):
        ops = [("copy", "0" * 16)]
        with pytest.raises(DeltaError):
            apply_chunk_ops(ops, {})

    def test_encode_decode_identity(self):
        rng = random.Random(21)
        base = _random_bytes(rng, 20 * 1024)
        target = base[:7000] + b"EDIT" + base[7100:]
        ops = build_chunk_ops(set(chunk_ids(base)), target)
        assert decode_ops(encode_ops(ops)) == ops
