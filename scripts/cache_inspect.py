#!/usr/bin/env python3
"""Inspect (and optionally verify) a solve-cache snapshot without tpcool.

Usage:
    cache_inspect.py PATH [--verify]

PATH is a snapshot written by SolveCache::save.  The byte layout is
defined in src/tpcool/core/solve_cache.cpp and documented in
docs/CACHE.md; this script is an independent Python reimplementation of
the reader, so CI can sanity-check the file the bench chain persists.

Default output: schema version, entry count, file size, and the
order-insensitive content digest (the same value
SolveCache::content_digest reports after loading the snapshot).

--verify re-validates everything the C++ loader checks — magic, schema
version, the trailing FNV-1a stream digest, per-entry key digests, length
fields and the absence of trailing bytes — and exits non-zero on the
first corruption.

Exit status: 0 = OK, 1 = corruption (--verify), 2 = bad invocation or an
unreadable/undecodable file.
"""

import argparse
import struct
import sys

MAGIC = b"TPCOOLSC"
VERSION = 5

# util/fnv.hpp's pinned constants (the offset basis is the repo's own
# value, not the textbook FNV-1a one — it is part of the on-disk format).
FNV_OFFSET_BASIS = 0x14650FB0739D0383
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1


class CorruptSnapshot(Exception):
    """Raised where the C++ loader would raise SnapshotError."""


def fnv1a(data, seed=FNV_OFFSET_BASIS):
    digest = seed
    for byte in data:
        digest = ((digest ^ byte) * FNV_PRIME) & MASK64
    return digest


class Cursor:
    """Bounds-checked little-endian reader over the snapshot body."""

    def __init__(self, blob, what):
        self.blob = blob
        self.pos = 0
        self.what = what

    def take(self, size, field):
        if self.pos + size > len(self.blob):
            raise CorruptSnapshot(
                f"{self.what}: truncated while reading {field}")
        out = self.blob[self.pos:self.pos + size]
        self.pos += size
        return out

    def u32(self, field):
        return struct.unpack("<I", self.take(4, field))[0]

    def u64(self, field):
        return struct.unpack("<Q", self.take(8, field))[0]

    def remaining(self):
        return len(self.blob) - self.pos


def load_snapshot(path, blob):
    """Validate the whole file; returns [(key, payload)] in file order."""
    if len(blob) < len(MAGIC) + 4 + 8 + 8:
        raise CorruptSnapshot(f"{path}: shorter than the fixed header")
    if blob[:len(MAGIC)] != MAGIC:
        raise CorruptSnapshot(f"{path}: bad magic {blob[:8]!r} — not a "
                              "solve-cache snapshot")
    cursor = Cursor(blob[:-8], path)
    cursor.take(len(MAGIC), "magic")
    version = cursor.u32("version")
    if version != VERSION:
        raise CorruptSnapshot(f"{path}: schema version {version}, "
                              f"expected {VERSION}")
    recorded = struct.unpack("<Q", blob[-8:])[0]
    actual = fnv1a(blob[:-8])
    if recorded != actual:
        raise CorruptSnapshot(
            f"{path}: stream digest mismatch "
            f"(recorded {recorded:#018x}, actual {actual:#018x})")
    entries = []
    for i in range(cursor.u64("entry count")):
        field = f"entry {i}"
        digest = cursor.u64(field)
        key = cursor.take(cursor.u64(field), field + " key")
        if fnv1a(key) != digest:
            raise CorruptSnapshot(f"{path}: {field} key digest mismatch")
        payload = cursor.take(cursor.u64(field), field + " payload")
        entries.append((key, payload))
    if cursor.remaining():
        raise CorruptSnapshot(f"{path}: trailing bytes after last entry")
    return entries


def content_digest(entries):
    """Wrapping sum of fnv1a(payload, seed=fnv1a(key)) — order-insensitive,
    == SolveCache::content_digest after loading these entries."""
    return sum(fnv1a(payload, seed=fnv1a(key))
               for key, payload in entries) & MASK64


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="solve-cache snapshot file")
    parser.add_argument("--verify", action="store_true",
                        help="exit non-zero on any corruption")
    args = parser.parse_args()

    try:
        with open(args.path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2

    try:
        entries = load_snapshot(args.path, blob)
    except CorruptSnapshot as exc:
        print(f"CORRUPT: {exc}", file=sys.stderr)
        return 1 if args.verify else 2

    print(f"{args.path}: solve-cache snapshot (schema v{VERSION})")
    print(f"  entries:        {len(entries)}")
    print(f"  bytes:          {len(blob)}")
    print(f"  content digest: {content_digest(entries):#018x}")
    if args.verify:
        print("verify: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
