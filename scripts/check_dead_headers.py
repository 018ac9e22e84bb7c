#!/usr/bin/env python3
"""Fail when a library header is included only by tests.

Usage:
    check_dead_headers.py [ROOT]

Lists every header under ROOT/src/tpcool (default ROOT: the repository
root, i.e. the parent of this script's directory) and every `#include`
in the C++ sources under ROOT outside tests/ (hidden and build*
directories are skipped too).  A header passes when some file other than
its own .cpp includes it; a header that only its own .cpp and the tests
include is code no program runs.

Exit status: 0 = every header has a caller outside tests/, 1 = some
header does not, 2 = ROOT has no src/tpcool directory.
"""

import os
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s*[<"](tpcool/[^">]+)[">]', re.MULTILINE)
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")


def skipped(dirname):
    return dirname == "tests" or dirname.startswith((".", "build"))


def headers(src_dir):
    found = []
    for dirpath, _, filenames in os.walk(os.path.join(src_dir, "tpcool")):
        for filename in filenames:
            if filename.endswith((".hpp", ".h")):
                path = os.path.join(dirpath, filename)
                found.append(os.path.relpath(path, src_dir).replace(os.sep, "/"))
    return sorted(found)


def includers(root):
    """Map each included tpcool/ header to the files including it."""
    by_header = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if not skipped(d)]
        for filename in filenames:
            if not filename.endswith(SOURCE_SUFFIXES):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                for header in INCLUDE.findall(handle.read()):
                    by_header.setdefault(header, set()).add(
                        os.path.relpath(path, root).replace(os.sep, "/"))
    return by_header


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src_dir = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src_dir, "tpcool")):
        print(f"{root} has no src/tpcool directory")
        return 2
    by_header = includers(root)
    library = headers(src_dir)
    dead = []
    for header in library:
        own_source = "src/" + os.path.splitext(header)[0] + ".cpp"
        if not by_header.get(header, set()) - {own_source}:
            dead.append(header)
    for header in dead:
        print(f"src/{header}: included by no file outside tests/ but its "
              "own .cpp; delete it with its tests, or call it")
    if dead:
        return 1
    print(f"every header under src/tpcool has a caller outside tests/ "
          f"({len(library)} headers)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
