#!/usr/bin/env python3
"""Fail when README's environment-variable table drifts from the code.

Usage:
    check_env_vars.py [ROOT]

Collects every string literal passed to `std::getenv` or
`env_positive_integer` in the C++ sources under ROOT/src (default ROOT:
the repository root, i.e. the parent of this script's directory), and
every variable named in the first column of the table under README.md's
"## Environment variables" heading.  The two sets must be equal, except
for CONFIGURE_TIME: CMake options that the table documents but no
source file reads at run time.

Exit status: 0 = the table matches the code, 1 = it does not, 2 = the
README has no environment-variable table.
"""

import os
import re
import sys

# A literal first argument, possibly on the next line after the "(".
ENV_READ = re.compile(r"\b(?:getenv|env_positive_integer)\s*\(\s*\"([^\"]+)\"")
TABLE_ROW = re.compile(r"^\|\s*`([A-Z0-9_]+)`\s*\|", re.MULTILINE)
SECTION = re.compile(r"^## Environment variables\n(.*?)(?=^## |\Z)",
                     re.MULTILINE | re.DOTALL)

CONFIGURE_TIME = {"TPCOOL_SANITIZE"}


def source_names(src_dir):
    names = {}
    for dirpath, _, filenames in os.walk(src_dir):
        for filename in filenames:
            if not filename.endswith((".cpp", ".hpp", ".h", ".cc")):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                for name in ENV_READ.findall(handle.read()):
                    names.setdefault(name, path)
    return names


def readme_names(readme):
    with open(readme, encoding="utf-8") as handle:
        section = SECTION.search(handle.read())
    if section is None:
        return None
    return set(TABLE_ROW.findall(section.group(1)))


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    documented = readme_names(os.path.join(root, "README.md"))
    if documented is None:
        print("README.md has no '## Environment variables' section")
        return 2
    read = source_names(os.path.join(root, "src"))

    undocumented = sorted(set(read) - documented)
    stale = sorted(documented - set(read) - CONFIGURE_TIME)
    for name in undocumented:
        print(f"{name}: read in {os.path.relpath(read[name], root)} "
              "but missing from README's environment-variable table")
    for name in stale:
        print(f"{name}: in README's environment-variable table but read "
              "nowhere under src/")
    if undocumented or stale:
        return 1
    print(f"README's environment-variable table matches src/: "
          f"{', '.join(sorted(read))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
