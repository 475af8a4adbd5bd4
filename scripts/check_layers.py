#!/usr/bin/env python3
"""Check that every #include under src/ follows a link its target declares.

Each src/<layer>/CMakeLists.txt declares targets (add_library,
add_executable) and their photorack:: links (target_link_libraries).  A
quoted include "<layer>/..." is allowed when <layer> is the including
target's own layer or is reachable through its links.  A library's headers
and sources are checked against the library's links; an executable's sources
against the executable's own links.

Usage: scripts/check_layers.py [src-dir]
Exits 1 and prints one line per include edge that no link declares.
"""
import re
import sys
from pathlib import Path

src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent / "src"

library = {}  # layer -> its library target
owner = {}    # source file -> the target that compiles it
links = {}    # target -> layers it links directly
for cmake in sorted(src.glob("*/CMakeLists.txt")):
    layer, text = cmake.parent.name, cmake.read_text()
    for kind, target, body in re.findall(r"add_(library|executable)\((\S+)([^)]*)\)", text):
        if "ALIAS" in body:
            continue
        if kind == "library":
            library[layer] = target
        for name in body.split():
            owner[cmake.parent / name] = target
    for target, body in re.findall(r"target_link_libraries\((\S+)([^)]*)\)", text):
        links.setdefault(target, set()).update(re.findall(r"photorack::(\w+)", body))


def reach(target, seen=None):
    """Layers `target` can include: its own plus every layer it links, transitively."""
    seen = set() if seen is None else seen
    for layer in links.get(target, ()):
        if layer in library and layer not in seen:
            seen.add(layer)
            reach(library[layer], seen)
    return seen


bad = []
for path in sorted(src.glob("*/*.[ch]pp")):
    layer = path.parent.name
    target = owner.get(path, library.get(layer))
    allowed = reach(target) | {layer}
    included = set(re.findall(r'^#include "(\w+)/', path.read_text(), re.M))
    for dep in sorted(included & library.keys() - allowed):
        bad.append(f"{path.relative_to(src)}: {target} includes {dep}/ "
                   f"but does not link photorack::{dep}")

print("\n".join(bad) or "every #include under src/ follows a declared link")
sys.exit(1 if bad else 0)
