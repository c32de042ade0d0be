#!/usr/bin/env python3
"""Code-line counter: non-blank, non-comment lines of OCaml source.

Usage: python3 test/loc.py [ROOT]   (also `make loc`)

Counts the .ml/.mli files of every library under lib/, of bin/ and of
examples/, one row each, then two totals: product (every library except
the test-only oracle and fuzz, plus bin and examples) and test-only
(lib/oracle and lib/fuzz).  A line counts when it holds any character
outside a comment.  OCaml comments nest, and string literals (inside
comments too, as the compiler lexes them), character literals and
quoted strings {id|...|id} are skipped, so "(*" inside one opens
nothing.
"""

import os
import re
import sys

TEST_ONLY = ("lib/oracle", "lib/fuzz")
QUOTED_OPEN = re.compile(r"\{([a-z_]*)\|")
CHAR_LIT = re.compile(r"'(?:[^\\']|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")


def code_lines(text):
    """Number of lines holding at least one character outside comments."""
    lines = set()
    line = 1
    depth = 0  # comment nesting
    i, n = 0, len(text)

    def skip_string(i, line):
        # [i] is just past the opening quote; returns past the closing one.
        while i < n and text[i] != '"':
            if text[i] == "\\":
                i += 1
            if i < n and text[i] == "\n":
                line += 1
            i += 1
        return i + 1, line

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth > 0 and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            start = line
            i, line = skip_string(i + 1, line)
            if depth == 0:
                lines.update(range(start, line + 1))
        elif c == "{" and QUOTED_OPEN.match(text, i):
            m = QUOTED_OPEN.match(text, i)
            close = text.find("|" + m.group(1) + "}", m.end())
            end = n if close < 0 else close + len(m.group(1)) + 2
            stop = line + text.count("\n", i, end)
            if depth == 0:
                lines.update(range(line, stop + 1))
            line, i = stop, end
        elif c == "'" and CHAR_LIT.match(text, i):
            if depth == 0:
                lines.add(line)
            i = CHAR_LIT.match(text, i).end()
        else:
            if depth == 0 and not c.isspace():
                lines.add(line)
            i += 1
    return len(lines)


def count_dir(path):
    total = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = [d for d in dirnames if not d.startswith(("_", "."))]
        for name in filenames:
            if name.endswith((".ml", ".mli")):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    total += code_lines(f.read())
    return total


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    units = sorted(
        "lib/" + d
        for d in os.listdir(os.path.join(root, "lib"))
        if os.path.isdir(os.path.join(root, "lib", d))
    ) + ["bin", "examples"]
    product = test_only = 0
    for unit in units:
        lines = count_dir(os.path.join(root, unit))
        print(f"{unit:<20} {lines:>7,}")
        if unit in TEST_ONLY:
            test_only += lines
        else:
            product += lines
    print(f"{'product':<20} {product:>7,}")
    print(f"{'test-only':<20} {test_only:>7,}")


if __name__ == "__main__":
    main()
