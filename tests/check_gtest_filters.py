#!/usr/bin/env python3
"""Fails when a --gtest_filter pattern written in a file matches no test.

    check_gtest_filters.py GC_TESTS FILE...

Lists the tests of the gtest binary GC_TESTS (--gtest_list_tests),
collects every `--gtest_filter=VALUE` written in the FILEs, and reports
each positive pattern of VALUE that matches none of them, as
`file:line: pattern`. A value-parameterized suite is listed as
`Prefix/Suite.Test/N`, so a bare `Suite.*` runs nothing, silently; this
check turns that into a failure. Negative patterns (after `-`) are not
checked: one that matches nothing excludes nothing.
"""
import re
import subprocess
import sys

# The value runs to the end of the quoted string, or to whitespace or a
# closing parenthesis (add_test(... --gtest_filter=A.*:B.*)).
FILTER = re.compile(r"--gtest_filter=(?:'([^']*)'|\"([^\"]*)\"|([^\s)'\"]+))")


def list_tests(binary):
    out = subprocess.run([binary, "--gtest_list_tests"], check=True,
                         capture_output=True, text=True).stdout
    tests, suite = [], ""
    for line in out.splitlines():
        name = line.split("#")[0].strip()
        if not name:
            continue
        if line.startswith(" "):
            tests.append(suite + name)
        else:
            suite = name  # "Suite." or "Prefix/Suite."
    return tests


def gtest_regex(pattern):
    """gtest wildcards: '*' is any string, '?' any one character."""
    parts = (".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
             for ch in pattern)
    return re.compile("".join(parts) + r"\Z")


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    tests = list_tests(argv[1])
    unmatched = 0
    for path in argv[2:]:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for lineno, line in enumerate(lines, 1):
            for m in FILTER.finditer(line):
                value = next(g for g in m.groups() if g is not None)
                positive = value.split("-", 1)[0]
                for pattern in positive.split(":"):
                    if not pattern:
                        continue
                    rx = gtest_regex(pattern)
                    if not any(rx.match(t) for t in tests):
                        print(f"{path}:{lineno}: {pattern} matches no test")
                        unmatched += 1
    if unmatched:
        print(f"{unmatched} --gtest_filter pattern(s) match no test "
              f"of {len(tests)}")
        return 1
    print(f"every --gtest_filter pattern matches a test of {len(tests)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
