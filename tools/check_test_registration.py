#!/usr/bin/env python3
"""Check that ctest runs every gtest case of ecs_tests exactly once.

All tests/test_*.cpp files build into one program, ecs_tests, and ctest
registers one entry per file: ecs_tests filtered to that file's gtest
suites (tests/CMakeLists.txt). This check fails unless

  * ctest lists exactly one entry per tests/test_*.cpp, named after it;
  * the cases the entries' filters select, summed over the entries, equal
    the cases of `ecs_tests --gtest_list_tests`, each case selected by
    exactly one entry.

So a case that no filter selects, or that two entries run, fails CI.

Usage: tools/check_test_registration.py BUILD_DIR
"""

import json
import pathlib
import subprocess
import sys


def list_cases(command):
    """Full case names that `command --gtest_list_tests` prints."""
    out = subprocess.run(command + ["--gtest_list_tests"], check=True,
                         capture_output=True, text=True).stdout
    cases = []
    suite = None
    for line in out.splitlines():
        if not line.strip():
            continue
        name = line.split("#", 1)[0].strip()
        if line.startswith(" "):
            cases.append(suite + name)
        else:
            suite = name  # "Suite." or "Prefix/Suite."
    return cases


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    build = pathlib.Path(sys.argv[1])
    source = pathlib.Path(__file__).resolve().parent.parent
    files = sorted(p.stem for p in (source / "tests").glob("test_*.cpp"))

    listing = json.loads(subprocess.run(
        ["ctest", "--test-dir", str(build), "--show-only=json-v1"],
        check=True, capture_output=True, text=True).stdout)
    entries = {t["name"]: t["command"] for t in listing["tests"]}
    failures = []
    if sorted(entries) != files:
        failures.append(
            "ctest entries do not match tests/test_*.cpp one to one: "
            f"missing {sorted(set(files) - set(entries))}, "
            f"extra {sorted(set(entries) - set(files))}")

    if not entries:
        sys.exit("error: ctest lists no entry")
    program = next(iter(entries.values()))[0]
    every_case = list_cases([program])
    owner = {}
    summed = 0
    for name, command in sorted(entries.items()):
        cases = list_cases(command)
        if not cases:
            failures.append(f"{name}: runs no case")
        summed += len(cases)
        for case in cases:
            if case in owner:
                failures.append(f"{case}: run by {owner[case]} and {name}")
            owner[case] = name
    unrun = sorted(set(every_case) - set(owner))
    if unrun:
        failures.append(f"{len(unrun)} case(s) no entry runs, e.g. {unrun[:5]}")
    if summed != len(every_case):
        failures.append(f"the entries run {summed} cases, "
                        f"ecs_tests has {len(every_case)}")

    for failure in failures:
        print("error:", failure, file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"{len(entries)} ctest entries, one per tests/test_*.cpp, run "
          f"{summed} of {len(every_case)} ecs_tests cases, each once")


if __name__ == "__main__":
    main()
