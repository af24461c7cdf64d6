#!/usr/bin/env python3
"""Gate micro-benchmark results against a checked-in baseline.

Reads compact benchmark JSON files (the format written by the --json-out
flag of bench_engine_micro / bench_policy_micro: a "build" provenance
block plus "rows", each row carrying "name" and a per-item nanoseconds
field; bare row lists from older binaries still load) and fails when any
row's per-item time regressed by more than --max-ratio over the baseline.
--baseline/--current may be repeated to gate several suites in one
invocation; the i-th baseline is compared against the i-th current file.

Build configurations must match: a comparison where build_type, flags,
native or sanitize differ between baseline and current is refused outright
(a Debug or -march=native run gating against a portable Release baseline
would be noise either way). Compiler, git sha and ipo (link-time
optimisation) differences only warn — baselines are expected to age across
commits, toolchains and link modes.

Besides "build" and "rows", the JSON may carry a top-level "profile"
block — the engine self-profile a --profile-out run embeds (phase-cost
breakdown, decision-latency quantiles). It is deliberately NOT gated:
phase attribution is a diagnostic, noisier than the per-item rows, and a
shifted internal split with a flat total is not a regression. The block
simply rides along into the uploaded artifact for humans and
trace_inspect --profile.

Rows are matched by name. Rows present in only one file are reported but
do not fail the check (benchmark sets evolve); at least one row must match
or the comparison is vacuous and fails. CI machines differ from the
machine that produced the baseline, so the default ratio is deliberately
coarse (3x): it catches complexity-class regressions (an O(live) path
degrading to O(n), a workspace reuse reverting to per-call allocation),
not percent-level noise.
"""

import argparse
import json
import sys

# Build-config keys that must be identical for a comparison to be valid,
# and keys where a difference is expected churn worth a note only.
BUILD_HARD_KEYS = ("build_type", "flags", "native", "sanitize")
BUILD_WARN_KEYS = ("compiler", "git_sha", "ipo")


def per_item_ns(row):
    for key in ("per_decision_ns", "per_event_ns", "per_world_ns"):
        if row.get(key) is not None:
            return float(row[key])
    # Fall back to wall time for rows without a rate counter.
    if row.get("real_time_ms") is not None:
        return float(row["real_time_ms"]) * 1e6
    return None


def load(path):
    """Returns ({name: per_item_ns}, build_dict_or_None)."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        # Only "rows" and "build" matter here; an embedded "profile"
        # block (engine self-profile) is intentionally ignored for gating.
        rows = doc.get("rows", [])
        build = doc.get("build")
    else:  # legacy format: a bare list of rows, no provenance
        rows = doc
        build = None
    out = {}
    for row in rows:
        value = per_item_ns(row)
        if value is not None and value > 0.0:
            out[row["name"]] = value
    return out, build


def check_build(baseline_build, current_build):
    """Returns an error message when the two build configs must not be
    compared, else None. Missing provenance (legacy files) only warns."""
    if baseline_build is None or current_build is None:
        sides = [side for side, build in (("baseline", baseline_build),
                                          ("current", current_build))
                 if build is None]
        print(f"warning: no build metadata in {' and '.join(sides)} "
              "(legacy JSON); build-config check skipped")
        return None
    for key in BUILD_HARD_KEYS:
        if baseline_build.get(key) != current_build.get(key):
            return (f"build config mismatch on '{key}': baseline "
                    f"{baseline_build.get(key)!r} vs current "
                    f"{current_build.get(key)!r}; refusing to compare "
                    "(re-measure with matching builds or refresh the "
                    "baseline)")
    for key in BUILD_WARN_KEYS:
        if baseline_build.get(key) != current_build.get(key):
            print(f"note: {key} differs: baseline "
                  f"{baseline_build.get(key)!r} vs current "
                  f"{current_build.get(key)!r}")
    return None


def compare(baseline_path, current_path, max_ratio):
    """Returns the list of regressed row names, or None when the comparison
    is invalid (no matching rows, or mismatched build configs)."""
    baseline, baseline_build = load(baseline_path)
    current, current_build = load(current_path)

    error = check_build(baseline_build, current_build)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return None

    matched = sorted(set(baseline) & set(current))
    only_baseline = sorted(set(baseline) - set(current))
    only_current = sorted(set(current) - set(baseline))
    for name in only_baseline:
        print(f"note: baseline row not measured this run: {name}")
    for name in only_current:
        print(f"note: new row without baseline: {name}")
    if not matched:
        print("error: no benchmark rows in common between "
              f"{baseline_path} and {current_path}", file=sys.stderr)
        return None

    failures = []
    for name in matched:
        ratio = current[name] / baseline[name]
        status = "FAIL" if ratio > max_ratio else "ok"
        print(f"{status:4s} {name}: {current[name]:.1f} ns vs baseline "
              f"{baseline[name]:.1f} ns (x{ratio:.2f})")
        if ratio > max_ratio:
            failures.append(name)

    if not failures:
        print(f"all {len(matched)} matched benchmarks within x{max_ratio} "
              "of baseline")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, action="append",
                        help="checked-in baseline JSON (repeatable)")
    parser.add_argument("--current", required=True, action="append",
                        help="freshly measured JSON (repeatable, paired "
                             "with --baseline by position)")
    parser.add_argument("--max-ratio", type=float, default=3.0,
                        help="fail when current/baseline exceeds this "
                             "(default: 3.0)")
    args = parser.parse_args()

    if len(args.baseline) != len(args.current):
        print("error: --baseline and --current must be given the same "
              "number of times", file=sys.stderr)
        return 2

    exit_code = 0
    for baseline_path, current_path in zip(args.baseline, args.current):
        if len(args.baseline) > 1:
            print(f"== {current_path} vs {baseline_path} ==")
        failures = compare(baseline_path, current_path, args.max_ratio)
        if failures is None:
            exit_code = 1
        elif failures:
            print(f"error: {len(failures)} benchmark(s) regressed more "
                  f"than x{args.max_ratio}: {', '.join(failures)}",
                  file=sys.stderr)
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
