#!/usr/bin/env python3
"""condsel_lint — project invariants clang-tidy cannot express.

Rules (suppress one occurrence with `condsel: allow(<rule>)` in a
comment on the same or the preceding line):

  pragma-once           every header uses `#pragma once`; no `#ifndef`
                        include guards.
  using-namespace       no `using namespace` in headers anywhere, nor in
                        library code under src/ (tools/tests/bench may,
                        with an explicit allow).
  check-justified       in files that expose a Status/StatusOr path,
                        every CONDSEL_CHECK / CONDSEL_CHECK_MSG must be
                        justified as an internal invariant: a comment
                        containing `invariant` on the CHECK's line or the
                        line above. Unjustified CHECKs in status-routed
                        code are exactly the aborts PR 1 set out to
                        eliminate — validate and return Status instead.
  exhaustive-status-switch
                        no `default:` label in a switch over StatusCode in
                        library code. StatusCodeName and
                        RetryableStatusCode stay exhaustive so that adding
                        an enumerator breaks the build (-Wswitch +
                        -Werror) at every classification site instead of
                        silently falling into a default; condsel_flow's
                        status-census then checks each enumerator is
                        constructed, classified once, and tested.
  include-hygiene       no relative (`"../"`, `"./"`) or `"src/`-prefixed
                        includes; library code does not include
                        <iostream> (embedders own logging policy, and the
                        library is printf-style throughout).
  no-direct-abort       library code never calls abort()/exit() directly;
                        CONDSEL_CHECK (macros.h) is the only allowed
                        abort path.
  nodiscard-status      Status and StatusOr are [[nodiscard]]; library
                        code must not launder a discarded result through a
                        `(void)` cast. Intentional discards use the
                        grep-able StatusIgnored() sink (status.h) with an
                        explicit allow.
  no-raw-histogram-lookup
                        estimator code (src/condsel/{selectivity,baselines,
                        optimizer}/) must not call the histogram selectivity
                        accessors (RangeSelectivity / EqualsSelectivity)
                        or join kernels (JoinHistograms / JoinSelectivity),
                        read a SIT's per-part piece vector (`sit.parts`),
                        or touch PartStatsSet/PartStatsEntry directly —
                        AtomicSelectivityProvider
                        (selectivity/atomic_provider.cc, the one exempt
                        file) is the single lookup *and* part-merge layer,
                        so sanitization, fault injection, the
                        cardinality-weighted merge, and FactorProvenance
                        cannot be bypassed. histogram/ itself and the
                        non-estimator approximation layers are out of
                        scope.
  raw-set-deadline      library code under src/ must not park a deadline in
                        shared mutable state via a `set_deadline(...)`
                        setter: deadlines are per-call arguments (Score's
                        deadline parameter) armed through the RAII
                        ScopedDeadline helper, so concurrent estimators
                        sharing a provider cannot clobber — or dangle —
                        each other's clock. selectivity/budget.{h,cc}
                        (which define the sanctioned primitives) are
                        exempt.
  arena-no-escape       memory obtained from an Arena (common/arena.h) is
                        scratch for the Compute() that allocated it:
                        Reset() recycles blocks without destructors or
                        poisoning. Library code must not declare a
                        static/thread_local arena (outlives every call,
                        shared across threads), pin an Allocate result in
                        a member, or hand out a pointer/reference to an
                        ArenaVector from a function — copy values out
                        instead. arena.h itself (the primitives) is
                        exempt.

Concurrency contracts (guarded fields, blocking under the snapshot acquire
path) are checked by condsel_model, not here.

Usage:
  condsel_lint.py [--root REPO]      lint the repository (exit 1 on findings)
  condsel_lint.py --self-test        run the rules against the fixture
                                     corpus in tools/lint_fixtures/
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpp_model_common as cm  # noqa: E402

EXTENSIONS = (".h", ".cc")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def check_pragma_once(path: str, text: str, lines: list[str],
                      allowed) -> list[Finding]:
    if not path.endswith(".h"):
        return []
    findings = []
    if "#pragma once" not in text:
        findings.append(Finding(path, 1, "pragma-once",
                                "header lacks `#pragma once`"))
    for i, line in enumerate(lines):
        if re.match(r"\s*#ifndef\s+\w*_H_?\b", line):
            if not allowed(i, "pragma-once"):
                findings.append(Finding(
                    path, i + 1, "pragma-once",
                    "include guard found; use `#pragma once` instead"))
    return findings


def check_using_namespace(path: str, text: str,
                          lines: list[str], allowed) -> list[Finding]:
    in_header = path.endswith(".h")
    in_library = path.startswith("src/")
    if not (in_header or in_library):
        return []
    findings = []
    for i, line in enumerate(lines):
        if re.match(r"\s*using\s+namespace\b", line):
            if allowed(i, "using-namespace"):
                continue
            where = "headers" if in_header else "library code"
            findings.append(Finding(
                path, i + 1, "using-namespace",
                f"`using namespace` is not allowed in {where}"))
    return findings


CHECK_RE = re.compile(r"\bCONDSEL_CHECK(_MSG)?\s*\(")
STATUS_RE = re.compile(r"\bStatusOr<|\bStatus\s+[A-Za-z_]|\bStatus::")


def check_justified(path: str, text: str, lines: list[str],
                    allowed) -> list[Finding]:
    if not path.startswith("src/"):
        return []
    if not STATUS_RE.search(text):
        return []  # no recoverable path exists in this file
    findings = []
    for i, line in enumerate(lines):
        if not CHECK_RE.search(line):
            continue
        if line.lstrip().startswith("//") or line.lstrip().startswith("#"):
            continue  # comment or macro definition, not a call
        context = lines[max(0, i - 1): i + 1]
        if any("invariant" in c for c in context):
            continue
        if allowed(i, "check-justified"):
            continue
        findings.append(Finding(
            path, i + 1, "check-justified",
            "CONDSEL_CHECK in status-routed code needs an `invariant:` "
            "comment (or convert it to a Status return)"))
    return findings


def check_includes(path: str, text: str, lines: list[str],
                   allowed) -> list[Finding]:
    findings = []
    for i, line in enumerate(lines):
        m = re.match(r'\s*#include\s+"([^"]+)"', line)
        if m:
            target = m.group(1)
            if target.startswith(("../", "./")) or target.startswith("src/"):
                if not allowed(i, "include-hygiene"):
                    findings.append(Finding(
                        path, i + 1, "include-hygiene",
                        f'include "{target}" must be repo-rooted '
                        '(e.g. "condsel/...")'))
        if path.startswith("src/") and re.match(
                r"\s*#include\s+<iostream>", line):
            if not allowed(i, "include-hygiene"):
                findings.append(Finding(
                    path, i + 1, "include-hygiene",
                    "library code must not include <iostream>"))
    return findings


ABORT_RE = re.compile(r"\b(?:std::)?(abort|exit)\s*\(")


def check_no_abort(path: str, text: str, lines: list[str],
                   allowed) -> list[Finding]:
    if not path.startswith("src/"):
        return []
    if path.endswith("common/macros.h"):
        return []  # the one sanctioned abort site
    findings = []
    for i, line in enumerate(lines):
        stripped = line.split("//")[0]
        if ABORT_RE.search(stripped):
            if not allowed(i, "no-direct-abort"):
                findings.append(Finding(
                    path, i + 1, "no-direct-abort",
                    "library code must not call abort()/exit() directly; "
                    "use CONDSEL_CHECK or return a Status"))
    return findings


VOID_DISCARD_RE = re.compile(r"\(void\)\s*([A-Za-z_][^;]*)")
STATUSISH_RE = re.compile(r"[Ss]tatus|\bTry[A-Z]")


def check_nodiscard_status(path: str, text: str,
                           lines: list[str], allowed) -> list[Finding]:
    if not path.startswith("src/"):
        return []
    findings = []
    for i, line in enumerate(lines):
        code = line.split("//")[0]
        m = VOID_DISCARD_RE.search(code)
        if not m or not STATUSISH_RE.search(m.group(1)):
            continue
        if allowed(i, "nodiscard-status"):
            continue
        findings.append(Finding(
            path, i + 1, "nodiscard-status",
            "`(void)` cast launders a [[nodiscard]] Status; handle it or "
            "discard explicitly with StatusIgnored()"))
    return findings


RAW_HISTOGRAM_RE = re.compile(
    r"(?:\.|->)\s*(RangeSelectivity|EqualsSelectivity)\s*\(")
# The free histogram-join kernels (histogram/histogram_join.h).
RAW_JOIN_KERNEL_RE = re.compile(r"\b(JoinHistograms|JoinSelectivity)\s*\(")
# Partitioned statistics: a Sit's per-part piece vector and the stored
# PartStatsSet/PartStatsEntry containers. Estimator code reading these
# directly would re-implement the cardinality-weighted merge (and skip
# its validation); AtomicSelectivityProvider's ForEachPiece is the only
# sanctioned merge loop.
RAW_PART_PIECES_RE = re.compile(r"(?:\.|->)\s*parts\s*(?:\[|\.|\b)")
RAW_PART_STATS_RE = re.compile(r"\bPartStats(?:Set|Entry)\b")
ESTIMATOR_DIRS = ("src/condsel/selectivity/", "src/condsel/baselines/",
                  "src/condsel/optimizer/")


def check_raw_histogram_lookup(path: str, text: str,
                               lines: list[str], allowed) -> list[Finding]:
    if not path.startswith(ESTIMATOR_DIRS):
        return []
    if path == "src/condsel/selectivity/atomic_provider.cc":
        return []  # the one sanctioned lookup layer
    findings = []
    for i, line in enumerate(lines):
        code = line.split("//")[0]
        m = RAW_HISTOGRAM_RE.search(code)
        join = RAW_JOIN_KERNEL_RE.search(code)
        part_reason = None
        if m or join:
            name = f"Histogram::{m.group(1)}" if m else join.group(1)
            part_reason = (
                f"estimator code calls {name} directly; "
                "route the lookup through AtomicSelectivityProvider so "
                "sanitization, fault hooks, and provenance apply")
        elif RAW_PART_PIECES_RE.search(code):
            part_reason = (
                "estimator code reads a SIT's per-part pieces directly; "
                "the cardinality-weighted merge lives in "
                "AtomicSelectivityProvider (ForEachPiece) so partitioned "
                "and flat statistics estimate through one code path")
        elif RAW_PART_STATS_RE.search(code):
            part_reason = (
                "estimator code touches PartStatsSet/PartStatsEntry "
                "directly; estimators consume the merged SitPool — "
                "per-part storage is the maintenance layer's, behind "
                "BuildMergedPool's validation")
        if part_reason is None:
            continue
        if allowed(i, "no-raw-histogram-lookup"):
            continue
        findings.append(Finding(
            path, i + 1, "no-raw-histogram-lookup", part_reason))
    return findings


SWITCH_RE = re.compile(r"\bswitch\s*\(")
CASE_STATUS_RE = re.compile(r"\bcase\s+StatusCode::")
DEFAULT_LABEL_RE = re.compile(r"^\s*default\s*:")


def check_status_switch(path: str, text: str,
                        lines: list[str], allowed) -> list[Finding]:
    """A switch over StatusCode must stay exhaustive: with -Wswitch (and
    -Werror in CI) a new enumerator then fails to compile at every
    classification site, instead of sliding into a default branch."""
    if not path.startswith("src/"):
        return []
    findings = []
    depth = 0
    pending_switch = False  # saw `switch (` but not its `{` yet
    # Open switch scopes: [scope depth, saw `case StatusCode::`,
    # default-label line indices]. Judged at scope close so a default
    # written above the cases is still caught.
    stack: list[list] = []
    for i, line in enumerate(lines):
        code = line.split("//")[0]
        if SWITCH_RE.search(code):
            pending_switch = True
        if pending_switch and "{" in code:
            stack.append([depth, False, []])
            pending_switch = False
        if stack:
            if CASE_STATUS_RE.search(code):
                stack[-1][1] = True
            if DEFAULT_LABEL_RE.match(code):
                stack[-1][2].append(i)
        depth += code.count("{") - code.count("}")
        while stack and depth <= stack[-1][0]:
            _, is_status, defaults = stack.pop()
            if not is_status:
                continue
            for idx in defaults:
                if allowed(idx, "exhaustive-status-switch"):
                    continue
                findings.append(Finding(
                    path, idx + 1, "exhaustive-status-switch",
                    "switch over StatusCode must not have a default: "
                    "label — keep it exhaustive so -Wswitch flags every "
                    "classification site when an enumerator is added"))
    return findings


RAW_SET_DEADLINE_RE = re.compile(r"\bset_deadline\s*\(")
DEADLINE_EXEMPT_FILES = ("src/condsel/selectivity/budget.h",
                         "src/condsel/selectivity/budget.cc")


def check_raw_set_deadline(path: str, text: str,
                           lines: list[str], allowed) -> list[Finding]:
    if not path.startswith("src/"):
        return []
    if path in DEADLINE_EXEMPT_FILES:
        return []  # the sanctioned deadline primitives live here
    findings = []
    for i, line in enumerate(lines):
        code = line.split("//")[0]
        if not RAW_SET_DEADLINE_RE.search(code):
            continue
        if allowed(i, "raw-set-deadline"):
            continue
        findings.append(Finding(
            path, i + 1, "raw-set-deadline",
            "deadline parked in shared mutable state via set_deadline(); "
            "deadlines are per-call arguments armed through ScopedDeadline "
            "(budget.h), so concurrent searches on shared layers cannot "
            "clobber or dangle each other's clock"))
    return findings


ARENA_EXEMPT_FILES = ("src/condsel/common/arena.h",)
# A static or thread_local Arena/ArenaVector outlives every Compute().
ARENA_STATIC_RE = re.compile(
    r"\b(?:static|thread_local)\s+(?:const\s+)?(?:condsel::)?"
    r"Arena(?:Vector<[^;{>]*>)?\s+\w")
# `member_ = <arena>.Allocate...` pins recycled memory past the call.
ARENA_MEMBER_STORE_RE = re.compile(
    r"\b[A-Za-z]\w*_\s*(?:\[[^\]]*\])?\s*=(?!=)[^;=]*"
    r"\b\w*[Aa]rena\w*\s*(?:\.|->)\s*Allocate(?:Array)?\b")
# A function returning ArenaVector& / ArenaVector* aliases arena storage
# for the caller. Parameters of those types don't match: the name must be
# followed by `(`, i.e. this is a declarator, not a parameter.
ARENA_REF_RETURN_RE = re.compile(
    r"\bArenaVector<[^>]*>\s*[&*]\s*[A-Za-z_][\w:]*\s*\(")


def check_arena_no_escape(path: str, text: str,
                          lines: list[str], allowed) -> list[Finding]:
    if not path.startswith("src/"):
        return []
    if path in ARENA_EXEMPT_FILES:
        return []  # the allocator itself manages its own blocks
    findings = []
    for i, line in enumerate(lines):
        code = line.split("//")[0]
        reason = None
        if ARENA_STATIC_RE.search(code):
            reason = (
                "static/thread_local arena outlives every Compute() and is "
                "shared across threads; arenas live inside one estimator "
                "instance and are Reset() per call (common/arena.h)")
        elif ARENA_MEMBER_STORE_RE.search(code):
            reason = (
                "arena allocation pinned in a member; Reset() recycles the "
                "block at the next Compute() without running destructors, "
                "so the member dangles — copy the values out instead")
        elif ARENA_REF_RETURN_RE.search(code):
            reason = (
                "function hands out a pointer/reference to an ArenaVector; "
                "arena-backed memory is scratch for the Compute() that "
                "allocated it — copy values out to let them outlive it")
        if reason is None:
            continue
        if allowed(i, "arena-no-escape"):
            continue
        findings.append(Finding(path, i + 1, "arena-no-escape", reason))
    return findings


RULES = [
    check_pragma_once,
    check_using_namespace,
    check_justified,
    check_includes,
    check_no_abort,
    check_nodiscard_status,
    check_status_switch,
    check_raw_histogram_lookup,
    check_raw_set_deadline,
    check_arena_no_escape,
]


def lint_text(rel_path: str, text: str) -> list[Finding]:
    lines = text.splitlines()
    allowed = cm.make_allowed(lines)
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule(rel_path, text, lines, allowed))
    return findings


def run_lint(root: str) -> int:
    findings: list[Finding] = []
    count = 0
    for path in cm.iter_source_files(root):
        count += 1
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8") as fh:
            findings.extend(lint_text(rel, fh.read()))
    for f in findings:
        print(f)
    if findings:
        print(f"condsel_lint: {len(findings)} finding(s) in {count} files",
              file=sys.stderr)
        return 1
    print(f"condsel_lint: {count} files clean", file=sys.stderr)
    return 0


EXPECT_RE = re.compile(r"lint-expect:\s*([a-z0-9-]+)")
FIXTURE_PATH_RE = re.compile(r"lint-fixture-path:\s*(\S+)")


def run_self_test(root: str) -> int:
    """Fixture corpus: each file declares its virtual repo path and the
    exact set of rules it must trigger (`lint-expect:` lines)."""
    fixtures = os.path.join(root, "tools", "lint_fixtures")
    if not os.path.isdir(fixtures):
        print(f"error: fixture corpus missing at {fixtures}",
              file=sys.stderr)
        return 2
    failures = 0
    total = 0
    for name in sorted(os.listdir(fixtures)):
        if not name.endswith(EXTENSIONS):
            continue
        total += 1
        with open(os.path.join(fixtures, name), encoding="utf-8") as fh:
            text = fh.read()
        m = FIXTURE_PATH_RE.search(text)
        virtual = m.group(1) if m else f"src/condsel/{name}"
        expected = sorted(set(EXPECT_RE.findall(text)))
        got = sorted({f.rule for f in lint_text(virtual, text)})
        if got != expected:
            failures += 1
            print(f"self-test FAIL {name} (as {virtual}):\n"
                  f"  expected rules: {expected}\n"
                  f"  got:            {got}", file=sys.stderr)
    if failures:
        print(f"condsel_lint --self-test: {failures}/{total} fixtures "
              "failed", file=sys.stderr)
        return 1
    print(f"condsel_lint --self-test: {total} fixtures ok",
          file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="condsel project lint", add_help=True)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--self-test", action="store_true",
                        help="validate the rules against the fixture corpus")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test(args.root)
    return run_lint(args.root)


if __name__ == "__main__":
    sys.exit(main())
