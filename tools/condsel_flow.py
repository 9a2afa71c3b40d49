#!/usr/bin/env python3
"""condsel_flow: flow-sensitive, one-level-interprocedural dataflow checks.

Where condsel_lint checks single lines and condsel_model checks the lock
graph, this tool follows *values* between layers over the function/call/
return inventory in cpp_model_common.py.  Four check families:

  status-flow     Every constructed `Status`/`StatusOr` error value must
                  reach a `return`, a CONDSEL_RETURN_IF_ERROR propagation,
                  a call argument, or the grep-able StatusIgnored() sink.
                  A Status bound to a local that is never consulted again
                  is a dropped error.
  status-census   Every StatusCode enumerator must be constructed somewhere
                  in src/, classified exactly once in RetryPolicy's
                  terminal-vs-retryable switch (service/retry.cc), and
                  asserted by at least one test.
  deadline-flow   Every loop in a deadline-scoped function reachable from
                  EstimationService::Submit / GetSelectivity::Compute that
                  does nontrivial work (calls into the library or blocks)
                  must poll the deadline -- directly (`Expired()`,
                  `remaining()`/`remaining[]`, `BudgetExhausted()`, a
                  local `expired()` alias) or through a callee that polls.
                  Blocking sleep/wait calls in scoped functions must sit
                  inside a polling loop.
  sanitize-flow   Selectivity-typed values are tainted at the provider /
                  histogram accessors and tracked through assignments and
                  arithmetic; every escaping path (a `double` return, a
                  write to a `.selectivity`-like field) must pass through
                  SanitizeSelectivity.
  hot-path-alloc  CONDSEL_HOT (common/macros.h) marks the estimation hot
                  path.  Every heap-allocation site reachable from a hot
                  function is censused into tools/alloc_budget.toml; a new
                  unsanctioned site (or a stale budget entry) fails CI.
                  Regenerate with --write-budget after an intentional
                  change.

Suppression: `// condsel: allow(<check>)` on the flagged line or the
line above, with a justification comment.  Allows are themselves the
sanctioned escape hatch the checks key on -- they are grep-able.

Self-test: tools/flow_fixtures/<name>/{EXPECT, src/..., tools/...} are
mutated mini-trees; each must trip exactly the check ids in its EXPECT
file ("clean" fixture: empty EXPECT).

Exit status: 0 = clean, 1 = findings (or self-test failure).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
import tomllib

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cpp_model_common as cm  # noqa: E402


# --------------------------------------------------------------------------
# Findings.


class Finding:
    def __init__(self, check: str, file: str, line: int, message: str):
        self.check = check
        self.file = file
        self.line = line
        self.message = message

    def render(self, root: str) -> str:
        rel = os.path.relpath(self.file, root) if self.file else "<census>"
        return f"{rel}:{self.line}: [{self.check}] {self.message}"


# --------------------------------------------------------------------------
# Project model: inventory + raw lines + allow map per file.


class FlowModel:
    def __init__(self, root: str):
        self.root = root
        self.functions: list[cm.FunctionDef] = []
        self.by_name: dict[str, list[cm.FunctionDef]] = {}
        self.raw_lines: dict[str, list[str]] = {}
        self.allowed: dict[str, object] = {}
        for path in cm.iter_source_files(root, cm.LIBRARY_DIRS):
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
            lines = text.splitlines()
            self.raw_lines[path] = lines
            self.allowed[path] = cm.make_allowed(lines)
            for fn in cm.parse_functions(path, text):
                self.functions.append(fn)
                self.by_name.setdefault(fn.name, []).append(fn)

    def is_allowed(self, path: str, lineno: int, check: str) -> bool:
        allow = self.allowed.get(path)
        return bool(allow and allow(lineno - 1, check))

    def find_file(self, *, containing: str) -> str | None:
        for path, lines in sorted(self.raw_lines.items()):
            for line in lines:
                if containing in line:
                    return path
        return None


# Names never resolved to an inventory definition when building call
# graphs: containers/std verbs, tiny bounded helpers (bit twiddling over
# the 32-wide predicate set, accessors), and vocabulary words that would
# otherwise alias across classes.
FLOW_CALL_DENYLIST = frozenset({
    # std / containers / language.
    "assert", "at", "back", "begin", "c_str", "clear", "count", "data",
    "emplace", "emplace_back", "empty", "end", "erase", "exchange", "find",
    "front", "get", "insert", "load", "lock", "make_pair", "make_shared",
    "make_unique", "max", "min", "move", "push_back", "pop_back", "reserve",
    "reset", "resize", "size", "sort", "store", "swap", "to_string",
    "unlock", "value", "value_or",
    # Bounded predicate-set / accessor helpers (O(32) by construction).
    "Contains", "SetElements", "SetSize", "Singleton", "With", "Without",
    "predicate", "is_filter", "is_join", "column", "table", "left", "right",
    "ok", "code",
    "message", "Seconds", "NowSeconds", "SanitizeSelectivity",
    "SanitizeCardinality", "SaturatingMultiply",
})


def resolve_callee(model: FlowModel, callee_text: str) -> cm.FunctionDef | None:
    """Resolve a harvested call to its unique inventory definition, or None.

    Conservative: ambiguous simple names (several definitions) and
    denylisted vocabulary resolve to nothing, same policy as
    condsel_model's lock-graph expansion."""
    name = callee_text.split("::")[-1].strip()
    if name in FLOW_CALL_DENYLIST:
        return None
    defs = model.by_name.get(name)
    if defs and len(defs) == 1:
        return defs[0]
    return None


def reachable_functions(model: FlowModel, roots) -> set[cm.FunctionDef]:
    seen: set[int] = set()
    out: set[cm.FunctionDef] = set()
    work = list(roots)
    while work:
        fn = work.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        out.add(fn)
        for _, callee in fn.calls:
            target = resolve_callee(model, callee)
            if target is not None and id(target) not in seen:
                work.append(target)
    return out


def statement_at(fn: cm.FunctionDef, idx: int) -> tuple[str, int, int]:
    """Join the statement covering body line `idx` (best effort).

    Returns (text, start_idx, end_idx) over fn.body indices.  Walks back
    to the previous terminator and forward to the next `;` / `{`."""
    start = idx
    while start > 0 and idx - start < 6:
        prev = fn.body[start - 1][1].rstrip()
        if prev.endswith((";", "{", "}", ":")) or prev == "":
            break
        start -= 1
    parts = []
    end = start
    for k in range(start, min(start + 12, len(fn.body))):
        code = fn.body[k][1]
        parts.append(code.strip())
        end = k
        if ";" in code or code.rstrip().endswith("{"):
            break
    return " ".join(parts), start, end


def _statement_prefix(fn: cm.FunctionDef, idx: int, col: int) -> str:
    """Statement text strictly before column `col` of body line `idx`:
    the joined lines back to the previous terminator plus this line's
    prefix.  Used to classify where a Status construction lands."""
    start = idx
    while start > 0 and idx - start < 6:
        prev = fn.body[start - 1][1].rstrip()
        if prev.endswith((";", "{", "}", ":")) or prev == "":
            break
        start -= 1
    parts = [fn.body[k][1].strip() for k in range(start, idx)]
    parts.append(fn.body[idx][1][:col])
    return " ".join(parts)


# --------------------------------------------------------------------------
# Check 1: status-flow.

STATUS_ERROR_FACTORIES = (
    "Error", "InvalidArgument", "NotFound", "FailedPrecondition",
    "ResourceExhausted", "DeadlineExceeded", "DataLoss", "Internal",
    "RejectedOverload", "Unavailable",
)
STATUS_CONSTRUCT_RE = re.compile(
    r"\bStatus\s*::\s*(%s)\s*\(" % "|".join(STATUS_ERROR_FACTORIES))
# `Status s = ...` / `StatusOr<T> s = ...` / `auto s = StatusFn(...)`.
STATUS_DECL_RE = re.compile(
    r"(?:^|[({;]\s*)(?:const\s+)?(?:Status|StatusOr<[^;=()]*>)\s+"
    r"([A-Za-z_]\w*)\s*=")
ESCAPE_BEFORE_RE = re.compile(
    r"\breturn\b|\bco_return\b|\bthrow\b|\bCONDSEL_RETURN_IF_ERROR\b|"
    r"\bStatusIgnored\s*\(")


def _paren_depth(text: str) -> int:
    return text.count("(") - text.count(")")


def check_status_flow(model: FlowModel) -> list[Finding]:
    findings: list[Finding] = []
    for fn in model.functions:
        tracked: dict[str, int] = {}  # var -> body index after which a
        #                               mention must appear
        for i, (lineno, code) in enumerate(fn.body):
            stmt, _, end = statement_at(fn, i)
            # (a) explicit error constructions on this line.
            for m in STATUS_CONSTRUCT_RE.finditer(code):
                before = _statement_prefix(fn, i, m.start())
                if ESCAPE_BEFORE_RE.search(before):
                    continue  # returned / thrown / propagated / sunk
                if _paren_depth(before) > 0:
                    continue  # argument of a call: escapes to the callee
                bind = re.search(r"([A-Za-z_]\w*)\s*[*+/|&-]?=\s*$", before)
                if bind:
                    var = bind.group(1)
                    if var.endswith("_") or "->" in before or "." in before:
                        continue  # member / field: escapes the function
                    tracked[var] = end
                    continue
                if model.is_allowed(fn.path, lineno, "status-flow"):
                    continue
                findings.append(Finding(
                    "status-flow", fn.path, lineno,
                    f"{fn.qual}: constructed Status::{m.group(1)} is "
                    "dropped -- it reaches no return, propagation macro, "
                    "call argument, or StatusIgnored() sink"))
            # (b) declared Status locals initialized from a call.
            if ";" in code or code.rstrip().endswith("{"):
                for dm in STATUS_DECL_RE.finditer(stmt):
                    var = dm.group(1)
                    if var not in tracked:
                        tracked[var] = end
        # A tracked local must be consulted after its binding statement
        # (same statement counts: `if (Status s = F(); !s.ok()) ...`).
        for var, end in tracked.items():
            bind_line = fn.body[min(end, len(fn.body) - 1)][0]
            mention = re.compile(r"\b%s\b" % re.escape(var))
            stmt_text, start, _ = statement_at(fn, end)
            tail = stmt_text.split("=", 1)[1] if "=" in stmt_text else ""
            consulted = bool(mention.search(tail))
            for _, later in fn.body[end + 1:]:
                if mention.search(later):
                    consulted = True
                    break
            if consulted:
                continue
            if model.is_allowed(fn.path, bind_line, "status-flow"):
                continue
            findings.append(Finding(
                "status-flow", fn.path, bind_line,
                f"{fn.qual}: Status bound to '{var}' is never consulted "
                "afterwards -- dropped error (return it, test .ok(), or "
                "sink it through StatusIgnored())"))
    return findings


# --------------------------------------------------------------------------
# Check 2: status-census.

ENUM_OPEN_RE = re.compile(r"^\s*enum\s+class\s+StatusCode\b")
ENUMERATOR_RE = re.compile(r"^\s*(k\w+)\s*[,=}]")
CASE_RE = re.compile(r"\bcase\s+StatusCode::(k\w+)\s*:")


def parse_status_codes(text: str) -> list[str]:
    out, in_enum = [], False
    for raw in text.splitlines():
        line = cm.strip_line_comment(raw)
        if not in_enum:
            if ENUM_OPEN_RE.search(line):
                in_enum = True
            continue
        m = ENUMERATOR_RE.match(line)
        if m:
            out.append(m.group(1))
        if "}" in line:
            break
    return out


def check_status_census(model: FlowModel):
    """Returns (findings, census_rows). Skips silently when the tree has
    no StatusCode enum (mutation fixtures)."""
    findings: list[Finding] = []
    enum_path = model.find_file(containing="enum class StatusCode")
    if enum_path is None:
        return findings, []
    codes = parse_status_codes("\n".join(model.raw_lines[enum_path]))

    # Construction sites: Status::<Factory>( or Error(StatusCode::kX.
    constructed: dict[str, int] = {c: 0 for c in codes}
    for path, lines in model.raw_lines.items():
        if path == enum_path:
            continue  # the factory declarations themselves don't count
        text = "\n".join(cm.strip_line_comment(l) for l in lines)
        for code in codes:
            factory = code[1:] if code.startswith("k") else code
            n = len(re.findall(r"\bStatus::%s\s*\(" % factory, text))
            n += len(re.findall(
                r"Error\s*\(\s*StatusCode::%s\b" % code, text))
            constructed[code] += n
    # kOk is also constructed by the default Status() constructor.
    ok_default = "kOk" in constructed and model.find_file(
        containing="StatusCode::kOk;") is not None
    for code in codes:
        if constructed[code] == 0 and not (code == "kOk" and ok_default):
            findings.append(Finding(
                "status-census", enum_path, 1,
                f"StatusCode::{code} is never constructed in src/ -- "
                "dead error vocabulary (add the producing path or remove "
                "the enumerator)"))

    # Classification: exactly one `case` in RetryableStatusCode's switch.
    retry_defs = [fn for fn in model.functions
                  if fn.name == "RetryableStatusCode"]
    if retry_defs:
        rp = retry_defs[0]
        cases: dict[str, int] = {}
        for _, code_line in rp.body:
            for m in CASE_RE.finditer(code_line):
                cases[m.group(1)] = cases.get(m.group(1), 0) + 1
        for code in codes:
            n = cases.get(code, 0)
            if n != 1:
                findings.append(Finding(
                    "status-census", rp.path, rp.line,
                    f"StatusCode::{code} appears {n}x in "
                    "RetryableStatusCode's terminal-vs-retryable switch "
                    "(must be classified exactly once)"))
        for code, n in sorted(cases.items()):
            if code not in codes:
                findings.append(Finding(
                    "status-census", rp.path, rp.line,
                    f"RetryableStatusCode classifies unknown enumerator "
                    f"StatusCode::{code}"))

    # Test assertions: each code referenced by at least one test.
    tests_dir = os.path.join(model.root, "tests")
    tested: dict[str, int] = {c: 0 for c in codes}
    if os.path.isdir(tests_dir):
        for path in cm.iter_source_files(model.root, ("tests",)):
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
            for code in codes:
                factory = code[1:] if code.startswith("k") else code
                if re.search(r"\bStatusCode::%s\b" % code, text) or \
                        re.search(r"\bStatus::%s\s*\(" % factory, text):
                    tested[code] += 1
        for code in codes:
            if tested[code] == 0:
                findings.append(Finding(
                    "status-census", enum_path, 1,
                    f"StatusCode::{code} is asserted by no test under "
                    "tests/"))

    rows = [(c, constructed[c], tested.get(c, 0)) for c in codes]
    return findings, rows


# --------------------------------------------------------------------------
# Check 3: deadline-flow.

DEADLINE_ROOT_NAMES = ("Submit", "Compute")
POLL_RE = re.compile(
    r"(?i)\bexpired\s*\(|\bremaining\s*[(\[]|\bBudgetExhausted\s*\(|"
    r"deadline")
SLEEP_WAIT_RE = re.compile(
    r"\b(?:sleep_for|sleep_until|wait_for|wait_until)\s*\(|"
    r"\.\s*(?:wait|join)\s*\(")


def deadline_scoped(fn: cm.FunctionDef) -> bool:
    return "eadline" in fn.head or "eadline" in fn.body_text()


def _loop_polls(model: FlowModel, text: str) -> bool:
    if POLL_RE.search(text):
        return True
    # One-level interprocedural: a callee that polls counts as polling
    # (e.g. the separable-components loop delegating to ComputeEntry).
    for m in cm.INV_CALL_RE.finditer(text):
        target = resolve_callee(model, m.group(1))
        if target is not None and POLL_RE.search(target.body_text()):
            return True
    return False


def _loop_does_work(model: FlowModel, fn: cm.FunctionDef, text: str) -> bool:
    if cm.BLOCKING_CALL_RE.search(text):
        return True
    for m in cm.INV_CALL_RE.finditer(text):
        target = resolve_callee(model, m.group(1))
        if target is not None and target is not fn:
            return True
    return False


def check_deadline_flow(model: FlowModel) -> list[Finding]:
    findings: list[Finding] = []
    roots = [fn for fn in model.functions if fn.name in DEADLINE_ROOT_NAMES]
    for fn in sorted(reachable_functions(model, roots),
                     key=lambda f: (f.path, f.line)):
        if not deadline_scoped(fn):
            continue  # no deadline in scope: nothing can be armed here
        polling_spans = []  # loops that poll, for the blocking-call check
        for lineno, header, body, end_lineno in fn.loops:
            text = header + "\n" + body
            polls = _loop_polls(model, text)
            if polls:
                polling_spans.append((lineno, end_lineno))
            if not _loop_does_work(model, fn, body):
                continue  # bounded local arithmetic: exempt
            if polls:
                continue
            if model.is_allowed(fn.path, lineno, "deadline-flow"):
                continue
            findings.append(Finding(
                "deadline-flow", fn.path, lineno,
                f"{fn.qual}: loop does library work while a deadline can "
                "be armed but never polls it (check Expired()/remaining()"
                "/BudgetExhausted(), or document an allow)"))
        # Blocking sleep/wait sites must sit inside a polling loop, or --
        # for timed waits -- take a deadline-derived timeout.
        for i, (lineno, code) in enumerate(fn.body):
            if not SLEEP_WAIT_RE.search(code):
                continue
            inside = any(a <= lineno <= b for a, b in polling_spans)
            if inside or model.is_allowed(fn.path, lineno, "deadline-flow"):
                continue
            stmt, _, _ = statement_at(fn, i)
            if re.search(r"_for\s*\(|_until\s*\(", code) and re.search(
                    r"(?i)max_wait|backoff|remaining|deadline|timeout|"
                    r"expired", stmt):
                continue  # bounded by a deadline-derived budget
            findings.append(Finding(
                "deadline-flow", fn.path, lineno,
                f"{fn.qual}: blocking call while a deadline can be armed, "
                "outside any deadline-polling loop"))
    return findings


# --------------------------------------------------------------------------
# Check 4: sanitize-flow.

TAINT_SOURCE_RE = re.compile(
    r"(?:->|\.)\s*(?:Estimate|EstimateWith|EstimateFilterWith|Score)\s*\(|"
    r"\bRangeSelectivity\s*\(|\bEqualsSelectivity\s*\(|"
    r"\b(?:JoinHistograms|JoinSelectivity)\s*\(|"
    r"(?:\.|->)\s*selectivity\b")
SANITIZE_WRAP_RE = re.compile(
    r"^\s*(?:::)?(?:condsel::)?Sanitize(?:Selectivity|Cardinality)\s*\(")
SINK_FIELD_RE = re.compile(
    r"([A-Za-z_]\w*(?:\.|->))(selectivity|factor_selectivity|"
    r"head_selectivity)\s*([*+/-]?=)(?!=)\s*(.+?);")
ASSIGN_RE = re.compile(
    r"(?:^\s*|[({;]\s*)(?:const\s+)?(?:double|auto)?\s*&?\s*"
    r"([A-Za-z_]\w*)\s*([*+/-]?=)(?!=)\s*(.+?);")
DOUBLE_RETURN_RE = re.compile(r"\b(?:double|StatusOr<double>)\b")


def sanitize_scope(model: FlowModel, path: str) -> bool:
    rel = os.path.relpath(path, model.root).replace(os.sep, "/")
    return ("/selectivity/" in rel or "/baselines/" in rel
            or rel.endswith("api.cc"))


def _expr_tainted(expr: str, tainted: set[str]) -> bool:
    if SANITIZE_WRAP_RE.match(expr.strip()):
        return False
    if TAINT_SOURCE_RE.search(expr):
        return True
    return any(re.search(r"\b%s\b" % re.escape(v), expr) for v in tainted)


def _sanitizing_functions(model: FlowModel) -> set[str]:
    """Function names whose every return statement is sanitize-wrapped.
    Calls to these are clean sources (one-level interprocedural)."""
    out = set()
    for fn in model.functions:
        if not fn.returns:
            continue
        if all("SanitizeSelectivity" in stmt or "SanitizeCardinality" in stmt
               for _, stmt in fn.returns):
            out.add(fn.name)
    return out


def check_sanitize_flow(model: FlowModel, taint_edges: list) -> list[Finding]:
    findings: list[Finding] = []
    # A kernel named in TAINT_SOURCE_RE stays a source even when it
    # sanitizes its own return (JoinSelectivity): a per-piece sum of
    # clamped values is not itself clamped.
    sanitizers = {name for name in _sanitizing_functions(model)
                  if not TAINT_SOURCE_RE.search(name + "(")}

    def scrub(expr: str) -> str:
        # Calls to always-sanitizing functions are clean: blank them out
        # before source matching.
        for name in sanitizers:
            expr = re.sub(r"\b%s\s*\(" % re.escape(name), "__clean__(", expr)
        return expr

    for fn in model.functions:
        if not sanitize_scope(model, fn.path):
            continue
        tainted: set[str] = set()
        for lineno, code in fn.body:
            # Field sinks first (their pattern also matches ASSIGN_RE).
            sink = SINK_FIELD_RE.search(code)
            if sink:
                rhs = scrub(sink.group(4))
                if _expr_tainted(rhs, tainted):
                    if not model.is_allowed(fn.path, lineno, "sanitize-flow"):
                        findings.append(Finding(
                            "sanitize-flow", fn.path, lineno,
                            f"{fn.qual}: unsanitized selectivity escapes "
                            f"into field '{sink.group(1)}{sink.group(2)}' "
                            "(wrap the value in SanitizeSelectivity)"))
                        taint_edges.append((fn, lineno, "field", False))
                else:
                    taint_edges.append((fn, lineno, "field", True))
                continue
            m = ASSIGN_RE.search(code)
            if m:
                var, op, rhs = m.group(1), m.group(2), scrub(m.group(3))
                if op == "=" and SANITIZE_WRAP_RE.match(rhs.strip()):
                    tainted.discard(var)  # `sel = SanitizeSelectivity(sel);`
                elif _expr_tainted(rhs, tainted):
                    tainted.add(var)
        if not DOUBLE_RETURN_RE.search(fn.head.split(fn.name)[0]):
            continue
        for lineno, stmt in fn.returns:
            expr = scrub(stmt[len("return"):].strip().rstrip(";"))
            if not expr or SANITIZE_WRAP_RE.match(expr):
                continue
            if _expr_tainted(expr, tainted):
                if model.is_allowed(fn.path, lineno, "sanitize-flow"):
                    continue
                findings.append(Finding(
                    "sanitize-flow", fn.path, lineno,
                    f"{fn.qual}: returns a selectivity that never passed "
                    "SanitizeSelectivity on this path"))
                taint_edges.append((fn, lineno, "return", False))
            else:
                taint_edges.append((fn, lineno, "return", True))
    return findings


# --------------------------------------------------------------------------
# Check 5: hot-path-alloc.

ALLOC_KINDS = (
    ("new", re.compile(r"(?<![\w.])new\s+[A-Za-z_(]")),
    ("make_unique", re.compile(r"\bmake_unique\b")),
    ("make_shared", re.compile(r"\bmake_shared\b")),
    ("push_back", re.compile(r"(?:\.|->)\s*push_back\s*\(")),
    ("emplace_back", re.compile(r"(?:\.|->)\s*emplace_back\s*\(")),
    ("emplace", re.compile(r"(?:\.|->)\s*emplace\s*\(")),
    ("insert", re.compile(r"(?:\.|->)\s*insert\s*\(")),
    ("resize", re.compile(r"(?:\.|->)\s*resize\s*\(")),
    ("reserve", re.compile(r"(?:\.|->)\s*reserve\s*\(")),
    ("to_string", re.compile(r"\bto_string\s*\(")),
)
BUDGET_RELPATH = os.path.join("tools", "alloc_budget.toml")


def hot_alloc_census(model: FlowModel):
    """{(relpath, qual, kind): count} over functions reachable from any
    CONDSEL_HOT-annotated function."""
    hot_roots = [fn for fn in model.functions if fn.hot]
    census: dict[tuple[str, str, str], int] = {}
    for fn in sorted(reachable_functions(model, hot_roots),
                     key=lambda f: (f.path, f.line)):
        rel = os.path.relpath(fn.path, model.root).replace(os.sep, "/")
        for lineno, code in fn.body:
            if model.is_allowed(fn.path, lineno, "hot-path-alloc"):
                continue
            for kind, rx in ALLOC_KINDS:
                hits = len(rx.findall(code))
                if hits:
                    key = (rel, fn.qual, kind)
                    census[key] = census.get(key, 0) + hits
    return census


def load_budget(path: str) -> dict[tuple[str, str, str], int]:
    with open(path, "rb") as f:
        data = tomllib.load(f)
    out: dict[tuple[str, str, str], int] = {}
    for site in data.get("site", []):
        out[(site["file"], site["function"], site["kind"])] = site["count"]
    return out


def render_budget(census) -> str:
    lines = [
        "# Hot-path allocation budget -- generated by",
        "#   python3 tools/condsel_flow.py --write-budget",
        "# Every heap-allocation site reachable from a CONDSEL_HOT",
        "# function. condsel_flow fails when source and budget disagree",
        "# in either direction; regenerate after an intentional change.",
        "# The arena/dense-memo work tracks this file toward zero.",
        "",
    ]
    for (rel, qual, kind), count in sorted(census.items()):
        lines += [
            "[[site]]",
            f'file = "{rel}"',
            f'function = "{qual}"',
            f'kind = "{kind}"',
            f"count = {count}",
            "",
        ]
    return "\n".join(lines)


def check_hot_path_alloc(model: FlowModel):
    findings: list[Finding] = []
    census = hot_alloc_census(model)
    budget_path = os.path.join(model.root, BUDGET_RELPATH)
    if not any(fn.hot for fn in model.functions):
        return findings, census  # tree without annotations: nothing to gate
    if not os.path.isfile(budget_path):
        findings.append(Finding(
            "hot-path-alloc", budget_path, 1,
            "tools/alloc_budget.toml is missing -- run "
            "`python3 tools/condsel_flow.py --write-budget`"))
        return findings, census
    budget = load_budget(budget_path)
    for key, count in sorted(census.items()):
        sanctioned = budget.get(key, 0)
        if count > sanctioned:
            rel, qual, kind = key
            findings.append(Finding(
                "hot-path-alloc", os.path.join(model.root, rel), 1,
                f"{qual}: {count}x '{kind}' on the hot path but only "
                f"{sanctioned} sanctioned in tools/alloc_budget.toml "
                "(avoid the allocation, or regenerate with "
                "--write-budget and justify in the PR)"))
    for key, sanctioned in sorted(budget.items()):
        if census.get(key, 0) < sanctioned:
            rel, qual, kind = key
            findings.append(Finding(
                "hot-path-alloc", budget_path, 1,
                f"stale budget entry: {qual} '{kind}' sanctions "
                f"{sanctioned} but source has {census.get(key, 0)} -- "
                "regenerate with --write-budget"))
    return findings, census


# --------------------------------------------------------------------------
# DOT dumps (CI failure artifacts).


def write_status_dot(path: str, model: FlowModel, census_rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("digraph status_flow {\n  rankdir=LR;\n")
        f.write('  node [shape=box, fontsize=10];\n')
        for fn in model.functions:
            body = fn.body_text()
            for m in STATUS_CONSTRUCT_RE.finditer(body):
                f.write(f'  "{fn.qual}" -> "Status::{m.group(1)}";\n')
        for code, built, tested in census_rows:
            color = "black" if built and tested else "red"
            f.write(f'  "StatusCode::{code}" '
                    f'[shape=ellipse, color={color}, '
                    f'label="StatusCode::{code}\\nbuilt={built} '
                    f'tested={tested}"];\n')
        f.write("}\n")


def write_taint_dot(path: str, model: FlowModel, taint_edges) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("digraph taint_flow {\n  rankdir=LR;\n")
        f.write('  node [shape=box, fontsize=10];\n')
        for fn, lineno, kind, clean in taint_edges:
            rel = os.path.relpath(fn.path, model.root)
            color = "green" if clean else "red"
            f.write(f'  "{fn.qual}" -> "{kind}@{rel}:{lineno}" '
                    f'[color={color}];\n')
        f.write("}\n")


# --------------------------------------------------------------------------
# Driver.


def run_checks(root: str, status_dot: str | None = None,
               taint_dot: str | None = None, verbose: bool = True):
    model = FlowModel(root)
    findings: list[Finding] = []
    taint_edges: list = []

    findings += check_status_flow(model)
    census_findings, census_rows = check_status_census(model)
    findings += census_findings
    findings += check_deadline_flow(model)
    findings += check_sanitize_flow(model, taint_edges)
    alloc_findings, alloc_census = check_hot_path_alloc(model)
    findings += alloc_findings

    if status_dot:
        write_status_dot(status_dot, model, census_rows)
    if taint_dot:
        write_taint_dot(taint_dot, model, taint_edges)

    if verbose:
        hot = sum(1 for fn in model.functions if fn.hot)
        print(f"condsel_flow: {len(model.functions)} functions, "
              f"{hot} CONDSEL_HOT, "
              f"{sum(alloc_census.values())} hot-path allocation sites "
              f"across {len(alloc_census)} budget entries")
        if census_rows:
            print("status-census (code / constructions / test files):")
            for code, built, tested in census_rows:
                print(f"  {code:<22} {built:>3} {tested:>3}")
    return findings, model, alloc_census


def run_self_test(fixtures_dir: str) -> int:
    names = sorted(d for d in os.listdir(fixtures_dir)
                   if os.path.isdir(os.path.join(fixtures_dir, d)))
    if not names:
        print(f"no fixtures under {fixtures_dir}", file=sys.stderr)
        return 1
    failures = 0
    for name in names:
        fixture = os.path.join(fixtures_dir, name)
        expect_path = os.path.join(fixture, "EXPECT")
        with open(expect_path, encoding="utf-8") as f:
            expected = {line.strip() for line in f
                        if line.strip() and not line.startswith("#")}
        findings, _, _ = run_checks(fixture, verbose=False)
        got = {f.check for f in findings}
        if got != expected:
            failures += 1
            print(f"self-test FAIL: fixture '{name}': expected "
                  f"{sorted(expected) or ['<clean>']}, got "
                  f"{sorted(got) or ['<clean>']}", file=sys.stderr)
            for f_ in findings:
                print(f"    {f_.render(fixture)}", file=sys.stderr)
        else:
            print(f"self-test ok: fixture '{name}' -> "
                  f"{', '.join(sorted(expected)) or '<clean>'}")
    if failures:
        return 1
    print(f"condsel_flow --self-test: all {len(names)} fixtures behaved")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="project root (default: repo root above tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the flow_fixtures mutation corpus")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="fail if the analysis exceeds this wall time")
    parser.add_argument("--status-dot", default=None,
                        help="write the status/census graph to this file")
    parser.add_argument("--taint-dot", default=None,
                        help="write the selectivity taint graph to this file")
    parser.add_argument("--write-budget", action="store_true",
                        help="regenerate tools/alloc_budget.toml and exit")
    args = parser.parse_args(argv)

    tools_dir = os.path.dirname(os.path.abspath(__file__))
    root = args.root or os.path.dirname(tools_dir)

    if args.self_test:
        return run_self_test(os.path.join(tools_dir, "flow_fixtures"))

    start = time.monotonic()
    if args.write_budget:
        model = FlowModel(root)
        census = hot_alloc_census(model)
        out = os.path.join(root, BUDGET_RELPATH)
        with open(out, "w", encoding="utf-8") as f:
            f.write(render_budget(census))
        print(f"wrote {len(census)} budget entries to {out}")
        return 0

    findings, _, _ = run_checks(root, status_dot=args.status_dot,
                                taint_dot=args.taint_dot)
    elapsed = time.monotonic() - start
    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(f"condsel_flow: exceeded --max-seconds budget "
              f"({elapsed:.1f}s > {args.max_seconds:.1f}s)",
              file=sys.stderr)
        return 1
    if findings:
        for f in sorted(findings, key=lambda f: (f.file, f.line, f.check)):
            print(f.render(root), file=sys.stderr)
        print(f"condsel_flow: {len(findings)} finding(s) in {elapsed:.1f}s",
              file=sys.stderr)
        return 1
    print(f"condsel_flow: clean in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
