#!/usr/bin/env python3
"""cpp_model_common — the one copy of every C++-shape regex shared by
condsel_lint.py (line-level rules), condsel_model.py (the project model /
lock-graph analyzer) and condsel_flow.py (dataflow contracts).

The analyzers reason about the same surface syntax — source-tree shape,
the one suppression marker (`condsel: allow(<check>)`), mutex
declarations, GUARDED_BY annotations, lock-guard acquisition sites,
blocking calls, class scopes, function inventories — so those regexes
live here once and the tools cannot drift apart.

Run `cpp_model_common.py --self-test` to validate every exported regex
and helper against an embedded corpus of positive/negative examples.
"""

from __future__ import annotations

import os
import re
import sys

# --------------------------------------------------------------------------
# Source tree shape.

SCAN_DIRS = ("src", "tests", "tools", "fuzz", "bench", "examples")
LIBRARY_DIRS = ("src",)
EXTENSIONS = (".h", ".cc")


def iter_source_files(root: str, dirs=SCAN_DIRS):
    """Yields absolute paths of every .h/.cc under `dirs`, fixture
    corpora excluded, in deterministic order."""
    for base in dirs:
        top = os.path.join(root, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("lint_fixtures",
                                              "model_fixtures",
                                              "flow_fixtures"))
            for name in sorted(filenames):
                if name.endswith(EXTENSIONS):
                    yield os.path.join(dirpath, name)


def strip_line_comment(line: str) -> str:
    """Code portion of a line (text before any // comment)."""
    return line.split("//")[0]


# --------------------------------------------------------------------------
# Suppression markers. One syntax for every analyzer: check ids are unique
# across the three tools, so `condsel: allow(<check>)` names exactly one.

ALLOW_RE = re.compile(r"condsel:\s*allow\(([a-z0-9-]+)\)")


def make_allowed(lines):
    """Returns allowed(idx, check) -> True when line idx (0-based) carries
    or directly follows a `condsel: allow(<check>)` marker."""
    def allowed(idx: int, check: str) -> bool:
        for probe in (idx, idx - 1):
            if 0 <= probe < len(lines):
                for m in ALLOW_RE.finditer(lines[probe]):
                    if m.group(1) == check:
                        return True
        return False
    return allowed


# --------------------------------------------------------------------------
# Mutex and member declarations.

# Every lock type the project uses. OrderedMutex / OrderedSharedMutex
# (common/ordered_mutex.h) are the rank-checked wrappers; plain std types
# remain legal for externally-synchronized or single-lock classes.
STD_MUTEX_TYPE = r"std::(?:recursive_)?mutex|std::shared_mutex"
ORDERED_MUTEX_TYPE = r"(?:condsel::)?Ordered(?:Shared)?Mutex"
ANY_MUTEX_TYPE = f"(?:{STD_MUTEX_TYPE}|{ORDERED_MUTEX_TYPE})"

# A mutex data member (class/struct scope). Ordered types carry a brace
# initializer with their rank constant and label.
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?P<type>" + ANY_MUTEX_TYPE + r")\s+"
    r"(?P<name>\w+)\s*(?P<init>\{[^;]*\})?\s*;")

# A file-scope / function-scope static mutex in a .cc.
STATIC_MUTEX_RE = re.compile(
    r"^\s*static\s+(?:mutable\s+)?(?P<type>" + ANY_MUTEX_TYPE + r")\s+"
    r"(?P<name>\w+)\s*(?P<init>\{[^;]*\})?\s*;")

# An OrderedMutex construction site with its rank constant and label,
# e.g.:  mutable OrderedMutex mu_{lock_rank::kAdmission,
#                                 "AdmissionController::mu_"};
ORDERED_DECL_RE = re.compile(
    r"\b(?P<type>Ordered(?:Shared)?Mutex)\s+(?P<name>\w+)\s*\{\s*"
    r"lock_rank::(?P<const>k\w+)\s*,\s*\"(?P<label>[^\"]+)\"\s*\}")

# A rank constant in common/lock_ranks.h. A `condsel: acquire-path`
# comment on the same line marks the lock sessions take to acquire a
# snapshot (condsel_model's blocking-reachable check).
LOCK_RANK_CONST_RE = re.compile(
    r"^\s*inline\s+constexpr\s+int\s+(?P<const>k\w+)\s*=\s*"
    r"(?P<rank>\d+)\s*;")
ACQUIRE_PATH_RE = re.compile(r"condsel:\s*acquire-path\b")

# A data member by project convention: trailing-underscore name, optional
# array extent / brace-or-equals initializer / GUARDED_BY annotation.
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?P<type>[\w:]+(?:<[^;()]*>)?(?:\s*[*&])?)\s+"
    r"\w+_\s*(?:\[[^\]]*\])?\s*(?:\{[^{}]*\}|=\s*[^;]*)?\s*"
    r"(?:CONDSEL_(?:PT_)?GUARDED_BY\([^)]*\))?\s*;")

# A static local/file-scope data declaration (for the .cc static variant
# of the guarded-by rule; no trailing-underscore convention there).
STATIC_DECL_RE = re.compile(
    r"^\s*static\s+(?:mutable\s+)?(?P<type>[\w:]+(?:<[^;()]*>)?"
    r"(?:\s*[*&])?)\s+\w+\s*(?:\[[^\]]*\])?\s*"
    r"(?:\{[^{}]*\}|=\s*[^;]*)?\s*"
    r"(?:CONDSEL_(?:PT_)?GUARDED_BY\([^)]*\))?\s*;")

# Types that synchronize themselves (or are the synchronization).
SELF_SYNCED_TYPE_RE = re.compile(
    r"std::(?:atomic\b|mutex\b|recursive_mutex\b|shared_mutex\b|"
    r"once_flag\b|condition_variable\b|condition_variable_any\b)|"
    r"\bOrdered(?:Shared)?Mutex\b")


# --------------------------------------------------------------------------
# Lock acquisition sites.

# An RAII guard: std::lock_guard / unique_lock / scoped_lock /
# shared_lock, with or without explicit template arguments (CTAD), paren
# or brace initialized. `args` holds the raw argument list.
GUARD_RE = re.compile(
    r"\bstd::(?P<kind>lock_guard|unique_lock|scoped_lock|shared_lock)\s*"
    r"(?:<[^<>]*>)?\s+\w+\s*[({](?P<args>[^;{}]*)[)}]")

_TAG_ARGS = ("std::defer_lock", "std::adopt_lock", "std::try_to_lock")


def guard_mutex_exprs(args: str):
    """The mutex expressions a guard argument list names (lock tags and
    duration arguments filtered out)."""
    exprs = []
    depth = 0
    current = []
    for ch in args:
        if ch == "," and depth == 0:
            exprs.append("".join(current).strip())
            current = []
            continue
        if ch in "([<{":
            depth += 1
        elif ch in ")]>}":
            depth -= 1
        current.append(ch)
    tail = "".join(current).strip()
    if tail:
        exprs.append(tail)
    return [e for e in exprs if e and e not in _TAG_ARGS]


MUTEX_EXPR_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


def mutex_expr_name(expr: str) -> str | None:
    """The final identifier of a mutex expression: `mu_` for
    `publisher_.mu_`, `mu` for `deques[victim].mu`."""
    m = MUTEX_EXPR_NAME_RE.search(expr.rstrip(")"))
    if not m or m.group(1) == "this":
        return None
    return m.group(1)


# --------------------------------------------------------------------------
# Blocking calls. None of these may run while holding a mutex from which
# the snapshot acquire path is reachable (condsel_model's
# blocking-reachable check).

BLOCKING_CALL_RE = re.compile(
    r"\b(?:sleep_for|sleep_until|wait_for|wait_until|"
    r"make_shared|make_unique|"
    r"Compute|TryEstimate\w*|Submit|Publish|Refresh)\s*"
    r"(?:<[^()]*>)?\s*\(|"
    r"\.\s*(?:wait|join)\s*\(")


# --------------------------------------------------------------------------
# Fault enumeration (common/fault_injector.h).

FAULT_ENUM_OPEN_RE = re.compile(r"^\s*enum\s+class\s+Fault\s*\{")
FAULT_ENUMERATOR_RE = re.compile(r"^\s*(k\w+)\s*[,=}]")
NUM_FAULTS_RE = re.compile(
    r"constexpr\s+int\s+kNumFaults\s*=\s*(\d+)\s*;")


def parse_fault_enumerators(text: str):
    """The Fault enumerators declared in fault_injector.h text, in
    declaration order."""
    enumerators = []
    in_enum = False
    for line in text.splitlines():
        code = strip_line_comment(line)
        if not in_enum:
            if FAULT_ENUM_OPEN_RE.match(code):
                in_enum = True
            continue
        if "}" in code and not FAULT_ENUMERATOR_RE.match(code):
            break
        m = FAULT_ENUMERATOR_RE.match(code)
        if m:
            enumerators.append(m.group(1))
        if re.search(r"^\s*\};", code):
            break
    return enumerators


# --------------------------------------------------------------------------
# Shared guarded-by checker.
#
# Header (member) mode: data members declared after a mutex member must
# carry CONDSEL_GUARDED_BY / CONDSEL_PT_GUARDED_BY or be
# synchronization-free by type. .cc (static) mode: the same contract for
# file-/function-scope statics following a static mutex.


def guarded_field_findings(path: str, lines, allowed, rule: str):
    """Yields (line_number_1based, message) for unannotated mutable state
    declared after a mutex at the same scope. `allowed(idx, rule)` is the
    suppression predicate; `rule` is the reporting tool's rule id."""
    is_header = path.endswith(".h")
    mutex_re = MUTEX_MEMBER_RE if is_header else STATIC_MUTEX_RE
    decl_re = MEMBER_DECL_RE if is_header else STATIC_DECL_RE
    scope_of = "a std::mutex member" if is_header else "a static mutex"
    in_mutex_scope = False
    for i, line in enumerate(lines):
        if mutex_re.match(line):
            in_mutex_scope = True
            continue
        if not in_mutex_scope:
            continue
        if re.match(r"\s*};", line) or re.match(r"\s*}\s*(?:\/\/.*)?$",
                                                line):
            in_mutex_scope = False  # class / namespace scope closed
            continue
        m = decl_re.match(strip_line_comment(line))
        if not m:
            continue
        if "GUARDED_BY" in line or "static" in m.group("type"):
            continue
        if SELF_SYNCED_TYPE_RE.search(m.group("type")):
            continue
        if allowed(i, rule):
            continue
        yield (i + 1,
               f"data member follows {scope_of} but carries no "
               "CONDSEL_GUARDED_BY annotation (atomics are exempt); "
               "annotate it or justify with an allow")


# --------------------------------------------------------------------------
# Function / call-site / return-statement inventory (condsel_flow.py and
# condsel_model.py).
#
# The flow analyzer reasons about whole function bodies — which callees a
# loop reaches, which return statements mention a tainted variable — and
# the lock model walks the same bodies for held locks and calls made
# under them, so both need a statement-level view of the tree that the
# line-oriented lint rules never build. The parser below is deliberately
# regex-grade: it strips strings and comments, joins multi-line
# signatures, and tracks braces; it does not parse C++. That is the same
# precision contract as the mutex inventory, and it gets the same
# embedded self-test corpus.

_STR_LITERAL_RE = re.compile(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'')


def strip_code(raw: str, in_block_comment: bool):
    """Code portion of one raw line: string/char literals blanked, // and
    /* */ comments removed. Returns (code, still_in_block_comment)."""
    out = []
    i, n = 0, len(raw)
    while i < n:
        if in_block_comment:
            end = raw.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        ch = raw[i]
        if ch in "\"'":
            m = _STR_LITERAL_RE.match(raw, i)
            if m:
                out.append('""' if ch == '"' else "''")
                i = m.end()
                continue
        if raw.startswith("//", i):
            break
        if raw.startswith("/*", i):
            in_block_comment = True
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


# Keywords that look like `name (` but never are calls or definitions.
CONTROL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "return", "catch", "do", "else",
    "sizeof", "alignof", "alignas", "decltype", "static_assert", "new",
    "delete", "case", "defined", "noexcept", "throw", "co_return",
    "co_await", "assert", "requires"))

_HEAD_NAME_RE = re.compile(r"((?:[\w~]+\s*::\s*)*[\w~]+)\s*$")

# A call site inside a body: optional `Qual::` chain plus the callee.
INV_CALL_RE = re.compile(r"(?<![\w:])((?:\w+\s*::\s*)*[A-Za-z_]\w*)\s*\(")

LOOP_HEAD_RE = re.compile(r"(?<!\w)(for|while)\s*\(|(?<!\w)do\s*\{")


class FunctionDef:
    """One function definition: identity, head text, stripped body lines,
    and the harvested call sites / return statements / loops."""

    __slots__ = ("path", "name", "cls", "scope", "line", "end_line", "head",
                 "params", "hot", "body", "calls", "returns", "loops")

    def __init__(self, path, name, scope, line, head, params):
        self.path = path
        self.name = name
        # Full class qualifier ("ShapeCache::Entry"), and its innermost
        # class ("Entry"), which is what `qual` reports.
        self.scope = scope
        self.cls = scope.rsplit("::", 1)[-1] if scope else None
        self.line = line
        self.end_line = line
        self.head = head
        self.params = params
        self.hot = "CONDSEL_HOT" in head
        self.body = []       # [(lineno_1based, stripped_code)]
        self.calls = []      # [(lineno, callee_text)]  e.g. "Status::Internal"
        self.returns = []    # [(lineno, full_return_statement)]
        self.loops = []      # [(lineno, header_text, body_text, end_lineno)]

    @property
    def qual(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name

    def body_text(self) -> str:
        return "\n".join(code for _, code in self.body)


def _extract_params(head: str) -> str:
    start = head.index("(")
    depth = 0
    for k in range(start, len(head)):
        if head[k] == "(":
            depth += 1
        elif head[k] == ")":
            depth -= 1
            if depth == 0:
                return head[start + 1:k]
    return head[start + 1:]


def _validate_head(head: str):
    """None, or (name, cls, params) when `head` (the text before a
    top-level `{`) is a plausible function definition signature."""
    if "(" not in head:
        return None  # class/struct/namespace/extern blocks
    stripped = head.strip()
    if stripped.startswith("#"):
        return None
    if re.match(r"^(?:class|struct|enum|union|namespace|extern)\b",
                stripped):
        return None
    before = head[:head.index("(")]
    # Reject assignments before the parameter list: lambdas and
    # brace-initialized globals (`auto f = [] (...) {`). operator= is the
    # one legitimate `=` there.
    if re.search(r"(?<![=!<>])=(?!=)", before.replace("operator=", "@")):
        return None
    m = _HEAD_NAME_RE.search(before)
    if not m:
        return None
    qual = re.sub(r"\s+", "", m.group(1))
    parts = qual.split("::")
    name = parts[-1].lstrip("~")
    if not name or name in CONTROL_KEYWORDS:
        return None
    return name, parts[:-1], _extract_params(head)


def _match_head(code_lines, i):
    """Try to read a function head starting at line i. Returns None or
    (name, qualifier, params, head, open_idx, open_col) where
    open_idx/open_col locate the body's opening `{`."""
    first = code_lines[i].strip()
    if not first or first.startswith("#") or first.startswith("}"):
        return None
    paren = 0
    buf = []
    for j in range(i, min(len(code_lines), i + 14)):
        seg = code_lines[j]
        for k, c in enumerate(seg):
            if c == "(":
                paren += 1
            elif c == ")":
                paren -= 1
            elif c == ";":
                return None
            elif c == "{":
                if paren > 0:
                    continue  # brace inside a default argument
                head = "".join(buf) + seg[:k]
                v = _validate_head(head)
                if v is None:
                    return None
                name, qualifier, params = v
                return name, qualifier, params, head, j, k
            elif c == "}" and paren == 0:
                return None
        buf.append(seg + "\n")
    return None


def _harvest(fn: FunctionDef):
    """Fills calls / returns / loops from the recorded body lines."""
    for lineno, code in fn.body:
        for m in INV_CALL_RE.finditer(code):
            callee = re.sub(r"\s+", "", m.group(1))
            if callee.split("::")[-1] in CONTROL_KEYWORDS:
                continue
            fn.calls.append((lineno, callee))
    # Return statements, joined to the terminating `;`.
    body = fn.body
    k = 0
    while k < len(body):
        lineno, code = body[k]
        m = re.search(r"(?<![\w])return(?![\w])", code)
        if not m:
            k += 1
            continue
        stmt = code[m.start():]
        j = k
        while ";" not in stmt and j + 1 < len(body) and j - k < 10:
            j += 1
            stmt += " " + body[j][1]
        stmt = re.sub(r"\s+", " ", stmt.split(";")[0]).strip()
        fn.returns.append((lineno, stmt))
        k = j + 1
    # Loops: for/while/do with the nested body text extracted by brace
    # matching over the flattened body.
    flat_parts, line_at = [], []
    for lineno, code in body:
        flat_parts.append(code + "\n")
        line_at.append(lineno)
    flat = "".join(flat_parts)
    offsets = []  # offset of each line start in flat
    pos = 0
    for part in flat_parts:
        offsets.append(pos)
        pos += len(part)

    def line_of(off):
        lo, hi = 0, len(offsets) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if offsets[mid] <= off:
                lo = mid
            else:
                hi = mid - 1
        return line_at[lo]

    for m in LOOP_HEAD_RE.finditer(flat):
        kw = m.group(1) or "do"
        if kw == "do":
            header = "do"
            body_start = flat.index("{", m.start())
        else:
            depth = 0
            p = flat.index("(", m.start())
            q = p
            while q < len(flat):
                if flat[q] == "(":
                    depth += 1
                elif flat[q] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                q += 1
            header = re.sub(r"\s+", " ", flat[m.start():q + 1])
            r = q + 1
            while r < len(flat) and flat[r] in " \t\n":
                r += 1
            if r >= len(flat):
                continue
            if flat[r] != "{":
                # Single-statement loop body: up to the `;`.
                end = flat.find(";", r)
                if end < 0:
                    end = len(flat) - 1
                fn.loops.append((line_of(m.start()), header, flat[r:end],
                                 line_of(end)))
                continue
            body_start = r
        depth = 0
        q = body_start
        while q < len(flat):
            if flat[q] == "{":
                depth += 1
            elif flat[q] == "}":
                depth -= 1
                if depth == 0:
                    break
            q += 1
        fn.loops.append((line_of(m.start()), header,
                         flat[body_start + 1:q], line_of(min(q, len(flat) - 1))))


_CLASS_RE = re.compile(r"(?:^|[\s;{}])(?:class|struct)\s+"
                       r"(?:alignas\s*\([^)]*\)\s*)?(\w+)")


class ClassScope:
    """Enclosing class/struct tracking over stripped code lines: feed()
    each line in order; `path` is the list of enclosing class names,
    outermost first. Namespaces and other blocks count only as depth."""

    def __init__(self):
        self.path = []
        self._opened_at = []   # brace depth each class body opened at
        self._depth = 0
        self._pending = None

    def feed(self, code: str):
        m = _CLASS_RE.search(re.sub(r"template\s*<[^<>]*>", "", code))
        if m:
            self._pending = m.group(1)
        for ch in code:
            if ch == "{":
                self._depth += 1
                if self._pending is not None:
                    self.path.append(self._pending)
                    self._opened_at.append(self._depth)
                    self._pending = None
            elif ch == "}":
                self._depth -= 1
                while self._opened_at and self._opened_at[-1] > self._depth:
                    self._opened_at.pop()
                    self.path.pop()
            elif ch == ";":
                self._pending = None  # forward declaration


def parse_functions(path: str, text: str):
    """Every function definition in `text` with harvested calls, returns
    and loops. `path` is recorded on each FunctionDef verbatim."""
    in_block = False
    code_lines = []
    for rawline in text.splitlines():
        code, in_block = strip_code(rawline, in_block)
        code_lines.append(code)
    funcs = []
    i, n = 0, len(code_lines)
    # Class tracking over the lines between function definitions, so
    # header-inline methods get their enclosing classes.
    classes = ClassScope()
    while i < n:
        head = _match_head(code_lines, i)
        if head is None:
            classes.feed(code_lines[i])
            i += 1
            continue
        name, qualifier, params, head_text, open_idx, open_col = head
        scope = "::".join(classes.path + qualifier) or None
        fn = FunctionDef(path, name, scope, i + 1, head_text, params)
        depth, end_idx, end_col = 0, None, None
        j = open_idx
        while j < n:
            seg = code_lines[j]
            k = open_col if j == open_idx else 0
            while k < len(seg):
                if seg[k] == "{":
                    depth += 1
                elif seg[k] == "}":
                    depth -= 1
                    if depth == 0:
                        end_idx, end_col = j, k
                        break
                k += 1
            if end_idx is not None:
                break
            j += 1
        if end_idx is None:
            i = open_idx + 1  # unterminated body; skip the head
            continue
        if open_idx == end_idx:
            fn.body = [(open_idx + 1,
                        code_lines[open_idx][open_col + 1:end_col])]
        else:
            fn.body = [(open_idx + 1, code_lines[open_idx][open_col + 1:])]
            fn.body += [(k + 1, code_lines[k])
                        for k in range(open_idx + 1, end_idx)]
            fn.body.append((end_idx + 1, code_lines[end_idx][:end_col]))
        fn.end_line = end_idx + 1
        _harvest(fn)
        funcs.append(fn)
        i = end_idx + 1
    return funcs


def build_function_inventory(root: str, dirs=LIBRARY_DIRS):
    """parse_functions over every source file under `dirs`. Returns
    (functions, by_name) where by_name maps simple name -> [FunctionDef]."""
    functions = []
    for path in iter_source_files(root, dirs):
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        functions.extend(parse_functions(path, text))
    by_name = {}
    for fn in functions:
        by_name.setdefault(fn.name, []).append(fn)
    return functions, by_name


# --------------------------------------------------------------------------
# Self-test.

_SELF_TEST_CASES = [
    # (description, callable) pairs; each callable raises AssertionError.
]


def _case(description):
    def wrap(fn):
        _SELF_TEST_CASES.append((description, fn))
        return fn
    return wrap


@_case("MUTEX_MEMBER_RE matches std and Ordered mutex members")
def _t_mutex_member():
    assert MUTEX_MEMBER_RE.match("  mutable std::mutex mu_;")
    assert MUTEX_MEMBER_RE.match("  std::shared_mutex mu_;")
    assert MUTEX_MEMBER_RE.match("  std::recursive_mutex big_lock_;")
    assert MUTEX_MEMBER_RE.match(
        '  mutable OrderedMutex mu_{lock_rank::kAdmission, "A::mu_"};')
    assert MUTEX_MEMBER_RE.match(
        '  OrderedSharedMutex mu_{lock_rank::kMemo, "M::mu_"};')
    assert MUTEX_MEMBER_RE.match("  std::mutex mu;")  # aggregate member
    assert not MUTEX_MEMBER_RE.match("  std::mutex* borrowed_;")
    assert not MUTEX_MEMBER_RE.match("  // std::mutex mu_;")


@_case("STATIC_MUTEX_RE matches only static declarations")
def _t_static_mutex():
    assert STATIC_MUTEX_RE.match("static std::mutex g_mu;")
    assert STATIC_MUTEX_RE.match(
        '  static OrderedMutex g_mu{lock_rank::kX, "g_mu"};')
    assert not STATIC_MUTEX_RE.match("std::mutex mu_;")


@_case("ORDERED_DECL_RE extracts rank constant and label")
def _t_ordered_decl():
    m = ORDERED_DECL_RE.search(
        "mutable OrderedMutex epoch_mu_{lock_rank::kSnapshotEpoch, "
        '"SnapshotPublisher::epoch_mu_"};')
    assert m and m.group("const") == "kSnapshotEpoch"
    assert m.group("label") == "SnapshotPublisher::epoch_mu_"
    assert m.group("name") == "epoch_mu_"
    assert not ORDERED_DECL_RE.search("std::mutex mu_;")


@_case("LOCK_RANK_CONST_RE parses lock_ranks.h constants")
def _t_rank_const():
    m = LOCK_RANK_CONST_RE.match("inline constexpr int kAdmission = 10;")
    assert m and m.group("const") == "kAdmission"
    assert m.group("rank") == "10"
    assert not LOCK_RANK_CONST_RE.match("constexpr double kX = 1.0;")


@_case("GUARD_RE matches every guard shape the repo uses")
def _t_guard():
    for text, want in [
        ("const std::lock_guard<std::mutex> lock(mu_);", ["mu_"]),
        ("std::unique_lock<OrderedMutex> lock(mu_);", ["mu_"]),
        ("std::shared_lock<std::shared_mutex> lock(mu_);", ["mu_"]),
        ("std::scoped_lock lock(deques[victim].mu, deques[w].mu);",
         ["deques[victim].mu", "deques[w].mu"]),
        ("std::shared_lock lock(mu_);", ["mu_"]),
        ("std::unique_lock<std::mutex> lock(mu_, std::defer_lock);",
         ["mu_"]),
    ]:
        m = GUARD_RE.search(text)
        assert m, text
        assert guard_mutex_exprs(m.group("args")) == want, text
    assert not GUARD_RE.search("slot_freed_.wait_for(lock, dur);")
    assert not GUARD_RE.search("// std::lock_guard<std::mutex> lock(mu_);"
                               .split("//")[0])


@_case("mutex_expr_name takes the final identifier")
def _t_expr_name():
    assert mutex_expr_name("mu_") == "mu_"
    assert mutex_expr_name("d.mu") == "mu"
    assert mutex_expr_name("deques[victim].mu") == "mu"
    assert mutex_expr_name("publisher_.epoch_mu_") == "epoch_mu_"
    assert mutex_expr_name("*this") is None


@_case("BLOCKING_CALL_RE matches parks and slow work, not bookkeeping")
def _t_blocking():
    for text in [
        "std::this_thread::sleep_for(ms);",
        "cv.wait_for(lock, dur);",
        "auto s = std::make_shared<const Snapshot>(1);",
        "worker.join();",
        "gs.Compute(p);",
        "service.Submit(tenant, q);",
    ]:
        assert BLOCKING_CALL_RE.search(text), text
    for text in [
        "counters_.submitted.fetch_add(1);",
        "ledger_.emplace_back(epoch, snap);",
        "int waiting = 0;",
    ]:
        assert not BLOCKING_CALL_RE.search(text), text


@_case("parse_fault_enumerators walks the enum body")
def _t_faults():
    text = """
enum class Fault {
  kDropSits = 0,
  kCorruptHistograms,
  kSlowRefresh,
};
"""
    assert parse_fault_enumerators(text) == [
        "kDropSits", "kCorruptHistograms", "kSlowRefresh"]
    assert parse_fault_enumerators("enum class Other { kX };") == []


@_case("guarded_field_findings: header members after a mutex")
def _t_guarded_header():
    lines = [
        "class C {",
        "  mutable std::mutex mu_;",
        "  int covered_ CONDSEL_GUARDED_BY(mu_) = 0;",
        "  std::atomic<int> free_{0};",
        "  int naked_ = 0;",
        "};",
    ]
    hits = list(guarded_field_findings(
        "src/c.h", lines, lambda i, r: False, "guarded-field"))
    assert [ln for ln, _ in hits] == [5], hits


@_case("guarded_field_findings: .cc statics after a static mutex")
def _t_guarded_static():
    lines = [
        "static std::mutex g_mu;",
        "static int g_covered CONDSEL_GUARDED_BY(g_mu) = 0;",
        "static std::atomic<int> g_free{0};",
        "static int g_naked = 0;",
    ]
    hits = list(guarded_field_findings(
        "src/c.cc", lines, lambda i, r: False, "guarded-field"))
    assert [ln for ln, _ in hits] == [4], hits
    # Member declarations in a .cc do not trip the static variant.
    member_lines = ["std::mutex mu_;", "int naked_ = 0;"]
    assert not list(guarded_field_findings(
        "src/c.cc", member_lines, lambda i, r: False, "guarded-field"))


@_case("make_allowed honors same-line and preceding-line markers")
def _t_allowed():
    lines = [
        "// condsel: allow(lock-cycle)",
        "code here",
        "other code  // condsel: allow(include-hygiene)",
        "more code",
    ]
    allowed = make_allowed(lines)
    assert allowed(1, "lock-cycle")
    assert allowed(2, "include-hygiene")
    assert not allowed(1, "include-hygiene")
    assert not allowed(3, "lock-cycle")  # two lines below: out of reach


@_case("LOCK_RANK_CONST_RE lines carry the acquire-path mark")
def _t_acquire_path():
    line = "inline constexpr int kEpoch = 30;  // condsel: acquire-path"
    assert LOCK_RANK_CONST_RE.match(strip_line_comment(line))
    assert ACQUIRE_PATH_RE.search(line)
    assert not ACQUIRE_PATH_RE.search("inline constexpr int kX = 10;")


_PARSE_CORPUS = """
#include "x.h"

namespace condsel {

// A declaration, not a definition.
double Declared(int x);

CONDSEL_HOT double GetSelectivity::Compute(PredSet p) {
  double sel = provider_->Estimate(q, p);  // comment with return junk
  for (int i = 0; i < n; ++i) {
    sel *= ComputeEntry(i).selectivity;
  }
  while (deadline_.Expired()) break;
  return SanitizeSelectivity(sel);
}

class Memo {
 public:
  int Find(PredSet p) const { return table_.count(p); }

  struct Group {
    void Touch() { ++hits_; }
  };

 private:
  int naked_ = 0;
};

void Memo::Group::Reset() {}

Status Service::Submit(const std::string& tenant,
                       const Query& query) {
  Status s = Status::Internal("boom {not a brace}");
  return
      s;
}

}  // namespace condsel
"""


@_case("parse_functions finds definitions, skips declarations")
def _t_parse_defs():
    fns = parse_functions("src/x.cc", _PARSE_CORPUS)
    quals = [f.qual for f in fns]
    assert quals == ["GetSelectivity::Compute", "Memo::Find", "Group::Touch",
                     "Group::Reset", "Service::Submit"], quals
    assert all(f.name != "Declared" for f in fns)


@_case("parse_functions records each definition's full class scope")
def _t_parse_scope():
    scopes = {f.qual: f.scope
              for f in parse_functions("src/x.cc", _PARSE_CORPUS)}
    # Inline in a nested struct and out-of-line with a nested qualifier
    # agree; the namespace is not part of the scope.
    assert scopes["Group::Touch"] == "Memo::Group", scopes
    assert scopes["Group::Reset"] == "Memo::Group", scopes
    assert scopes["Memo::Find"] == "Memo", scopes


@_case("parse_functions records CONDSEL_HOT, params, line spans")
def _t_parse_hot():
    fns = {f.qual: f for f in parse_functions("src/x.cc", _PARSE_CORPUS)}
    comp = fns["GetSelectivity::Compute"]
    assert comp.hot and not fns["Memo::Find"].hot
    assert "PredSet p" in comp.params
    assert comp.end_line > comp.line
    sub = fns["Service::Submit"]
    assert "tenant" in sub.params and "query" in sub.params


@_case("parse_functions harvests calls, multi-line returns, loops")
def _t_parse_harvest():
    fns = {f.qual: f for f in parse_functions("src/x.cc", _PARSE_CORPUS)}
    comp = fns["GetSelectivity::Compute"]
    callees = {c for _, c in comp.calls}
    assert {"ComputeEntry", "SanitizeSelectivity", "Estimate",
            "Expired"} <= callees, callees
    assert "for" not in callees and "while" not in callees
    assert [s for _, s in comp.returns] == ["return SanitizeSelectivity(sel)"]
    heads = [h for _, h, _, _ in comp.loops]
    assert any(h.startswith("for") for h in heads), heads
    assert any(h.startswith("while") for h in heads), heads
    start, _, for_body, end = next(
        loop for loop in comp.loops if loop[1].startswith("for"))
    assert "ComputeEntry" in for_body
    assert end >= start
    # Braces inside string literals must not confuse the brace tracking,
    # and the joined return picks up the continuation line.
    sub = fns["Service::Submit"]
    assert [s for _, s in sub.returns] == ["return s"], sub.returns
    assert any(c == "Status::Internal" for _, c in sub.calls)


@_case("strip_code blanks strings and strips both comment styles")
def _t_code_stripping():
    code, blk = strip_code('x = "a // b {" + y; // tail', False)
    assert code == 'x = "" + y; ', code
    assert not blk
    code, blk = strip_code("a /* open", False)
    assert code == "a " and blk
    code, blk = strip_code("still comment */ b", True)
    assert code == " b" and not blk


def run_self_test() -> int:
    failures = 0
    for description, fn in _SELF_TEST_CASES:
        try:
            fn()
        except AssertionError as e:
            failures += 1
            print(f"self-test FAIL: {description}: {e}", file=sys.stderr)
    total = len(_SELF_TEST_CASES)
    if failures:
        print(f"cpp_model_common --self-test: {failures}/{total} cases "
              "failed", file=sys.stderr)
        return 1
    print(f"cpp_model_common --self-test: {total} cases ok",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    if "--self-test" in sys.argv[1:]:
        sys.exit(run_self_test())
    print(__doc__)
    sys.exit(0)
