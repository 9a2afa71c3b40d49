#!/usr/bin/env python3
"""condsel_model — project-model concurrency-contract analyzer.

Where condsel_lint.py checks single lines, this tool parses the whole
C++ tree into a model — every mutex declaration (including the rank and
manifest name at OrderedMutex construction sites), every RAII lock
acquisition, the Fault enumeration, and the GsStats/ServiceStatsSnapshot
counter blocks — and checks the *relations* between them:

  lock-cycle          the acquires-while-holding graph has a cycle: two
                      code paths disagree about nesting order, which is a
                      deadlock waiting for the right interleaving.
  rank-order          an acquisition edge contradicts the ranks declared
                      in tools/lock_order.toml (outer lock must have the
                      strictly smaller rank).
  manifest-sync       tools/lock_order.toml, common/lock_ranks.h, and the
                      OrderedMutex construction sites disagree — a rank
                      the runtime checker enforces must be the rank the
                      manifest documents.
  blocking-reachable  a blocking call (sleep, condition wait, allocation
                      of snapshot-sized state, estimation entry points)
                      runs while holding a mutex from which an
                      `acquire_path` lock is reachable in the lock graph:
                      holding any such mutex can stall the session
                      acquire path transitively.
  guarded-field       mutable state declared after a mutex at the same
                      scope without a CONDSEL_GUARDED_BY annotation (in a
                      .cc: a static after a static mutex).
  fault-census        a Fault enumerator in fault_injector.h is tripped
                      by no test in tests/*.cc: an untested failure edge
                      is an untrusted failure edge. Also verifies the
                      enumerator count matches kNumFaults.
  counter-census      a GsStats / ServiceStatsSnapshot counter field is
                      referenced by no test: telemetry nobody asserts on
                      regresses silently.

Sites can be suppressed with `condsel-model: allow(<check>)` on the same
or preceding line.

Usage:
  condsel_model.py [--root DIR] [--dot FILE] [--max-seconds N]
  condsel_model.py --self-test     # mutation fixtures under
                                   # tools/model_fixtures/, each of which
                                   # must trip exactly its EXPECT checks
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
# Model data.

class MutexNode:
    def __init__(self, key, kind, file, line):
        self.key = key        # canonical name, e.g. "SnapshotPublisher::epoch_mu_"
        self.kind = kind      # "std" | "ordered" | "ordered-shared" | "unresolved"
        self.file = file
        self.line = line
        self.rank = None      # from the manifest, when listed there
        self.acquire_path = False
        self.rank_const = None  # lock_rank:: constant at the decl site


class Edge:
    def __init__(self, src, dst, file, line, via=None):
        self.src = src        # MutexNode keys
        self.dst = dst
        self.file = file
        self.line = line
        self.via = via        # callee name for call-graph edges


class Finding:
    def __init__(self, check, file, line, message):
        self.check = check
        self.file = file
        self.line = line
        self.message = message

    def render(self, root):
        rel = os.path.relpath(self.file, root) if self.file else "<model>"
        where = f"{rel}:{self.line}" if self.line else rel
        return f"{where}: [{self.check}] {self.message}"


class Model:
    def __init__(self, root):
        self.root = root
        self.nodes = {}            # key -> MutexNode
        self.edges = []            # deduped on (src, dst)
        self._edge_keys = set()
        self.blocking_sites = []   # (held keys tuple, file, line, text)
        self.method_acquires = {}  # simple name -> set of node keys
        self.method_defs = {}      # simple name -> definition count
        self.call_sites = []       # (held keys tuple, callee, file, line)
        self.ordered_sites = []    # (const, label, file, line)
        self.findings = []

    def node(self, key, kind, file, line):
        if key not in self.nodes:
            self.nodes[key] = MutexNode(key, kind, file, line)
        return self.nodes[key]

    def add_edge(self, src, dst, file, line, via=None):
        k = (src, dst)
        if k in self._edge_keys:
            return
        self._edge_keys.add(k)
        self.edges.append(Edge(src, dst, file, line, via))


# --------------------------------------------------------------------------
# Parsing one file into the model.

STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
CLASS_OPEN_RE = re.compile(
    r"\b(?:class|struct)\s+(\w+)\s*(?:final\s*)?(?::[^{;]*)?\{")
METHOD_DEF_RE = re.compile(r"\b(\w+)::(~?\w+)\s*\(")
LOCAL_STD_MUTEX_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:" + cm.STD_MUTEX_TYPE + r")\s+(\w+)\s*;")
CALL_RE = re.compile(r"\b(\w+)\s*\(")

# Method names too generic (or too container-like) to use for call-graph
# expansion: a false edge here invents cycles, so expansion stays
# conservative — unique definition, non-generic name, acquires a lock.
CALL_DENYLIST = {
    "size", "find", "insert", "count", "reset", "release", "clear",
    "begin", "end", "get", "at", "back", "front", "push_back",
    "pop_back", "emplace", "emplace_back", "erase", "total", "record",
    "lock", "unlock", "try_lock", "wait", "notify_all", "notify_one",
    "load", "store", "fetch_add", "fetch_sub", "min", "max", "swap",
}

KIND_BY_TYPE = {
    "OrderedMutex": "ordered",
    "OrderedSharedMutex": "ordered-shared",
}


def brace_delta(code):
    return code.count("{") - code.count("}")


class FileParser:
    """Parses one .h/.cc: mutex declarations, class/method context,
    held-lock tracking, acquisition edges, blocking and call sites."""

    def __init__(self, model, path):
        self.model = model
        self.path = path
        with open(path, encoding="utf-8", errors="replace") as f:
            self.lines = f.read().splitlines()
        self.allowed = cm.make_allowed(
            self.lines, [cm.LINT_ALLOW_RE, cm.MODEL_ALLOW_RE])
        # name -> set of node keys declared in this file
        self.local_names = {}

    def _register(self, key, kind, name, lineno):
        self.model.node(key, kind, self.path, lineno)
        self.local_names.setdefault(name, set()).add(key)

    def _mutex_kind(self, type_text):
        for t, kind in KIND_BY_TYPE.items():
            if t in type_text:
                return kind
        return "std"

    def collect_declarations(self):
        """First pass: every mutex declaration in the file, with class
        context, so acquisition resolution in any file can see them."""
        # Ordered declarations usually wrap onto a second line (rank +
        # manifest name); match them against the whole file text and map
        # offsets back to line numbers.
        text = "\n".join(self.lines)
        ordered_lines = set()
        for m in cm.ORDERED_DECL_RE.finditer(text):
            lineno = text.count("\n", 0, m.start()) + 1
            ordered_lines.update(
                range(lineno, text.count("\n", 0, m.end()) + 2))
            self._register(m.group("label"), KIND_BY_TYPE[m.group("type")],
                           m.group("name"), lineno)
            self.model.ordered_sites.append(
                (m.group("const"), m.group("label"), self.path, lineno))
        depth = 0
        class_stack = []  # (name, depth at open)
        in_block_comment = False
        for lineno, raw in enumerate(self.lines, start=1):
            code, in_block_comment = _strip_code(raw, in_block_comment)
            for m in CLASS_OPEN_RE.finditer(code):
                class_stack.append((m.group(1), depth))
            if lineno not in ordered_lines:
                member = cm.MUTEX_MEMBER_RE.match(code)
                static = cm.STATIC_MUTEX_RE.match(code)
                decl = static or member
                if decl:
                    name = decl.group("name")
                    if static is None and class_stack:
                        key = f"{class_stack[-1][0]}::{name}"
                    else:
                        rel = os.path.basename(self.path)
                        key = f"{rel}::{name}"
                    self._register(key, self._mutex_kind(decl.group("type")),
                                   name, lineno)
                else:
                    local = LOCAL_STD_MUTEX_RE.match(code)
                    if local and not class_stack and depth > 0:
                        rel = os.path.basename(self.path)
                        self._register(f"{rel}::{local.group(1)}", "std",
                                       local.group(1), lineno)
            depth += brace_delta(code)
            while class_stack and depth <= class_stack[-1][1]:
                class_stack.pop()

    def analyze_acquisitions(self, resolve):
        """Second pass: held-lock stack per brace depth; records
        acquisition edges, blocking sites, and call sites under locks."""
        depth = 0
        class_stack = []
        method = None          # (simple name, class name or None, depth)
        held = []              # (node key, depth at acquisition line end)
        in_block_comment = False
        for lineno, raw in enumerate(self.lines, start=1):
            code, in_block_comment = _strip_code(raw, in_block_comment)
            for m in CLASS_OPEN_RE.finditer(code):
                class_stack.append((m.group(1), depth))
            if depth == (class_stack[-1][1] + 1 if class_stack else 0):
                md = METHOD_DEF_RE.search(code)
                if md and not code.rstrip().endswith(";"):
                    method = (md.group(2), md.group(1), depth)

            guard = cm.GUARD_RE.search(code)
            acquired_here = []
            if guard:
                enclosing = (method[1] if method else
                             (class_stack[-1][0] if class_stack else None))
                # An allow(lock-cycle) on the preceding line drops this
                # site's edges from the graph (the lock is still tracked
                # as held). For deliberately-inverted acquisitions in
                # death tests, not for production code.
                edges_ok = not self.allowed(lineno - 1, "lock-cycle")
                for expr in cm.guard_mutex_exprs(guard.group("args")):
                    name = cm.mutex_expr_name(expr)
                    if name is None:
                        continue
                    key = resolve(self, enclosing, name)
                    if edges_ok:
                        for held_key, _ in held:
                            self.model.add_edge(held_key, key, self.path,
                                                lineno)
                        for prev in acquired_here:
                            self.model.add_edge(prev, key, self.path,
                                                lineno)
                    acquired_here.append(key)
                if not held and method and acquired_here:
                    simple = method[0]
                    self.model.method_acquires.setdefault(
                        simple, set()).update(acquired_here)

            if held and not guard:
                if (cm.BLOCKING_CALL_RE.search(code)
                        and not self.allowed(lineno - 1,
                                             "blocking-reachable")):
                    self.model.blocking_sites.append(
                        (tuple(k for k, _ in held), self.path, lineno,
                         code.strip()))
                for cm_ in CALL_RE.finditer(code):
                    callee = cm_.group(1)
                    if callee.lower() not in CALL_DENYLIST:
                        self.model.call_sites.append(
                            (tuple(k for k, _ in held), callee, self.path,
                             lineno))

            depth += brace_delta(code)
            new_depth_for_guards = depth
            for key in acquired_here:
                held.append((key, new_depth_for_guards))
            while held and held[-1][1] > depth:
                held.pop()
            while class_stack and depth <= class_stack[-1][1]:
                class_stack.pop()
            if method and depth <= method[2]:
                # Count definitions per simple name for expansion safety.
                self.model.method_defs[method[0]] = (
                    self.model.method_defs.get(method[0], 0) + 1)
                method = None


def _strip_code(raw, in_block_comment):
    """Code text of a raw line, with strings blanked and //- and
    /*-comments removed; returns (code, still_in_block_comment)."""
    s = STRING_RE.sub('""', raw)
    out = []
    i = 0
    while i < len(s):
        if in_block_comment:
            end = s.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        if s.startswith("//", i):
            break
        if s.startswith("/*", i):
            in_block_comment = True
            i += 2
            continue
        out.append(s[i])
        i += 1
    return "".join(out), in_block_comment


def make_resolver(model, per_file_names, global_names, unit_of):
    """Resolution for the last identifier of a guarded mutex expression:
    enclosing class member, then unique in the file unit (x.cc + x.h),
    then unique across the inventory, else an unresolved file-local node
    (participates in the graph unranked)."""

    def resolve(parser, enclosing_class, name):
        if enclosing_class:
            key = f"{enclosing_class}::{name}"
            if key in model.nodes:
                return key
        unit = unit_of(parser.path)
        candidates = per_file_names.get(unit, {}).get(name, set())
        if len(candidates) == 1:
            return next(iter(candidates))
        candidates = global_names.get(name, set())
        if len(candidates) == 1:
            return next(iter(candidates))
        rel = os.path.basename(parser.path)
        key = f"{rel}::{name}?"
        model.node(key, "unresolved", parser.path, 0)
        return key

    return resolve


# --------------------------------------------------------------------------
# Model construction.

def find_named(root, filename):
    hits = []
    for path in cm.iter_source_files(root):
        if os.path.basename(path) == filename:
            hits.append(path)
    return hits


def build_model(root):
    model = Model(root)
    parsers = []
    for path in cm.iter_source_files(root):
        p = FileParser(model, path)
        p.collect_declarations()
        parsers.append(p)

    def unit_of(path):
        return os.path.splitext(path)[0]

    per_file_names = {}
    global_names = {}
    for p in parsers:
        unit = unit_of(p.path)
        merged = per_file_names.setdefault(unit, {})
        for name, keys in p.local_names.items():
            merged.setdefault(name, set()).update(keys)
            global_names.setdefault(name, set()).update(keys)

    resolve = make_resolver(model, per_file_names, global_names, unit_of)
    for p in parsers:
        p.analyze_acquisitions(resolve)

    # One-level call-graph expansion: a call made under a held lock, to a
    # method defined exactly once in the model that itself acquires
    # lock(s) at its top level, contributes held -> acquired edges.
    for held, callee, path, lineno in model.call_sites:
        if model.method_defs.get(callee, 0) != 1:
            continue
        acquired = model.method_acquires.get(callee)
        if not acquired:
            continue
        for h in held:
            for a in acquired:
                model.add_edge(h, a, path, lineno, via=callee)
    return model


def load_manifest(root):
    path = os.path.join(root, "tools", "lock_order.toml")
    if not os.path.exists(path):
        return None, path
    with open(path, "rb") as f:
        return tomllib.load(f), path


def load_lock_ranks(root):
    """constant -> (rank, file, line) from a lock_ranks.h, if present."""
    hits = find_named(root, "lock_ranks.h")
    if not hits:
        return None, None
    consts = {}
    path = hits[0]
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            m = cm.LOCK_RANK_CONST_RE.match(cm.strip_line_comment(line))
            if m:
                consts[m.group("const")] = (int(m.group("rank")), path,
                                            lineno)
    return consts, path


# --------------------------------------------------------------------------
# Checks.

def check_manifest_sync(model, manifest, manifest_path, rank_consts):
    out = []
    if manifest is None:
        if model.ordered_sites:
            _, _, path, lineno = model.ordered_sites[0]
            out.append(Finding(
                "manifest-sync", path, lineno,
                "OrderedMutex construction sites exist but "
                "tools/lock_order.toml is missing"))
        return out
    entries = manifest.get("mutex", [])
    by_name = {}
    ranks_seen = {}
    for e in entries:
        name, const, rank = e.get("name"), e.get("constant"), e.get("rank")
        if name is None or const is None or rank is None:
            out.append(Finding("manifest-sync", manifest_path, 0,
                               f"manifest entry {e!r} lacks "
                               "name/constant/rank"))
            continue
        if name in by_name:
            out.append(Finding("manifest-sync", manifest_path, 0,
                               f'duplicate manifest entry "{name}"'))
        by_name[name] = e
        if rank in ranks_seen:
            out.append(Finding(
                "manifest-sync", manifest_path, 0,
                f'rank {rank} assigned to both "{ranks_seen[rank]}" and '
                f'"{name}" (ranks are unique)'))
        ranks_seen[rank] = name
        if rank_consts is not None:
            if const not in rank_consts:
                out.append(Finding(
                    "manifest-sync", manifest_path, 0,
                    f'manifest constant "{const}" has no lock_rank:: '
                    "definition in lock_ranks.h"))
            elif rank_consts[const][0] != rank:
                cr, cf, cl = rank_consts[const]
                out.append(Finding(
                    "manifest-sync", cf, cl,
                    f"lock_rank::{const} = {cr} but the manifest says "
                    f'rank {rank} for "{name}"'))
        # Attach manifest facts to nodes.
        node = model.nodes.get(name)
        if node is not None:
            node.rank = rank
            node.acquire_path = bool(e.get("acquire_path", False))

    site_labels = set()
    for const, label, path, lineno in model.ordered_sites:
        site_labels.add(label)
        entry = by_name.get(label)
        if entry is None:
            out.append(Finding(
                "manifest-sync", path, lineno,
                f'OrderedMutex "{label}" is not listed in '
                "tools/lock_order.toml"))
        elif entry.get("constant") != const:
            out.append(Finding(
                "manifest-sync", path, lineno,
                f'OrderedMutex "{label}" is constructed with '
                f"lock_rank::{const} but the manifest assigns "
                f"{entry.get('constant')}"))
        node = model.nodes.get(label)
        if node is not None:
            node.rank_const = const
    for name in by_name:
        if name not in site_labels:
            out.append(Finding(
                "manifest-sync", manifest_path, 0,
                f'manifest lists "{name}" but no OrderedMutex '
                "construction site uses that name"))
    return out


def check_lock_cycle(model):
    out = []
    adj = {}
    for e in model.edges:
        if e.src == e.dst:
            out.append(Finding(
                "lock-cycle", e.file, e.line,
                f'"{e.src}" acquired while already held (self-deadlock)'))
            continue
        adj.setdefault(e.src, []).append(e)

    # Iterative DFS with colors; report each cycle once.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {k: WHITE for k in model.nodes}
    reported = set()

    def dfs(start):
        stack = [(start, iter(adj.get(start, [])))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for e in it:
                if color.get(e.dst, WHITE) == GRAY:
                    i = path.index(e.dst)
                    cycle = tuple(sorted(path[i:] + [e.dst]))
                    if cycle not in reported:
                        reported.add(cycle)
                        chain = " -> ".join(path[i:] + [e.dst])
                        out.append(Finding(
                            "lock-cycle", e.file, e.line,
                            f"lock-order cycle: {chain} (each edge is an "
                            "acquires-while-holding site; one of them "
                            "must reverse)"))
                elif color.get(e.dst, WHITE) == WHITE:
                    color[e.dst] = GRAY
                    path.append(e.dst)
                    stack.append((e.dst, iter(adj.get(e.dst, []))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()

    for key in list(model.nodes):
        if color.get(key, WHITE) == WHITE:
            dfs(key)
    return out


def check_rank_order(model):
    out = []
    for e in model.edges:
        src = model.nodes.get(e.src)
        dst = model.nodes.get(e.dst)
        if src is None or dst is None:
            continue
        if src.rank is None or dst.rank is None:
            continue
        if e.src == e.dst:
            continue  # reported by lock-cycle
        if src.rank >= dst.rank:
            via = f" via {e.via}()" if e.via else ""
            out.append(Finding(
                "rank-order", e.file, e.line,
                f'"{e.dst}" (rank {dst.rank}) acquired{via} while '
                f'holding "{e.src}" (rank {src.rank}); the manifest '
                "requires strictly increasing ranks inward"))
    return out


def check_blocking_reachable(model):
    # Danger set: acquire_path locks plus everything that can reach one
    # (holding such a mutex can transitively stall the acquire path).
    adj = {}
    for e in model.edges:
        adj.setdefault(e.src, set()).add(e.dst)
    acquire_path = {k for k, n in model.nodes.items() if n.acquire_path}
    if not acquire_path:
        return []
    danger = set(acquire_path)
    changed = True
    while changed:
        changed = False
        for src, dsts in adj.items():
            if src not in danger and dsts & danger:
                danger.add(src)
                changed = True
    out = []
    for held, path, lineno, text in model.blocking_sites:
        bad = [k for k in held if k in danger]
        if bad:
            out.append(Finding(
                "blocking-reachable", path, lineno,
                f'blocking call while holding "{bad[0]}", from which the '
                "acquire-path lock "
                f"({', '.join(sorted(acquire_path))}) is reachable: "
                f"`{text}`"))
    return out


def check_guarded_field(root):
    out = []
    for path in cm.iter_source_files(root):
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        allowed = cm.make_allowed(
            lines, [cm.LINT_ALLOW_RE, cm.MODEL_ALLOW_RE])
        for lineno, message in cm.guarded_field_findings(
                path, lines, allowed, "guarded-field"):
            out.append(Finding("guarded-field", path, lineno, message))
    return out


def fault_census(root):
    """(findings, report rows). Every Fault enumerator must appear in at
    least one tests/*.cc; the enum size must match kNumFaults."""
    injector = find_named(root, "fault_injector.h")
    if not injector:
        return [], []
    path = injector[0]
    with open(path, encoding="utf-8") as f:
        text = f.read()
    enumerators = cm.parse_fault_enumerators(text)
    out = []
    m = cm.NUM_FAULTS_RE.search(text)
    if m and int(m.group(1)) != len(enumerators):
        out.append(Finding(
            "fault-census", path, 0,
            f"kNumFaults = {m.group(1)} but the Fault enum declares "
            f"{len(enumerators)} enumerators"))
    tests = {}
    tests_dir = os.path.join(root, "tests")
    if os.path.isdir(tests_dir):
        for name in sorted(os.listdir(tests_dir)):
            if name.endswith(".cc"):
                with open(os.path.join(tests_dir, name),
                          encoding="utf-8", errors="replace") as f:
                    tests[name] = f.read()
    rows = []
    for enum in enumerators:
        hits = [n for n, t in tests.items()
                if re.search(rf"\b{re.escape(enum)}\b", t)]
        rows.append((enum, hits))
        if not hits:
            out.append(Finding(
                "fault-census", path, 0,
                f"Fault::{enum} is tripped by no test in tests/*.cc — an "
                "untested failure edge; add a test that arms it"))
    return out, rows


COUNTER_STRUCTS = (("budget.h", "GsStats"),
                   ("service_stats.h", "ServiceStatsSnapshot"))
STRUCT_FIELD_RE = re.compile(
    r"^\s*(?:[\w:<>,*&\s]+?)\s+(\w+)\s*(?:\[[^\]]*\])?\s*"
    r"(?:=[^;]*|\{[^;]*\})?\s*;")


def parse_struct_fields(path, struct_name):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    fields = []
    depth = None
    open_re = re.compile(rf"\bstruct\s+{struct_name}\s*\{{")
    running = 0
    for raw in lines:
        code = cm.strip_line_comment(raw)
        if depth is None:
            if open_re.search(code):
                depth = running + 1
            running += brace_delta(code)
            continue
        if running + brace_delta(code) < depth and "}" in code:
            break
        m = STRUCT_FIELD_RE.match(code)
        if m and running == depth:
            fields.append(m.group(1))
        running += brace_delta(code)
        if running < depth:
            break
    return fields


def counter_census(root):
    out = []
    rows = []
    tests_dir = os.path.join(root, "tests")
    if not os.path.isdir(tests_dir):
        return out, rows
    corpus = ""
    for name in sorted(os.listdir(tests_dir)):
        if name.endswith(".cc"):
            with open(os.path.join(tests_dir, name),
                      encoding="utf-8", errors="replace") as f:
                corpus += f.read()
    for filename, struct in COUNTER_STRUCTS:
        hits = [p for p in find_named(root, filename)]
        if not hits:
            continue
        fields = parse_struct_fields(hits[0], struct)
        for field in fields:
            n = len(re.findall(rf"\b{re.escape(field)}\b", corpus))
            rows.append((f"{struct}.{field}", n))
            if n == 0:
                out.append(Finding(
                    "counter-census", hits[0], 0,
                    f"{struct}.{field} is referenced by no test in "
                    "tests/*.cc — unasserted telemetry regresses "
                    "silently"))
    return out, rows


# --------------------------------------------------------------------------
# DOT emission.

def write_dot(model, path):
    lines = ["digraph lock_order {", "  rankdir=LR;"]
    for key, node in sorted(model.nodes.items()):
        attrs = []
        label = key
        if node.rank is not None:
            label += f"\\nrank {node.rank}"
        if node.acquire_path:
            attrs.append("style=bold")
        if node.kind == "unresolved":
            attrs.append("style=dashed")
        attrs.insert(0, f'label="{label}"')
        lines.append(f'  "{key}" [{", ".join(attrs)}];')
    for e in sorted(model.edges, key=lambda e: (e.src, e.dst)):
        attr = f' [label="{e.via}()"]' if e.via else ""
        lines.append(f'  "{e.src}" -> "{e.dst}"{attr};')
    lines.append("}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# Driver.

def run_checks(root):
    model = build_model(root)
    manifest, manifest_path = load_manifest(root)
    rank_consts, _ = load_lock_ranks(root)
    findings = []
    findings += check_manifest_sync(model, manifest, manifest_path,
                                    rank_consts)
    findings += check_lock_cycle(model)
    findings += check_rank_order(model)
    findings += check_blocking_reachable(model)
    findings += check_guarded_field(root)
    fault_findings, fault_rows = fault_census(root)
    findings += fault_findings
    counter_findings, counter_rows = counter_census(root)
    findings += counter_findings
    return model, findings, fault_rows, counter_rows


def print_report(model, findings, fault_rows, counter_rows, root):
    print(f"condsel_model: {len(model.nodes)} mutexes, "
          f"{len(model.edges)} acquisition edges")
    if fault_rows:
        print("fault census (enumerator -> covering tests):")
        for enum, hits in fault_rows:
            cover = ", ".join(hits) if hits else "UNCOVERED"
            print(f"  {enum:<28} {cover}")
    if counter_rows:
        uncovered = sum(1 for _, n in counter_rows if n == 0)
        print(f"counter census: {len(counter_rows)} fields, "
              f"{uncovered} unreferenced by tests")
    for f in findings:
        print(f.render(root), file=sys.stderr)
    if findings:
        print(f"condsel_model: {len(findings)} finding(s)",
              file=sys.stderr)
    else:
        print("condsel_model: clean")


def run_self_test(fixtures_dir):
    if not os.path.isdir(fixtures_dir):
        print(f"no fixtures at {fixtures_dir}", file=sys.stderr)
        return 1
    failures = 0
    for name in sorted(os.listdir(fixtures_dir)):
        fixture = os.path.join(fixtures_dir, name)
        expect_path = os.path.join(fixture, "EXPECT")
        if not os.path.isdir(fixture) or not os.path.exists(expect_path):
            continue
        with open(expect_path, encoding="utf-8") as f:
            expected = {line.strip() for line in f
                        if line.strip() and not line.startswith("#")}
        expected.discard("clean")
        _, findings, _, _ = run_checks(fixture)
        got = {f.check for f in findings}
        if got != expected:
            failures += 1
            print(f"self-test FAIL: fixture '{name}': expected checks "
                  f"{sorted(expected) or ['<clean>']}, got "
                  f"{sorted(got) or ['<clean>']}", file=sys.stderr)
            for f in findings:
                print(f"  {f.render(fixture)}", file=sys.stderr)
        else:
            label = ", ".join(sorted(got)) if got else "clean"
            print(f"self-test ok: fixture '{name}' -> {label}")
    if failures:
        print(f"condsel_model --self-test: {failures} fixture(s) failed",
              file=sys.stderr)
        return 1
    print("condsel_model --self-test: all fixtures behaved")
    return 0


def main(argv):
    tools_dir = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=os.path.dirname(tools_dir))
    ap.add_argument("--dot", help="write the lock graph as DOT here")
    ap.add_argument("--max-seconds", type=float, default=0.0,
                    help="fail if the whole pass exceeds this wall time")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if args.self_test:
        return run_self_test(os.path.join(tools_dir, "model_fixtures"))

    start = time.monotonic()
    model, findings, fault_rows, counter_rows = run_checks(args.root)
    if args.dot:
        write_dot(model, args.dot)
    print_report(model, findings, fault_rows, counter_rows, args.root)
    elapsed = time.monotonic() - start
    print(f"condsel_model: wall time {elapsed:.2f}s")
    if args.max_seconds > 0 and elapsed > args.max_seconds:
        print(f"condsel_model: exceeded --max-seconds "
              f"{args.max_seconds:.0f} (took {elapsed:.2f}s) — the "
              "analyzer may not become the slowest gate", file=sys.stderr)
        return 1
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
