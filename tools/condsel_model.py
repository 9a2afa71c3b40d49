#!/usr/bin/env python3
"""condsel_model — project-model concurrency-contract analyzer.

Where condsel_lint.py checks single lines, this tool parses the whole
C++ tree into a model — every mutex declaration (including the rank
constant and label at OrderedMutex construction sites), every RAII lock
acquisition inside the function bodies of cpp_model_common's shared
inventory, the Fault enumeration, and the GsStats/ServiceStatsSnapshot
counter blocks — and checks the *relations* between them:

  lock-cycle          the acquires-while-holding graph has a cycle: two
                      code paths disagree about nesting order, which is a
                      deadlock waiting for the right interleaving.
  rank-order          an acquisition edge contradicts the ranks the
                      construction sites take from common/lock_ranks.h
                      (outer lock must have the strictly smaller rank).
  manifest-sync       common/lock_ranks.h and the OrderedMutex
                      construction sites disagree: a site names a
                      constant the header lacks, a constant is named by
                      no site or by several, or two sites share a label
                      or two constants a rank.
  blocking-reachable  a blocking call (sleep, condition wait, allocation
                      of snapshot-sized state, estimation entry points)
                      runs while holding a mutex from which an
                      acquire-path lock (a lock_ranks.h constant marked
                      `// condsel: acquire-path`) is reachable in the
                      lock graph: holding any such mutex can stall the
                      session acquire path transitively.
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

Sites can be suppressed with `condsel: allow(<check>)` on the same or
the preceding line.

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

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpp_model_common as cm  # noqa: E402


# --------------------------------------------------------------------------
# Model data.

class MutexNode:
    def __init__(self, key, kind, file, line):
        self.key = key        # canonical name, e.g. "SnapshotPublisher::epoch_mu_"
        self.kind = kind      # declared type, or "unresolved"
        self.file = file
        self.line = line
        self.rank = None      # from lock_ranks.h, for OrderedMutex sites
        self.acquire_path = False


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
        self.lines = {}            # path -> raw source lines
        self.allowed = {}          # path -> cm.make_allowed predicate
        self.blocking_sites = []   # (held keys tuple, file, line, text)
        self.method_acquires = {}  # simple name -> set of node keys
        self.call_sites = []       # (held keys tuple, callee, file, line)
        self.ordered_sites = []    # (const, label, file, line)

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
# Model construction.

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


def brace_delta(code):
    return code.count("{") - code.count("}")


def collect_declarations(model, path):
    """Registers every mutex declared in `path`; returns {name: keys}.
    OrderedMutex sites are keyed by their label, other members by their
    full class path (`ShapeCache::Entry::mu_`), statics and
    namespace-scope mutexes by the file (`pool.cc::mu`)."""
    lines = model.lines[path]
    names = {}

    def register(key, kind, name, lineno):
        model.node(key, kind, path, lineno)
        names.setdefault(name, set()).add(key)

    # Ordered declarations usually wrap onto a second line (rank + label);
    # match them against the whole file text and map offsets to lines.
    text = "\n".join(lines)
    ordered_lines = set()
    for m in cm.ORDERED_DECL_RE.finditer(text):
        lineno = text.count("\n", 0, m.start()) + 1
        ordered_lines.update(range(lineno, text.count("\n", 0, m.end()) + 2))
        register(m.group("label"), m.group("type"), m.group("name"), lineno)
        model.ordered_sites.append(
            (m.group("const"), m.group("label"), path, lineno))
    classes = cm.ClassScope()
    in_block = False
    for lineno, raw in enumerate(lines, start=1):
        code, in_block = cm.strip_code(raw, in_block)
        if lineno not in ordered_lines:
            static = cm.STATIC_MUTEX_RE.match(code)
            decl = static or cm.MUTEX_MEMBER_RE.match(code)
            if decl:
                name = decl.group("name")
                if static is None and classes.path:
                    key = "::".join(classes.path + [name])
                else:
                    key = f"{os.path.basename(path)}::{name}"
                register(key, decl.group("type"), name, lineno)
        classes.feed(code)
    return names


def make_resolver(model, unit_names, global_names):
    """Resolution for the last identifier of a guarded mutex expression:
    a member of the defining function's class or of an enclosing class
    (C++ lookup order), then unique in the file unit (x.cc + x.h), then
    unique across the tree, else an unresolved file-local node
    (participates in the graph unranked)."""

    def resolve(fn, name):
        scope = fn.scope.split("::") if fn.scope else []
        for i in range(len(scope), 0, -1):
            key = "::".join(scope[:i] + [name])
            if key in model.nodes:
                return key
        unit = os.path.splitext(fn.path)[0]
        for candidates in (unit_names.get(unit, {}).get(name, ()),
                           global_names.get(name, ())):
            if len(candidates) == 1:
                return next(iter(candidates))
        key = f"{os.path.basename(fn.path)}::{name}?"
        model.node(key, "unresolved", fn.path, 0)
        return key

    return resolve


def analyze_function(model, fn, resolve):
    """Walks one function body with a held-lock stack per brace depth;
    records acquisition edges, blocking sites, and calls under locks."""
    allowed = model.allowed[fn.path]
    calls_at = {}
    for lineno, callee in fn.calls:
        calls_at.setdefault(lineno, []).append(callee.split("::")[-1])
    held = []   # (node key, body depth after its acquisition line)
    depth = 1
    for lineno, code in fn.body:
        guard = cm.GUARD_RE.search(code)
        acquired = []
        if guard:
            # An allow(lock-cycle) on the preceding line drops this site's
            # edges from the graph (the lock is still tracked as held).
            # For deliberately-inverted acquisitions in death tests, not
            # for production code.
            edges_ok = not allowed(lineno - 1, "lock-cycle")
            for expr in cm.guard_mutex_exprs(guard.group("args")):
                name = cm.mutex_expr_name(expr)
                if name is None:
                    continue
                key = resolve(fn, name)
                if edges_ok:
                    for src in [k for k, _ in held] + acquired:
                        model.add_edge(src, key, fn.path, lineno)
                acquired.append(key)
            if not held and acquired:
                model.method_acquires.setdefault(fn.name, set()).update(
                    acquired)
        elif held:
            keys = tuple(k for k, _ in held)
            if (cm.BLOCKING_CALL_RE.search(code)
                    and not allowed(lineno - 1, "blocking-reachable")):
                model.blocking_sites.append(
                    (keys, fn.path, lineno, code.strip()))
            for callee in calls_at.get(lineno, ()):
                if callee.lower() not in CALL_DENYLIST:
                    model.call_sites.append((keys, callee, fn.path, lineno))
        depth += brace_delta(code)
        held += [(key, depth) for key in acquired]
        while held and held[-1][1] > depth:
            held.pop()


def find_named(root, filename):
    return [path for path in cm.iter_source_files(root)
            if os.path.basename(path) == filename]


def build_model(root):
    model = Model(root)
    unit_names = {}
    global_names = {}
    for path in cm.iter_source_files(root):
        with open(path, encoding="utf-8", errors="replace") as f:
            model.lines[path] = f.read().splitlines()
        model.allowed[path] = cm.make_allowed(model.lines[path])
        unit = unit_names.setdefault(os.path.splitext(path)[0], {})
        for name, keys in collect_declarations(model, path).items():
            unit.setdefault(name, set()).update(keys)
            global_names.setdefault(name, set()).update(keys)

    resolve = make_resolver(model, unit_names, global_names)
    functions, by_name = cm.build_function_inventory(root, cm.SCAN_DIRS)
    for fn in functions:
        analyze_function(model, fn, resolve)

    # One-level call-graph expansion: a call made under a held lock, to a
    # function defined exactly once in the tree that itself acquires
    # lock(s) with nothing else held, contributes held -> acquired edges.
    for held, callee, path, lineno in model.call_sites:
        if len(by_name.get(callee, ())) != 1:
            continue
        for h in held:
            for a in model.method_acquires.get(callee, ()):
                model.add_edge(h, a, path, lineno, via=callee)
    return model


def load_lock_ranks(root):
    """constant -> (rank, acquire_path, file, line) from the tree's
    lock_ranks.h, or None when it has none."""
    hits = find_named(root, "lock_ranks.h")
    if not hits:
        return None
    consts = {}
    with open(hits[0], encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            m = cm.LOCK_RANK_CONST_RE.match(cm.strip_line_comment(line))
            if m:
                acquire_path = bool(cm.ACQUIRE_PATH_RE.search(line))
                consts[m.group("const")] = (int(m.group("rank")),
                                            acquire_path, hits[0], lineno)
    return consts


# --------------------------------------------------------------------------
# Checks.

def check_manifest_sync(model, rank_consts):
    """lock_ranks.h against the OrderedMutex construction sites. Attaches
    each site's rank and acquire-path mark to its node."""
    out = []
    if rank_consts is None:
        if model.ordered_sites:
            _, _, path, lineno = model.ordered_sites[0]
            out.append(Finding(
                "manifest-sync", path, lineno,
                "OrderedMutex construction sites exist but no "
                "lock_ranks.h defines their ranks"))
        return out
    sites_of = {}
    first_site = {}
    for const, label, path, lineno in model.ordered_sites:
        sites_of.setdefault(const, []).append(label)
        if label in first_site:
            out.append(Finding(
                "manifest-sync", path, lineno,
                f'OrderedMutex label "{label}" is constructed twice (first '
                f"at {first_site[label]}); labels are unique"))
        first_site.setdefault(
            label, f"{os.path.relpath(path, model.root)}:{lineno}")
        if const not in rank_consts:
            out.append(Finding(
                "manifest-sync", path, lineno,
                f'OrderedMutex "{label}" is constructed with '
                f"lock_rank::{const}, which lock_ranks.h does not define"))
            continue
        node = model.nodes[label]
        node.rank, node.acquire_path = rank_consts[const][:2]
    const_of_rank = {}
    for const, (rank, _, path, lineno) in rank_consts.items():
        labels = sites_of.get(const, [])
        if len(labels) != 1:
            named = (", ".join(f'"{label}"' for label in labels)
                     or "no construction site")
            out.append(Finding(
                "manifest-sync", path, lineno,
                f"lock_rank::{const} is named by {named}; each constant "
                "ranks exactly one OrderedMutex"))
        if rank in const_of_rank:
            out.append(Finding(
                "manifest-sync", path, lineno,
                f"rank {rank} assigned to both lock_rank::"
                f"{const_of_rank[rank]} and lock_rank::{const} (ranks are "
                "unique)"))
        const_of_rank.setdefault(rank, const)
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
                f'holding "{e.src}" (rank {src.rank}); lock_ranks.h '
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


def check_guarded_field(model):
    out = []
    for path, lines in model.lines.items():
        for lineno, message in cm.guarded_field_findings(
                path, lines, model.allowed[path], "guarded-field"):
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
    findings = []
    findings += check_manifest_sync(model, load_lock_ranks(root))
    findings += check_lock_cycle(model)
    findings += check_rank_order(model)
    findings += check_blocking_reachable(model)
    findings += check_guarded_field(model)
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
