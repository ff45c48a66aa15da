#!/usr/bin/env python3
"""Repo-specific determinism lint for the ELEMENT simulator.

The compiler cannot enforce the rules that keep simulation runs
reproducible; this lint does:

  R1  no wall-clock reads inside the simulator
      (std::chrono::system_clock / steady_clock / high_resolution_clock,
      time(), gettimeofday(), clock_gettime(), localtime/gmtime)
  R2  no RNG engine construction outside src/common/rng.h
      (std::mt19937*, minstd_rand, ranlux*, knuth_b, default_random_engine)
  R3  no std::random_device anywhere (nondeterministic seeding)
  R4  no libc rand()/srand()/drand48() family
  R5  no `float` in simulator arithmetic — time and byte bookkeeping must use
      int64/double so results do not depend on x87/SSE rounding width
  R6  no thread spawning (std::thread/std::jthread/std::async/pthread_create)
      in simulator code — every simulation is single-threaded by design
  R7  no std::function in src/tcpsim/, src/netsim/, src/topo/, or
      src/telemetry/ hot-path classes — those layers schedule via Timer,
      which stores its callback once at construction, so arming and firing
      allocate nothing.
      Existing app-facing observer registration interfaces are waived
      line-by-line with allow(std-function); new members need a design reason
      to join them. src/topo/ is in scope because routers and cross-traffic
      generators sit on the per-packet forwarding path of every multi-flow
      scenario; src/telemetry/ because FlowTelemetry::Emit is inlined into
      every instrumented event and record sinks must stay virtual-call-only.
  R8  no node-based container (node-container) in src/netsim/, src/topo/ or
      src/evloop/: no std::deque or std::list, and no std::map,
      std::unordered_map, std::set or std::unordered_set (multi- variants
      included), nor their headers. Their per-packet FIFOs use RingFifo
      (src/common/ring_fifo.h), which allocates nothing until its first push
      and nothing at all once grown, where a deque allocates blocks as it
      cycles and a list allocates one node per element. Their per-packet
      lookups by flow id use Demux's dense table (src/netsim/pipe.h), one
      bounds check and one load, where a map walks a tree and a hash map
      hashes and chases a bucket node. Waived line-by-line with
      allow(node-container), as for R7, when a line has a design reason.
  R9  no TcpSocket construction in src/, bench/ or examples/ outside the
      socket-pair helper (ConnectTcpPair in src/tcpsim/tcp_socket.cc) —
      every flow's sockets are made there, so the client/server Rng fork
      order and the Listen-then-Connect handshake are written once. Waived
      line-by-line with allow(socket-construction), as for R7 and R8.
  R10 no unset knob: every field of a `struct ...Config|Params|Options|Spec`
      declared in a src/ header must be set somewhere in src/, bench/,
      examples/ or perfbench/, or it is a configuration nobody runs and
      belongs in a named constant next to the code that reads it. A field
      counts as set where `.f =`, `->f =` or a nested `.f.x =` appears in
      those trees, unless the assignee's declared type (see the receiver
      lookup under R12) names another struct: `a.f =` looks `a` up, and
      `a.b.f =` follows `a`'s knob struct to its field `b`'s type. An
      assignee it cannot resolve (a call result, a longer chain) still
      counts. A setter in tests/ does not count, since no run reaches it
      (as for R12). A `&Struct::f` member pointer names a field without
      setting it, so it does not count either. The suite parser fills
      ScenarioSpec from JSON through such a table of member pointers, so a
      `"f":` key in a suite file (scenarios/*.json, perfbench/*.json) counts
      as a setter of ScenarioSpec::f. Waived per field line with
      allow(unset-knob).
  R11 no DuplexPath construction in src/, bench/ or examples/ outside
      Testbed (src/tcpsim/testbed.cc) — a single path's qdiscs, link models
      (fixed, stepped or a replayed trace, all through PathConfig) and Rng
      forks are chosen in one place; multi-hop paths come from topo::Network.
      Waived line-by-line with allow(path-construction).
  R12 no test-only API: every class, free function and public member function
      declared in a src/ header must be named somewhere in src/, bench/,
      examples/ or perfbench/ apart from its own declaration and its own
      out-of-line definitions (`Owner::name(`); for a class, its own body and
      its members' definitions do not count either. A call inside the
      declaring .cc counts, so a public helper its own module uses is fine; a
      name only tests/ use does not count, since no run reaches it. A class
      or free function is used where its name appears as a word. A member
      function is used only where it is called or named as a member:
      `.name(`, `->name(`, `Owner::name` or `&Owner::name`, or a bare
      `name(` inside its class's body or member definitions; so a local,
      field or free function of the same name does not hide it. The receiver
      lookup: `recv.name(` or `recv->name(` counts only when `recv` is
      declared with a type that names the owner or a class derived from it,
      as a local or parameter of the function holding the call, a field of
      the class whose code holds it, or a variable at file scope earlier in
      the file. `recv.field.name(` and `recv->field.name(` take one step on,
      to the declared type of `field` in the class `recv`'s type names. It
      still counts when no declaration is found or the type may alias any
      other (`auto`, a template parameter, a `using` name), and when the
      receiver is a call result or a longer chain, so the rule never calls
      a member unused where the compiler sees a call.
      Constructors, destructors, operators and overrides (reached through
      the virtual they override, which is checked) are not checked. Waived on
      the line that names the declaration with allow(test-only) and a reason
      after it, e.g. `// lint_sim: allow(test-only) -- observer`; a waiver
      without a reason is itself a finding.

Scope: src/ is linted with every rule (R7 only in src/tcpsim/, src/netsim/,
src/topo/, and src/telemetry/; R8 only in src/netsim/, src/topo/ and
src/evloop/; R9 and R11 in all of src/; R10 and R12 in src/ headers,
searching src/, bench/, examples/ and perfbench/ (and, for R10, the suite
files) for setters and uses whatever paths are linted).
bench/ and examples/ are linted with R2/R3/R4, R9 and R11; tests/ with
R2/R3/R4 only, since unit tests build sockets and paths by hand to reach
states a flow cannot (benchmark harnesses legitimately read wall clocks;
floats never carry sim state in src/ but may appear in plotting-oriented
code).

src/runner/ policy: the fleet executor (src/runner/fleet.cc) is the one
sanctioned parallel driver, so it is exempt from R6 — but wall-clock reads
there are still findings unless waived line-by-line, and the simulations it
fans out remain single-threaded (everything the runner calls into is linted
with the full rule set). std::thread::hardware_concurrency() is a pure query,
not a spawn, and is allowed everywhere.

A finding can be waived for one line with a trailing comment:
    do_something();  // lint_sim: allow(<rule>)
e.g. `// lint_sim: allow(wall-clock)`.

Exit status: 0 when clean, 1 when findings exist, 2 on usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cc", ".h", ".cpp", ".hpp"}

# rule name -> (regex, message)
RULES = {
    "wall-clock": (
        re.compile(
            r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
            r"|\bgettimeofday\s*\("
            r"|\bclock_gettime\s*\("
            r"|\b(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&)"
            r"|\b(localtime|gmtime|mktime)\s*\("
        ),
        "wall-clock read; simulation code must use SimTime/EventLoop::now()",
    ),
    "rng-engine": (
        re.compile(
            r"\bstd::(mt19937(_64)?|minstd_rand0?|ranlux(24|48)(_base)?|knuth_b"
            r"|default_random_engine)\b"
        ),
        "RNG engine constructed outside src/common/rng.h; use Rng (explicit seed, Fork())",
    ),
    "random-device": (
        re.compile(r"\bstd::random_device\b"),
        "std::random_device is nondeterministic; seeds must be explicit",
    ),
    "libc-rand": (
        re.compile(r"\b(?:std::)?(rand|srand|rand_r|drand48|srand48|random)\s*\("),
        "libc rand family is nondeterministic across platforms; use Rng",
    ),
    "float": (
        re.compile(r"(?<![\w.])float(?![\w])"),
        "float in simulator arithmetic; use double or int64_t "
        "(time/byte bookkeeping must not lose precision)",
    ),
    "std-function": (
        re.compile(r"\bstd::function\b"),
        "std::function in a tcpsim/netsim hot-path class; per-event callbacks "
        "belong in a Timer, which stores its callback once (app-facing observer "
        "registration may be waived with lint_sim: allow(std-function))",
    ),
    "node-container": (
        re.compile(
            r"\bstd::(deque|list|(?:unordered_)?(?:multi)?(?:map|set))\b"
            r"|#\s*include\s*<(deque|list|(?:unordered_)?(?:map|set))>"
        ),
        "node-based container in a netsim/topo/evloop per-packet path; use "
        "RingFifo (src/common/ring_fifo.h) for a FIFO and Demux "
        "(src/netsim/pipe.h) for a flow-id lookup "
        "(waive with lint_sim: allow(node-container))",
    ),
    # A heap-made, `new`-ed or named (stack/member-initialized) TcpSocket.
    "socket-construction": (
        re.compile(
            r"\bmake_(?:unique|shared)\s*<\s*(?:element::)?TcpSocket\s*>"
            r"|\bnew\s+(?:element::)?TcpSocket\b"
            r"|(?<![\w:])(?:element::)?TcpSocket\s+\w+\s*[({]"
        ),
        "TcpSocket constructed outside the socket-pair helper; make a flow's "
        "sockets with ConnectTcpPair (src/tcpsim/tcp_socket.h) "
        "(waive with lint_sim: allow(socket-construction))",
    ),
    # A heap-made, `new`-ed or named DuplexPath.
    "path-construction": (
        re.compile(
            r"\bmake_(?:unique|shared)\s*<\s*(?:element::)?DuplexPath\s*>"
            r"|\bnew\s+(?:element::)?DuplexPath\b"
            r"|(?<![\w:])(?:element::)?DuplexPath\s+\w+\s*[({]"
        ),
        "DuplexPath constructed outside Testbed; describe the path with a "
        "PathConfig (PathConfig::steps for a stepped link or a replayed trace) "
        "and build it with Testbed (src/tcpsim/testbed.h) "
        "(waive with lint_sim: allow(path-construction))",
    ),
    # (?!::) keeps std::thread::hardware_concurrency() (a query, not a spawn)
    # out of scope.
    "thread": (
        re.compile(r"\bstd::j?thread\b(?!::)|\bstd::async\s*\(|\bpthread_create\b"),
        "thread spawned in simulator code; parallelism belongs in the "
        "src/runner/ fleet executor and each simulation stays single-threaded",
    ),
}

ALLOW_RE = re.compile(r"//\s*lint_sim:\s*allow\(([a-z-]+)\)")
LINE_COMMENT_RE = re.compile(r"//(?!\s*lint_sim:).*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')

# Files exempt from specific rules.
EXEMPT = {
    # The one place RNG engines may be constructed and held.
    "src/common/rng.h": {"rng-engine"},
    # The sanctioned parallel driver: spawns worker threads around (not
    # inside) deterministic simulations. Wall-clock reads are still findings
    # here unless waived line-by-line for harness timing.
    "src/runner/fleet.cc": {"thread"},
    # Home of ConnectTcpPair, the one place src/ constructs TcpSockets.
    "src/tcpsim/tcp_socket.cc": {"socket-construction"},
    # Testbed, the one place that builds a single path.
    "src/tcpsim/testbed.cc": {"path-construction"},
}


def lint_line(line: str, rules: dict) -> list[tuple[str, str]]:
    """Returns (rule, message) findings for one source line."""
    allow = {m.group(1) for m in ALLOW_RE.finditer(line)}
    # Strip string literals and trailing comments so prose does not trip rules.
    code = STRING_RE.sub('""', line)
    code = LINE_COMMENT_RE.sub("", code)
    findings = []
    for name, (pattern, message) in rules.items():
        if name in allow:
            continue
        if pattern.search(code):
            findings.append((name, message))
    return findings


# R10 (unset-knob) and R12 (test-only) work on whole declarations, not lines.
# Both read them through one statement scanner (scope_statements) over text
# whose comments and literals are blanked, and its preprocessor lines too.
# Both count only what a run reaches: these trees, not tests/.
RUN_TREES = ("src", "bench", "examples", "perfbench")
KNOB_STRUCT_RE = re.compile(r"\w*(?:Config|Params|Options|Spec)")
# The struct ScenarioSuite::ParseJson fills from the suite files' keys.
SUITE_STRUCT = "ScenarioSpec"
SUITE_GLOBS = ("scenarios/*.json", "perfbench/*.json")
SUITE_KEY_RE = re.compile(r'"(\w+)"\s*:')
UNSET_KNOB_MESSAGE = (
    "config field that nothing in src/, bench/, examples/, perfbench/ or a "
    "suite file sets (tests/ do not count); make it a named constant next to "
    "the code that reads it (waive with lint_sim: allow(unset-knob))"
)
# Comments, string literals and character literals (not a digit separator,
# as in 1'000).
BLANK_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:[^"\\\n]|\\.)*"|(?<![\w\'])\'(?:[^\'\\\n]|\\.)+\'', re.S)
# A preprocessor line and its continuations.
PREPROCESSOR_RE = re.compile(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", re.M)
DECL_SKIP_RE = re.compile(r"\s*(static|using|typedef|friend|template|struct|class|enum|union"
                          r"|namespace|extern|static_assert)\b")
ACCESS_RE = re.compile(r"(?:\s*\b(public|private|protected)\s*:(?!:))*")
TEMPLATE_RE = re.compile(r"\s*template\s*<")
TYPE_HEAD_RE = re.compile(r"\s*(struct|class)\s+(\w+)[^;{}()]*$")
NAMESPACE_HEAD_RE = re.compile(r"\s*(?:namespace\b|extern\s*$)")
SCOPE_PUNCT_RE = re.compile(r"[{}();]")
# A member's brace initializer in a constructor's initializer list: a `:`
# after the parameter list, and a member name just before the brace.
INIT_LIST_BRACE_RE = re.compile(r"\)[^;{}()]*(?<!:):(?!:).*[\w>]\s*$", re.S)


def blank(pattern: re.Pattern, text: str) -> str:
    """Replaces each match of `pattern` with spaces, keeping offsets."""
    return pattern.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)


def blank_comments_and_strings(text: str) -> str:
    return blank(BLANK_RE, text)


def strip_template(code: str, at: int, end: int) -> int:
    """The offset just past a template parameter list starting at `at`, or
    `at` when there is none."""
    m = TEMPLATE_RE.match(code, at, end)
    if not m:
        return at
    depth = 0
    for i in range(m.end() - 1, end):
        if code[i] == "<":
            depth += 1
        elif code[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return end


def scope_statements(code: str, start: int = 0, owners: tuple = (), access: str = "public"):
    """The statement scanner. Yields (owners, access, decl, at, body) for each
    statement of the scope whose text begins at `start`, and recurses into
    namespaces and types: `owners` names the enclosing types (empty at
    namespace scope), `access` is the statement's access, `decl` its text up
    to its `;` or its body's `{` without leading access labels or template
    parameter list, `at` the offset of `decl`, and `body` the offsets of the
    braces around a function body, type or namespace (None for a statement
    that ends in `;`). A brace initializer, a member's brace initializer in a
    constructor's initializer list and a lambda inside parentheses stay inside
    their statement."""
    depth, parens, stmt, open_at, in_parens = 0, 0, start, start, False
    for m in SCOPE_PUNCT_RE.finditer(code, start):
        c, i = m.group(), m.start()
        if c == "{":
            depth += 1
            if depth == 1:
                open_at, in_parens = i, parens > 0
            continue
        if c == "}":
            if depth == 0:
                return  # the scope's own closing brace
            depth -= 1
            if depth or in_parens:
                continue
            end, body = open_at, (open_at, i)
        elif depth:
            continue
        elif c in "()":
            parens = max(parens + (1 if c == "(" else -1), 0)
            continue
        else:
            end, body = i, None
        labels = ACCESS_RE.match(code, stmt, end)
        if labels.group(1):
            access = labels.group(1)
        at = strip_template(code, labels.end(), end)
        decl = code[at:end]
        if body and (INIT_LIST_BRACE_RE.search(decl) or (
                "(" not in decl.split("=", 1)[0] and not DECL_SKIP_RE.match(decl))):
            continue  # a brace initializer: the statement goes on
        yield owners, access, decl, at, body
        stmt, parens = i + 1, 0
        if body and NAMESPACE_HEAD_RE.match(decl):
            yield from scope_statements(code, body[0] + 1, owners, "public")
        elif body and (head := TYPE_HEAD_RE.match(decl)):
            default = "public" if head.group(1) == "struct" else "private"
            yield from scope_statements(code, body[0] + 1, owners + (head.group(2),), default)


def knob_fields(text: str):
    """Yields (struct, owner, field, offset) for each data member of a knob
    struct; `owner` is the outermost enclosing type's name (the struct's own
    name when it is not nested), which is how other files name it."""
    code = blank(PREPROCESSOR_RE, blank_comments_and_strings(text))
    for owners, _, decl, at, body in scope_statements(code):
        if body or not owners or not KNOB_STRUCT_RE.fullmatch(owners[-1]):
            continue
        lhs = re.split(r"[={]", decl, maxsplit=1)[0]
        if not lhs.strip() or "(" in lhs or DECL_SKIP_RE.match(lhs):
            continue
        name = re.search(r"(\w+)\s*(?:\[[^\]]*\]\s*)*$", lhs)
        if name:
            yield owners[-1], owners[0], name.group(1), at + name.start(1)


class KnobIndex:
    """Every knob field declared in src/ headers, and the setters that the
    run trees and suite files hold."""

    def __init__(self, root: Path, uses: "UseIndex"):
        self.uses = uses
        self.suite_keys = {key for pattern in SUITE_GLOBS for p in sorted(root.glob(pattern))
                           for key in SUITE_KEY_RE.findall(p.read_text())}

    def is_set(self, struct: str, owner: str, field: str) -> bool:
        if struct == SUITE_STRUCT and field in self.suite_keys:
            return True
        assign = re.compile(rf"(?:\.|->)\s*{re.escape(field)}\s*(?:\.\w+\s*)*=(?!=)")
        for fi, code in self.uses.code.items():
            for m in assign.finditer(code):
                # The assignee's type: a variable's, or one `.field` step on
                # from a variable whose type is a knob struct.
                chain = receiver_chain(code, m.start())
                kind = None
                if chain and len(chain[1]) <= 2:
                    kind = self.uses.declared_type(fi, m.start(), chain[1][0], chain[0])
                    if kind is not None and len(chain[1]) == 2:
                        kind = self.uses.field_type(kind, chain[1][1], knobs_only=True)
                if kind is None or self.uses.names(kind, struct, owner) is not False:
                    return True
        return False


def lint_unset_knobs(path: Path, index: KnobIndex) -> list[tuple[int, str]]:
    """R10: (line, message) for each knob field nothing sets."""
    text = path.read_text()
    lines = text.splitlines()
    findings = []
    for struct, owner, field, offset in knob_fields(text):
        lineno = text.count("\n", 0, offset) + 1
        if "unset-knob" in {m.group(1) for m in ALLOW_RE.finditer(lines[lineno - 1])}:
            continue
        if not index.is_set(struct, owner, field):
            qualified = struct if owner == struct else f"{owner}::{struct}"
            findings.append((lineno, f"{qualified}::{field}: {UNSET_KNOB_MESSAGE}"))
    return findings


# R12 (test-only): a public name of a src/ header that no run reaches.
TEST_ONLY_MESSAGE = (
    "public API that nothing in src/, bench/, examples/ or perfbench/ names "
    "(tests/ do not count); delete it, or waive a read-only observer of what "
    "runs compute with lint_sim: allow(test-only) -- <reason>"
)
TEST_ONLY_WAIVER_RE = re.compile(r"//\s*lint_sim:\s*allow\(test-only\)(.*)$")
WORD_RE = re.compile(r"[A-Za-z_]\w*")
ELABORATED_RE = re.compile(r"\b(?:class|struct)\s+(\w+)")
# The declarator before a parameter list: `Owner::` qualifiers, then the name.
DECLARATOR_RE = re.compile(r"((?:\w+\s*(?:<[^<>;{}]*>\s*)?::\s*)*)(~?)(\w+)\s*$")
QUALIFIER_RE = re.compile(r"\w+(?=\s*(?:<[^<>;{}]*>\s*)?::)")
# What a member's name may follow: `.`, `->` or a `Class::` qualifier
# (group 1), each ending just before the name.
MEMBER_BEFORE_RE = re.compile(r"(?:\.|->|(\w+)\s*(?:<[^<>;{}]*>\s*)?::)\s*\Z")
# A call after a member's name: template arguments, if any, then `(`.
MEMBER_CALL_RE = re.compile(r"\s*(?:<[^<>;{}()]*>\s*)?\(")
# `override` or `final` after a member's parameter list.
OVERRIDE_RE = re.compile(r"\)[^()]*\b(?:override|final)\b")
NOT_A_FUNCTION_RE = re.compile(
    r"\s*(using|typedef|friend|struct|class|enum|union|namespace|extern|static_assert)\b")


def declarator(decl: str):
    """(qualifiers, name, offset of name) of the function that a declaration
    names (a destructor's name without its `~`), or None for a data member,
    type or operator.
    `qualifiers` lists (name, offset) of its `Owner::` prefix, which only an
    out-of-line definition has."""
    if NOT_A_FUNCTION_RE.match(decl):
        return None
    depth = 0
    for m in re.finditer(r"[<>(=]", decl):
        c = m.group()
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(depth - 1, 0)
        elif depth == 0:
            if c == "=":
                return None  # an initializer before any parameter list
            before = decl[:m.start()]
            d = DECLARATOR_RE.search(before)
            if not d or re.search(r"\boperator\b", before):
                return None
            qualifiers = [(q.group(), d.start(1) + q.start())
                          for q in QUALIFIER_RE.finditer(d.group(1))]
            return qualifiers, d.group(3), d.start(3)
    return None


# The receiver lookup that R10 and R12 share: the declared type of the
# variable before a `.` or `->`. A declaration is a type, then the name, then
# one of `; = ( { [ , ) :`; a statement such as `return x;` is not one.
TYPE_TEXT_RE = re.compile(
    r"\s*(?:(?:const|static|constexpr|mutable|inline|volatile)\s+)*"
    r"[A-Za-z_][\w:]*\s*(?:<.*>)?\s*(?:const\b)?[\s*&]*(?:const\b)?\s*\Z", re.S)
NOT_A_TYPE_RE = re.compile(
    r"\s*(?:return|else|case|delete|throw|new|goto|sizeof|using|co_return|co_await|co_yield)\b")
# A chain of names before a `.` or `->`: `a`, `a.b`, `this->a`.
RECEIVER_RE = re.compile(r"((?:\w+\s*(?:\.|->)\s*)*\w+)\s*\Z")
# Words of a type that name no class: keywords, built-in and `_t` types.
TYPE_WORDS = frozenset(
    "const volatile static constexpr mutable inline unsigned signed int long short char "
    "bool double float void typename struct class".split())


def receiver_chain(code: str, end: int):
    """(member_only, names) of the receiver whose `.` or `->` starts at
    `end`: `a.b.f` gives (False, ["a", "b"]), and `this->a.f` (True, ["a"]),
    a member of the enclosing class. None when the receiver is not a chain of
    names (a call result, a subscript, a qualified name)."""
    m = RECEIVER_RE.search(code, max(0, end - 256), end)
    if not m or m.group(1)[0].isdigit():
        return None
    i = m.start()
    while i > 0 and code[i - 1].isspace():
        i -= 1
    if i > 0 and code[i - 1] in ".>:)]":
        return None
    names = re.split(r"\s*(?:\.|->)\s*", m.group(1))
    if names[0] == "this":
        return (True, names[1:]) if len(names) > 1 else None
    return False, names


def declaration_type(code: str, at: int, lo: int):
    """The type before the name at `at` when that name is declared there
    (a variable, parameter or field), else None; the type starts after `lo`."""
    depth, i = 0, at
    while i > lo:
        c = code[i - 1]
        if c in ";{}" or (depth == 0 and c in "(),=<"):
            break
        if c == ">" and code[i - 2:i] != "->":
            depth += 1
        elif c == "<":
            depth -= 1
        i -= 1
    text = code[i:at]
    if (not TYPE_TEXT_RE.fullmatch(text) or NOT_A_TYPE_RE.match(text)
            or not (text[-1:].isspace() or text[-1:] in "*&")):
        return None
    return text.strip()


class UseIndex:
    """Where each name appears in src/, bench/, examples/ and perfbench/,
    less where it is declared or defined, and the public API (classes, free
    functions and public member functions) that src/ headers declare. It also
    holds what the receiver lookup needs: each class's fields and bases, and
    where each function and class body lies."""

    def __init__(self, root: Path):
        self.uses = {}      # name -> [(file, offset)], a file being its resolved path
        self.code = {}      # file -> its text, comments and literals blanked
        self.skip = set()   # (file, offset) of declarations and definitions
        self.spans = {}     # class -> [(file, begin, end)] of its body and member definitions
        self.api = {}       # src/ header path -> [(owner, name, offset, is_class)]
        self.functions = {}  # file -> [(begin, end)] of function definitions
        self.fields = {}    # "Outer::Class" -> {field: declared type}
        self.bases = {}     # class -> [base class]
        for tree in RUN_TREES:
            base = root / tree
            if not base.is_dir():
                continue
            for p in sorted(base.rglob("*")):
                if p.suffix in CPP_SUFFIXES:
                    self._add(p, tree == "src" and p.suffix in {".h", ".hpp"})

    def _add(self, path: Path, header: bool):
        key = path.resolve()
        code = blank_comments_and_strings(path.read_text())
        self.code[key] = code
        api = self.api.setdefault(key, []) if header else None
        functions = self.functions.setdefault(key, [])
        for m in ELABORATED_RE.finditer(code):  # type heads and forward declarations
            self.skip.add((key, m.start(1)))
        # Macro bodies use names; only the scanner skips preprocessor lines.
        for owners, access, decl, at, body in scope_statements(blank(PREPROCESSOR_RE, code)):
            public = header and access == "public"
            head = TYPE_HEAD_RE.match(decl) if body else None
            if head:
                self.spans.setdefault(head.group(2), []).append((key, at, body[1]))
                bases = re.split(r"(?<!:):(?!:)", decl[head.end(2):], maxsplit=1)[1:]
                self.bases.setdefault(head.group(2), []).extend(
                    re.findall(r"(\w+)\s*(?:<[^<>]*>)?\s*(?:,|$)", bases[0]) if bases else ())
                if public:
                    api.append(("::".join(owners), head.group(2), at + head.start(2), True))
                continue
            fn = declarator(decl)
            lhs = re.split(r"[={]", decl, maxsplit=1)[0]
            if owners and not body and "(" not in lhs and not DECL_SKIP_RE.match(lhs):
                field = re.search(r"(\w+)\s*(?:\[[^\]]*\]\s*)*$", lhs)
                kind = field and declaration_type(lhs, field.start(1), 0)
                if kind:
                    self.fields.setdefault("::".join(owners), {})[field.group(1)] = kind
                continue
            if not fn:
                continue
            qualifiers, name, offset = fn
            self.skip.add((key, at + offset))
            if body:
                functions.append((at, body[1]))
            if qualifiers:  # an out-of-line definition names none of its owners
                end = body[1] if body else at + len(decl)
                for owner, q_at in qualifiers:
                    self.skip.add((key, at + q_at))
                    self.spans.setdefault(owner, []).append((key, at, end))
            elif public and (not owners or name != owners[-1]) and not OVERRIDE_RE.search(decl):
                api.append(("::".join(owners), name, at + offset, False))
        for m in WORD_RE.finditer(code):
            self.uses.setdefault(m.group(), []).append((key, m.start()))

    def used(self, owner: str, name: str, is_class: bool) -> bool:
        spans = self.spans.get(name, ()) if is_class else ()
        member_of = owner.rsplit("::", 1)[-1] if owner and not is_class else None
        return any((fi, at) not in self.skip and
                   not any(f == fi and begin <= at < end for f, begin, end in spans) and
                   (member_of is None or self.member_use(member_of, name, fi, at))
                   for fi, at in self.uses.get(name, ()))

    def member_use(self, owner: str, name: str, fi: Path, at: int) -> bool:
        """Whether the word `name` at `at` in `fi` calls or names a member of
        `owner`: `recv.name(` or `recv->name(` unless `recv` is declared
        with a type that names neither `owner` nor a class derived from it
        (`recv.field.name(` takes the declared type of `field` there),
        `Owner::name`, or a bare `name(` inside the owner's body or member
        definitions."""
        code = self.code[fi]
        before = MEMBER_BEFORE_RE.search(code, max(0, at - 256), at)
        called = MEMBER_CALL_RE.match(code, at + len(name))
        if before and before.group(1):
            return before.group(1) == owner
        if before:  # `.` or `->`
            chain = receiver_chain(code, before.start())
            if called is None:
                return False
            if not chain or len(chain[1]) > 2:
                return True
            kind = self.declared_type(fi, before.start(), chain[1][0], chain[0])
            if kind is not None and len(chain[1]) == 2:
                kind = self.field_type(kind, chain[1][1])
            return kind is None or self.names(kind, owner) is not False
        return called is not None and any(
            f == fi and begin <= at < end for f, begin, end in self.spans.get(owner, ()))

    def declared_type(self, fi: Path, at: int, name: str, member_only: bool = False):
        """The declared type of the variable `name` used at `at` in `fi`: a
        local or parameter of the function holding `at`, else a field of a
        class whose body or member definition holds it, else a declaration at
        file scope earlier in the file. None when none is found."""
        code = self.code[fi]
        functions = self.functions.get(fi, ())
        func = max((f for f in functions if f[0] <= at < f[1]), default=None)
        declared = re.compile(rf"\b{re.escape(name)}\b(?=\s*(?:[;=({{\[,)]|:(?!:)))")

        def last_declaration(lo, hi, local):
            for m in reversed(list(declared.finditer(code, lo, hi))):
                if local or not any(b <= m.start() < e for b, e in functions):
                    kind = declaration_type(code, m.start(), lo)
                    if kind:
                        return kind
            return None

        if not member_only and func:
            kind = last_declaration(func[0], at, True)
            if kind:
                return kind
        for cls in (c for c, spans in self.spans.items()
                    for f, begin, end in spans if f == fi and begin <= at < end):
            kind = self.field_type(cls, name)
            if kind:
                return kind
        return None if member_only else last_declaration(0, func[0] if func else at, False)

    def field_type(self, kind: str, field: str, knobs_only: bool = False):
        """The declared type of `field` in the class that the type text
        `kind` names (`const Outer::Options&` names Outer::Options) or in its
        bases; None when no single class of that name declares it."""
        names = [n for n in re.findall(r"(?:\w+\s*::\s*)*\w+", kind) if n not in TYPE_WORDS]
        if not names:
            return None
        parts = re.split(r"\s*::\s*", names[-1])
        if knobs_only and not KNOB_STRUCT_RE.fullmatch(parts[-1]):
            return None
        # Classes whose qualified name and `parts` end alike: `Options` is
        # ambiguous where two classes nest an Options, `Outer::Options` is not.
        keys = [k for k in self.fields
                if (n := min(k.count("::") + 1, len(parts))) and k.split("::")[-n:] == parts[-n:]]
        if len(keys) == 1 and field in self.fields[keys[0]]:
            return self.fields[keys[0]][field]
        return next((found for base in self.bases.get(parts[-1], ())
                     if (found := self.field_type(base, field))), None)

    def derived(self, cls: str) -> set:
        """`cls` and every class derived from it."""
        found, todo = {cls}, [cls]
        while todo:
            base = todo.pop()
            for c, bases in self.bases.items():
                if base in bases and c not in found:
                    found.add(c)
                    todo.append(c)
        return found

    def names(self, kind: str, cls: str, outer: str = None):
        """Whether the type text `kind` names the class `cls` (nested in
        `outer`, when given and not `cls`) or a class derived from it: True or
        False, or None when it holds a name that may alias any type (`auto`, a
        template parameter, a `using` alias)."""
        words = WORD_RE.findall(kind)
        if "auto" in words or "decltype" in words:
            return None
        if outer and outer != cls and cls in words:
            quals = re.findall(rf"(\w+)\s*::\s*{cls}\b", kind)
            return None if not quals else outer in quals
        if set(words) & self.derived(cls):
            return True
        for m in WORD_RE.finditer(kind):
            w = m.group()
            if (w in TYPE_WORDS or w.endswith("_t") or w in self.spans or
                    re.match(r"\s*::", kind[m.end():]) or
                    re.search(r"\bstd\s*::\s*\Z", kind[:m.start()])):
                continue
            return None
        return False


def lint_test_only(path: Path, index: UseIndex) -> list[tuple[int, str]]:
    """R12: (line, message) for each public name only tests could reach."""
    text = path.read_text()
    lines = text.splitlines()
    findings = []
    for owner, name, offset, is_class in index.api.get(path, ()):
        lineno = text.count("\n", 0, offset) + 1
        qualified = f"{owner}::{name}" if owner else name
        waiver = TEST_ONLY_WAIVER_RE.search(lines[lineno - 1])
        if waiver:
            if not re.search(r"\w", waiver.group(1)):
                findings.append((lineno, f"{qualified}: allow(test-only) needs a reason"))
        elif not index.used(owner, name, is_class):
            findings.append((lineno, f"{qualified}: {TEST_ONLY_MESSAGE}"))
    return findings


def rules_for(rel: str) -> dict:
    if rel.startswith("src/"):
        selected = dict(RULES)
        if not rel.startswith(("src/tcpsim/", "src/netsim/", "src/topo/", "src/telemetry/")):
            selected.pop("std-function")
        if not rel.startswith(("src/netsim/", "src/topo/", "src/evloop/")):
            selected.pop("node-container")
    else:
        selected = {k: RULES[k] for k in ("rng-engine", "random-device", "libc-rand")}
        if rel.startswith(("bench/", "examples/")):
            for rule in ("socket-construction", "path-construction"):
                selected[rule] = RULES[rule]
    for rule in EXEMPT.get(rel, ()):  # per-file exemptions
        selected.pop(rule, None)
    return selected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None, help="repository root (default: auto)")
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: whichever of src tests bench "
             "examples the root holds)",
    )
    args = parser.parse_args()

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"lint_sim: {root} does not look like the repo root", file=sys.stderr)
        return 2

    if args.paths:
        targets = [Path(p).resolve() for p in args.paths]
    else:
        targets = [root / d for d in ("src", "tests", "bench", "examples") if (root / d).is_dir()]

    files = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(p for p in target.rglob("*") if p.suffix in CPP_SUFFIXES))
        elif target.is_file():
            files.append(target)
        else:
            print(f"lint_sim: no such path: {target}", file=sys.stderr)
            return 2

    failures = 0
    knobs = None
    uses = None
    for path in files:
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:  # outside the repo root: no EXEMPT match, all rules apply
            rel = path.as_posix()
        rules = rules_for(rel)
        in_block_comment = False
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            # Cheap block-comment tracking (no nesting, as in C++).
            if in_block_comment:
                if "*/" in line:
                    line = line.split("*/", 1)[1]
                    in_block_comment = False
                else:
                    continue
            if "/*" in line and "*/" not in line.split("/*", 1)[1]:
                line = line.split("/*", 1)[0]
                in_block_comment = True
            for rule, message in lint_line(line, rules):
                print(f"{rel}:{lineno}: [{rule}] {message}")
                failures += 1
        if rel.startswith("src/") and path.suffix in {".h", ".hpp"}:
            if uses is None:
                uses = UseIndex(root)
                knobs = KnobIndex(root, uses)
            for lineno, message in lint_unset_knobs(path, knobs):
                print(f"{rel}:{lineno}: [unset-knob] {message}")
                failures += 1
            for lineno, message in lint_test_only(path.resolve(), uses):
                print(f"{rel}:{lineno}: [test-only] {message}")
                failures += 1

    if failures:
        print(f"lint_sim: {failures} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_sim: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
