#!/usr/bin/env python3
"""sdb_lint: repo-local static checks for the concurrency discipline.

Checks (each can be listed with --list-checks):

  raw-sync        Raw standard-library synchronization primitives
                  (std::mutex, std::lock_guard, <condition_variable>, ...)
                  anywhere outside src/common/sync.h / sync.cc. Everything
                  must go through the annotated wrappers so Clang's
                  -Wthread-safety analysis and the runtime lock-order
                  registry see every acquisition.

  unguarded       In a class that owns a Mutex/SharedMutex, data members
                  declared after the first lock member must be annotated
                  SDB_GUARDED_BY / SDB_PT_GUARDED_BY, be std::atomic,
                  const, a sync primitive, or carry an explicit
                  "// unguarded:" justification. The repo convention is
                  locks-first-then-what-they-guard, so a bare member in
                  that region is almost always a latent race.

  ignored-status  A statement-level call to a function that returns
                  Status/Result whose value is dropped. Must be either
                  consumed or explicitly discarded as `(void)call();` with
                  a justification comment on the same or preceding line.
                  ([[nodiscard]] catches this at compile time too; the lint
                  additionally enforces the justification comment.)
                  Covers the .cc files under src/ and bench/.

  include-guard   Every .h under src/ must have a #ifndef/#define include
                  guard (or #pragma once).

  bare-escape     SDB_NO_THREAD_SAFETY_ANALYSIS outside common/sync.{h,cc}
                  without a justification comment on the same line or one
                  of the three lines above it. Escaping the analysis is a
                  claim that some structural invariant makes the access
                  safe -- the claim must be written down.

Exit status: 0 when clean, 1 when any check fires, 2 on usage error.
Run from anywhere; paths are resolved relative to the repo root (parent
of this script's directory) unless --root is given.
"""

import argparse
import os
import re
import sys
import tempfile

# The one place raw primitives are allowed: the wrapper implementation.
RAW_SYNC_WHITELIST = {
    os.path.join("src", "common", "sync.h"),
    os.path.join("src", "common", "sync.cc"),
}

RAW_SYNC_PATTERNS = [
    (re.compile(r"\bstd::(recursive_)?(timed_)?mutex\b"), "std::mutex"),
    (re.compile(r"\bstd::shared_(timed_)?mutex\b"), "std::shared_mutex"),
    (re.compile(r"\bstd::condition_variable"), "std::condition_variable"),
    (re.compile(r"\bstd::lock_guard\b"), "std::lock_guard"),
    (re.compile(r"\bstd::scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\bstd::unique_lock\b"), "std::unique_lock"),
    (re.compile(r"\bstd::shared_lock\b"), "std::shared_lock"),
    (re.compile(r"#\s*include\s*<mutex>"), "#include <mutex>"),
    (re.compile(r"#\s*include\s*<shared_mutex>"), "#include <shared_mutex>"),
    (re.compile(r"#\s*include\s*<condition_variable>"),
     "#include <condition_variable>"),
]

# A member declaration: optional `mutable`, a type with no parentheses,
# a name, optional guard annotation, optional initializer. Function
# declarations contain '(' in positions this regex rejects.
MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"(?P<type>[\w:<>,\s\*&\.]+?)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*"
    r"(?P<guard>SDB_(?:PT_)?GUARDED_BY\([^;]*\))?\s*"
    r"(?:=\s*[^;]*|\{[^;]*\})?;")

LOCK_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:Mutex|SharedMutex)\s+[A-Za-z_]\w*")

# Types that don't need SDB_GUARDED_BY even when declared after a lock.
UNGUARDED_OK_TYPES = re.compile(
    r"std::atomic|std::thread|Mutex|SharedMutex|CondVar|\bconst\b")

STATUS_FN_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?:static\s+)?"
    r"(?:Status|Result<[^;=]*>)\s+([A-Za-z_]\w*)\s*\(")

# `foo.Bar(...);` / `foo->Bar(...);` / `Bar(...);` as a whole statement.
CALL_STMT_RE = re.compile(
    r"^\s*(?:[A-Za-z_][\w\.\->:\[\]]*(?:\.|->|::))?"
    r"(?P<fn>[A-Za-z_]\w*)\s*\(.*\)\s*;\s*(?://.*)?$")


def find_sources(root, subdir, exts):
    out = []
    base = os.path.join(root, subdir)
    for dirpath, _, names in os.walk(base):
        for name in sorted(names):
            if os.path.splitext(name)[1] in exts:
                out.append(os.path.join(dirpath, name))
    return sorted(out)


def strip_comments_keep_lines(text):
    """Removes // and /* */ comment text but preserves line structure."""
    out = []
    in_block = False
    for line in text.splitlines():
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        # Strip string literals first so "//" inside strings doesn't count.
        scrubbed = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
        while True:
            block = scrubbed.find("/*")
            linec = scrubbed.find("//")
            if block >= 0 and (linec < 0 or block < linec):
                end = scrubbed.find("*/", block + 2)
                if end < 0:
                    scrubbed = scrubbed[:block]
                    line = line[:block]
                    in_block = True
                    break
                scrubbed = scrubbed[:block] + " " * (end + 2 - block) + scrubbed[end + 2:]
                line = line[:block] + " " * (end + 2 - block) + line[end + 2:]
                continue
            if linec >= 0:
                scrubbed = scrubbed[:linec]
                line = line[:linec]
            break
        out.append(line)
    return out


def check_raw_sync(root, files):
    findings = []
    for path in files:
        rel = os.path.relpath(path, root)
        if rel in RAW_SYNC_WHITELIST:
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = strip_comments_keep_lines(f.read())
        for i, line in enumerate(lines, 1):
            for pat, what in RAW_SYNC_PATTERNS:
                if pat.search(line):
                    findings.append(
                        f"{rel}:{i}: raw-sync: {what} outside common/sync.h "
                        f"-- use the shareddb wrappers (Mutex/MutexLock/CondVar)")
    return findings


def check_unguarded(root, files):
    findings = []
    for path in files:
        rel = os.path.relpath(path, root)
        if rel in RAW_SYNC_WHITELIST:
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
        lines = strip_comments_keep_lines("\n".join(raw_lines))
        depth = 0
        # Brace depth at which we saw a lock member -> scan members at the
        # same depth until the enclosing class closes.
        lock_depths = set()
        for i, line in enumerate(lines, 1):
            if LOCK_MEMBER_RE.match(line) and ";" in line:
                lock_depths.add(depth)
            elif depth in lock_depths:
                m = MEMBER_RE.match(line)
                if (m and not m.group("guard")
                        and not UNGUARDED_OK_TYPES.search(m.group("type"))
                        and "using" not in m.group("type")
                        and "unguarded:" not in raw_lines[i - 1]
                        and (i < 2 or "unguarded:" not in raw_lines[i - 2])):
                    findings.append(
                        f"{rel}:{i}: unguarded: member '{m.group('name')}' "
                        f"declared after a lock member without SDB_GUARDED_BY "
                        f"(annotate it, make it atomic/const, or justify with "
                        f"'// unguarded: <reason>')")
            # Count braces with string literals scrubbed so `{"name"}`
            # initializers don't skew depth; a `}` closes the scope whose
            # interior sat at the current depth.
            for ch in re.sub(r'"(?:[^"\\]|\\.)*"', '""', line):
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    lock_depths.discard(depth)
                    depth -= 1
    return findings


ANY_FN_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?:static\s+)?(?:inline\s+)?"
    r"(?P<ret>[\w:]+(?:<[^;()]*>)?[&\*]?)\s+(?P<name>[A-Za-z_]\w*)\s*\(")


def collect_status_functions(root, headers):
    """Names declared returning Status/Result in some header and *never*
    declared with another return type. Ambiguous names (e.g. a void
    Iterator::Open next to a Status Wal::Open) are dropped: a name-based
    lint cannot resolve the receiver, and [[nodiscard]] already catches
    those at compile time."""
    names = set()
    other_ret = set()
    for path in headers:
        with open(path, encoding="utf-8", errors="replace") as f:
            for line in strip_comments_keep_lines(f.read()):
                m = STATUS_FN_DECL_RE.match(line)
                if m:
                    names.add(m.group(1))
                    continue
                m = ANY_FN_DECL_RE.match(line)
                if m and m.group("ret") not in (
                        "return", "new", "delete", "else", "co_return"):
                    other_ret.add(m.group("name"))
    names -= other_ret
    # Factory helpers construct a Status on purpose; dropping the *call
    # site's use* of them is caught where the surrounding function ignores
    # its own return, not here.
    names -= {"OK", "InvalidArgument", "NotFound", "AlreadyExists",
              "OutOfRange", "FailedPrecondition", "Aborted", "IoError",
              "Unimplemented", "Internal", "ResourceExhausted",
              "DeadlineExceeded", "Unavailable"}
    return names


def check_ignored_status(root, files, status_fns):
    findings = []
    for path in files:
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
        lines = strip_comments_keep_lines("\n".join(raw_lines))
        prev_code = ""
        for i, line in enumerate(lines, 1):
            stripped = line.strip()
            prev, prev_code = prev_code, stripped or prev_code
            if stripped.startswith(("return", "if", "while", "for", "case",
                                    "#", "}", "SDB_", "EXPECT", "ASSERT")):
                continue
            # Only statement starts: a continuation line of a multi-line
            # expression is not a dropped result.
            if prev and not prev.endswith((";", "{", "}", ":")):
                continue
            if "=" in stripped.split("(")[0]:
                continue  # assigned
            void_cast = stripped.startswith("(void)")
            body = stripped[len("(void)"):].lstrip() if void_cast else stripped
            m = CALL_STMT_RE.match(body)
            if not m or m.group("fn") not in status_fns:
                continue
            if void_cast:
                has_comment = ("//" in raw_lines[i - 1]
                               or (i >= 2 and raw_lines[i - 2].strip().startswith("//")))
                if not has_comment:
                    findings.append(
                        f"{rel}:{i}: ignored-status: (void)-discarded "
                        f"{m.group('fn')}() needs a justification comment")
            else:
                findings.append(
                    f"{rel}:{i}: ignored-status: result of {m.group('fn')}() "
                    f"is dropped -- check it or discard with "
                    f"'(void)...;  // <why>'")
    return findings


def check_bare_escapes(root, files):
    findings = []
    for path in files:
        rel = os.path.relpath(path, root)
        if rel in RAW_SYNC_WHITELIST:
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
        for i, line in enumerate(raw_lines, 1):
            if "SDB_NO_THREAD_SAFETY_ANALYSIS" not in line:
                continue
            context = raw_lines[max(0, i - 4):i]
            if not any("//" in l for l in context):
                findings.append(
                    f"{rel}:{i}: bare-escape: SDB_NO_THREAD_SAFETY_ANALYSIS "
                    f"without a justification comment nearby")
    return findings


def check_include_guards(root, headers):
    findings = []
    for path in headers:
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        if "#pragma once" in text:
            continue
        m = re.search(r"#\s*ifndef\s+(\w+)\s*\n\s*#\s*define\s+(\w+)", text)
        if not m or m.group(1) != m.group(2):
            findings.append(
                f"{rel}:1: include-guard: header lacks a matching "
                f"#ifndef/#define include guard")
        elif "#endif" not in text:
            findings.append(
                f"{rel}:1: include-guard: guard #ifndef {m.group(1)} "
                f"is never closed with #endif")
    return findings


def run_all(root):
    src_files = find_sources(root, "src", {".h", ".cc"})
    headers = [p for p in src_files if p.endswith(".h")]
    impls = [p for p in src_files if p.endswith(".cc")]
    test_files = find_sources(root, "tests", {".h", ".cc"})
    tool_files = find_sources(root, "tools", {".h", ".cc"})
    bench_impls = find_sources(root, "bench", {".cc"})

    findings = []
    findings += check_raw_sync(root, src_files + test_files + tool_files)
    findings += check_unguarded(root, headers)
    status_fns = collect_status_functions(root, headers)
    findings += check_ignored_status(root, impls + bench_impls, status_fns)
    findings += check_include_guards(root, headers)
    findings += check_bare_escapes(root, src_files)
    return findings


# ---------------------------------------------------------------------------
# Self-test: seed one violation per check into a temp tree and assert the
# checker fires; also assert the clean variant passes.
# ---------------------------------------------------------------------------

SEEDED_RAW_SYNC = """
#include <mutex>
namespace shareddb { struct X { std::mutex mu_; }; }
"""

CLEAN_RAW_SYNC = """
#include "common/sync.h"
namespace shareddb { struct X { Mutex mu_{"x"}; }; }
"""

SEEDED_UNGUARDED = """
#ifndef SEED_H_
#define SEED_H_
#include "common/sync.h"
namespace shareddb {
class Queue {
 private:
  Mutex mu_{"queue"};
  int pending_ = 0;
};
}
#endif  // SEED_H_
"""

CLEAN_UNGUARDED = """
#ifndef SEED_H_
#define SEED_H_
#include "common/sync.h"
namespace shareddb {
class Queue {
 private:
  Mutex mu_{"queue"};
  int pending_ SDB_GUARDED_BY(mu_) = 0;
  std::atomic<int> hits_{0};
  // unguarded: written once at setup before threads start.
  int capacity_ = 8;
};
}
#endif  // SEED_H_
"""

SEEDED_IGNORED_STATUS_H = """
#ifndef SEED_S_H_
#define SEED_S_H_
namespace shareddb {
struct Log {
  Status Flush();
};
}
#endif  // SEED_S_H_
"""

SEEDED_IGNORED_STATUS_CC = """
#include "seed_status.h"
namespace shareddb {
void Tick(Log* log) {
  log->Flush();
}
}
"""

CLEAN_IGNORED_STATUS_CC = """
#include "seed_status.h"
namespace shareddb {
void Tick(Log* log) {
  (void)log->Flush();  // best-effort: next Flush retries.
  Status s = log->Flush();
  if (!s.ok()) return;
}
}
"""

SEEDED_NO_GUARD = """
namespace shareddb { struct Y {}; }
"""

SEEDED_BARE_ESCAPE = """
#include "common/sync.h"
namespace shareddb {
struct Z {
  int x() SDB_NO_THREAD_SAFETY_ANALYSIS { return x_; }
  int x_ = 0;
};
}
"""


def write_tree(root, files):
    for rel, content in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)


def self_test():
    failures = []

    def expect(name, findings, substr, want_hit):
        hit = any(substr in f for f in findings)
        if hit != want_hit:
            failures.append(
                f"{name}: expected {'a' if want_hit else 'no'} finding "
                f"matching {substr!r}; got: {findings or '[]'}")

    with tempfile.TemporaryDirectory(prefix="sdb_lint_selftest.") as tmp:
        write_tree(tmp, {
            "src/runtime/bad_sync.cc": SEEDED_RAW_SYNC,
            "src/runtime/bad_fields.h": SEEDED_UNGUARDED,
            "src/storage/seed_status.h": SEEDED_IGNORED_STATUS_H,
            "src/storage/bad_status.cc": SEEDED_IGNORED_STATUS_CC,
            "bench/bad_bench.cc": SEEDED_IGNORED_STATUS_CC,
            "src/api/no_guard.h": SEEDED_NO_GUARD,
            "src/core/bad_escape.cc": SEEDED_BARE_ESCAPE,
            # The whitelist itself must stay exempt.
            "src/common/sync.h": "#pragma once\n" + SEEDED_RAW_SYNC,
        })
        findings = run_all(tmp)
        expect("raw-sync seeded", findings, "bad_sync.cc:2: raw-sync", True)
        expect("raw-sync whitelist", findings, "sync.h:", False)
        expect("unguarded seeded", findings,
               "bad_fields.h:9: unguarded: member 'pending_'", True)
        expect("ignored-status seeded", findings,
               "bad_status.cc:5: ignored-status", True)
        expect("ignored-status seeded in bench/", findings,
               os.path.join("bench", "bad_bench.cc") + ":5: ignored-status",
               True)
        expect("include-guard seeded", findings,
               "no_guard.h:1: include-guard", True)
        expect("bare-escape seeded", findings,
               "bad_escape.cc:5: bare-escape", True)

    with tempfile.TemporaryDirectory(prefix="sdb_lint_selftest.") as tmp:
        write_tree(tmp, {
            "src/runtime/good_sync.cc": CLEAN_RAW_SYNC,
            "src/runtime/good_fields.h": CLEAN_UNGUARDED,
            "src/storage/seed_status.h": SEEDED_IGNORED_STATUS_H,
            "src/storage/good_status.cc": CLEAN_IGNORED_STATUS_CC,
            "bench/good_bench.cc": CLEAN_IGNORED_STATUS_CC,
        })
        findings = run_all(tmp)
        if findings:
            failures.append(f"clean tree flagged: {findings}")

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print("sdb_lint self-test: all checks fire on seeded violations, "
          "clean tree passes.")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each check fires on a seeded violation")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args()

    if args.list_checks:
        print("raw-sync unguarded ignored-status include-guard")
        return 0
    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"sdb_lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings = run_all(root)
    for f in findings:
        print(f)
    if findings:
        print(f"sdb_lint: {len(findings)} finding(s).", file=sys.stderr)
        return 1
    print("sdb_lint: clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
