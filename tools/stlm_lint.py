#!/usr/bin/env python3
"""stlm-lint: repo-specific determinism and hygiene checks for src/.

The generic sanitizer/clang-tidy layers cannot see this library's own
contracts, so this linter enforces the ones that keep simulations
reproducible and the library embeddable:

  determinism-rand        no rand()/srand()/std::random_device in library
                          code: simulated behaviour must not depend on
                          hidden global RNG state (workloads thread
                          explicit seeds through SplitMix/engine objects).
  determinism-wall-clock  no wall-clock reads (std::chrono::*_clock,
                          time(), gettimeofday, clock_gettime): simulated
                          time comes from the kernel, and host time leaking
                          into results breaks bit-identity across runs.
  io-stdout               no std::cout / printf() in library code: the
                          library is embeddable, so reports take an
                          ostream& and diagnostics go through
                          kernel/report.hpp (stderr).
  hot-path-alloc          files tagged `// stlm-lint: hot-path` must not
                          introduce per-event heap allocation (new,
                          malloc/calloc/realloc, make_unique/make_shared),
                          nor swap a member container into a function-local
                          one (`local.swap(member_)`, `std::swap(local,
                          member_)`): the local's destructor then frees the
                          member's buffer on every call. The kernel's speed
                          story depends on steady-state simulation being
                          allocation-free; double-buffer with a member.
  hot-path-syscall        files tagged `// stlm-lint: hot-path` must not
                          call ::mmap/::munmap/::mprotect (the repo
                          spells libc calls globally qualified) outside a
                          justified allow(): a mapping change costs a
                          syscall (and, on unmap, a TLB shootdown across
                          every thread of the process), so it belongs
                          where the cache misses, not on a per-cell or
                          per-event path.
  hot-path-atomic         files tagged `// stlm-lint: hot-path` must not
                          do an atomic read-modify-write (fetch_add/
                          fetch_sub/fetch_and/fetch_or/fetch_xor,
                          exchange, compare_exchange_*, as members or as
                          std::atomic_* free functions) outside a
                          justified allow(): one counter bumped per event
                          makes every thread of a parallel sweep bounce
                          one cache line. Keep per-simulator state in the
                          simulator. `++`/`--` on an atomic is invisible
                          to the scan, so spell it fetch_add.
  build-switch            no STLM_AUDIT / STLM_OBS in src/ or tests/, code
                          or comments: the observability hooks are always
                          compiled in and the audit hooks are gone, so the
                          library has one configuration and no test may
                          gate on a switch that no longer exists.
  one-cell-path           no core::Mapper::map( call in src/explore/ outside
                          a justified allow(): the explorer's cell runner
                          is the one place a cell is mapped, so the sweep,
                          evaluate() and the trace target share one path
                          (map or reset, trace, run, analyse), and a row
                          cannot come from a second copy of it.
  test-coverage           every src/**/*.cpp translation unit must be
                          reachable from at least one tests/test_*.cpp via
                          the quoted-include graph (a .cpp counts as
                          covered when its same-stem header is reachable):
                          dead or untested TUs rot silently.

Suppressions are per-line and must carry a justification:

    some_call();  // stlm-lint: allow(io-stdout): CLI tool entry point

A suppression comment on its own line covers the following line. A bare
`allow(rule)` without justification text is itself a finding; so is an
unknown rule name. There is no file- or directory-level opt-out besides
the hot-path tag, which *adds* a rule rather than removing one.

Exit status: 0 clean, 1 findings, 2 usage error. Stdlib only.
"""

import argparse
import pathlib
import re
import sys

RULES = (
    "determinism-rand",
    "determinism-wall-clock",
    "io-stdout",
    "hot-path-alloc",
    "hot-path-syscall",
    "hot-path-atomic",
    "build-switch",
    "one-cell-path",
    "test-coverage",
)

# Pattern tables: (rule, compiled regex, message). Applied to comment- and
# string-stripped source so prose and format strings never trip them.
TOKEN_RULES = [
    ("determinism-rand", re.compile(r"(?<![\w:])s?rand\s*\("),
     "rand()/srand() in library code; thread an explicit seeded engine"),
    ("determinism-rand", re.compile(r"std::random_device"),
     "std::random_device is nondeterministic; thread an explicit seed"),
    ("determinism-wall-clock",
     re.compile(r"std::chrono::(system|steady|high_resolution)_clock"),
     "wall-clock read in library code; simulated time comes from the kernel"),
    ("determinism-wall-clock",
     re.compile(r"(?<![\w])(gettimeofday|clock_gettime)\s*\("),
     "wall-clock syscall in library code"),
    ("determinism-wall-clock", re.compile(r"(?<![\w:])time\s*\(\s*(NULL|nullptr|0)\s*\)"),
     "time() read in library code"),
    ("io-stdout", re.compile(r"std::cout"),
     "std::cout in library code; take an ostream& or use kernel/report.hpp"),
    ("io-stdout", re.compile(r"(?<![\w])printf\s*\("),
     "printf() in library code; take an ostream& or use kernel/report.hpp"),
]

# Swap idiom: a plain identifier not ending in `_` is a local, one ending
# in `_` a member (the repo's naming convention). A member swapped into a
# local leaves with the local's destructor, so every call frees and the
# next push reallocates.
LOCAL = r"[A-Za-z](?:\w*[A-Za-z0-9])?"
MEMBER = r"\w+_"
SWAP_MSG = ("member container swapped into a function-local one: its buffer is "
            "freed on every call; double-buffer with a member scratch")

ALLOC_RULES = [
    ("hot-path-alloc", re.compile(r"(?<![\w])new\b(?!\s*\()"),
     "heap allocation in a hot-path file"),
    ("hot-path-alloc", re.compile(r"(?<![\w])(malloc|calloc|realloc|strdup)\s*\("),
     "heap allocation in a hot-path file"),
    ("hot-path-alloc", re.compile(r"make_(unique|shared)\s*<"),
     "heap allocation in a hot-path file"),
    ("hot-path-alloc",
     re.compile(rf"(?<![\w.>:]){LOCAL}\s*\.\s*swap\s*\(\s*{MEMBER}\s*\)"),
     SWAP_MSG),
    ("hot-path-alloc",
     re.compile(rf"(?<![\w.>])swap\s*\(\s*(?:{LOCAL}\s*,\s*{MEMBER}|"
                rf"{MEMBER}\s*,\s*{LOCAL})\s*\)"),
     SWAP_MSG),
]

SYSCALL_RULES = [
    ("hot-path-syscall",
     re.compile(r"(?<![\w:])::(?:mmap|munmap|mprotect)\s*\("),
     "memory-mapping syscall in a hot-path file; cache the mapping"),
]

ATOMIC_RULES = [
    ("hot-path-atomic",
     re.compile(r"(?:\.|->)\s*(?:fetch_(?:add|sub|and|or|xor)|exchange|"
                r"compare_exchange_(?:weak|strong))\s*\(|"
                r"(?<![\w])atomic_(?:fetch_(?:add|sub|and|or|xor)|exchange|"
                r"compare_exchange_(?:weak|strong))(?:_explicit)?\s*\("),
     "atomic read-modify-write in a hot-path file; keep the state per "
     "simulator or justify the allow()"),
]

# Applied to the code of src/explore/ files only.
EXPLORE_RULES = [
    ("one-cell-path", re.compile(r"(?<![\w])Mapper\s*::\s*map\s*\("),
     "Mapper::map in src/explore/ outside the cell runner; run the cell "
     "on a runner"),
]

# Checked on raw lines (comments included) of src/ and tests/ files.
BUILD_SWITCH_RULE = (
    "build-switch", re.compile(r"STLM_(?:AUDIT|OBS)(?!\w)"),
    "removed build switch; the observability hooks are always compiled in "
    "and the audit hooks are gone")

HOT_PATH_TAG = re.compile(r"//\s*stlm-lint:\s*hot-path\b")
ALLOW = re.compile(r"//\s*stlm-lint:\s*allow\(([a-z-]+)\)\s*(?::\s*(.*?))?\s*$")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def strip_code(text):
    """Blank out comments, string and char literals, preserving line
    structure, so token scans only see code. Handles // /*...*/ "..."
    '...' and raw strings R"delim(...)delim" (the kernel embeds asm in
    one)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.extend(ch if ch == "\n" else " " for ch in text[i:end])
            i = end
        elif c == "R" and text[i + 1 : i + 2] == '"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                end = n if j < 0 else j + len(close)
                out.extend(ch if ch == "\n" else " " for ch in text[i:end])
                i = end
            else:
                out.append(c)
                i += 1
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            end = min(j + 1, n)
            out.extend(ch if ch == "\n" else " " for ch in text[i:end])
            i = end
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Findings:
    def __init__(self):
        self.items = []

    def add(self, path, line, rule, message):
        self.items.append((str(path), line, rule, message))


def allowances(raw_lines):
    """Map line number -> (rule, justification_ok, allow_line) from
    stlm-lint allow comments. A trailing comment covers its own line; a
    comment alone on a line covers the next *code* line (justifications
    may wrap onto following comment-only lines)."""
    allowed = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW.search(line)
        if not m:
            continue
        rule, why = m.group(1), (m.group(2) or "").strip()
        entry = (rule, bool(why), idx)
        allowed.setdefault(idx, []).append(entry)
        if line.strip().startswith("//"):  # standalone
            j = idx  # 0-based index of the line after the comment
            while j < len(raw_lines) and raw_lines[j].strip().startswith("//"):
                j += 1
            allowed.setdefault(j + 1, []).append(entry)
    return allowed


def is_allowed(allowed, lineno, rule, findings, path, consumed):
    for entry in allowed.get(lineno, ()):
        if entry[0] == rule:
            consumed.add(id(entry))
            if not entry[1]:
                findings.add(path, entry[2], "bad-suppression",
                             f"allow({rule}) needs a justification after ':'")
            return True
    return False


def scan_build_switch(path, raw_lines, allowed, findings, consumed):
    rule, pat, msg = BUILD_SWITCH_RULE
    for lineno, line in enumerate(raw_lines, start=1):
        if pat.search(line) and not is_allowed(allowed, lineno, rule,
                                              findings, path, consumed):
            findings.add(path, lineno, rule, msg)


def scan_test_file(path, findings):
    raw_lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    scan_build_switch(path, raw_lines, allowances(raw_lines), findings, set())


def scan_file(path, findings, explore=False):
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    code_lines = strip_code(raw).splitlines()
    allowed = allowances(raw_lines)
    consumed = set()
    scan_build_switch(path, raw_lines, allowed, findings, consumed)

    hot = any(HOT_PATH_TAG.search(l) for l in raw_lines[:30])
    rules = TOKEN_RULES + (ALLOC_RULES + SYSCALL_RULES + ATOMIC_RULES
                           if hot else []) + (EXPLORE_RULES if explore else [])

    for lineno, line in enumerate(raw_lines, start=1):
        m = ALLOW.search(line)
        if m and m.group(1) not in RULES:
            findings.add(path, lineno, "bad-suppression",
                         f"unknown rule '{m.group(1)}'")

    for lineno, line in enumerate(code_lines, start=1):
        for rule, pat, msg in rules:
            if pat.search(line) and not is_allowed(allowed, lineno, rule,
                                                  findings, path, consumed):
                findings.add(path, lineno, rule, msg)


def include_closure(entry, src_root, cache):
    """Set of src-relative header paths reachable from `entry` through
    quoted includes (resolved against src/)."""
    key = str(entry)
    if key in cache:
        return cache[key]
    cache[key] = set()  # cycle guard
    reach = set()
    try:
        text = entry.read_text(encoding="utf-8", errors="replace")
    except OSError:
        cache[key] = reach
        return reach
    for line in text.splitlines():
        m = INCLUDE.match(line)
        if not m:
            continue
        target = src_root / m.group(1)
        if not target.is_file():
            continue
        rel = target.relative_to(src_root)
        if rel not in reach:
            reach.add(rel)
            reach |= include_closure(target, src_root, cache)
    cache[key] = reach
    return reach


def check_test_coverage(repo, findings):
    src_root = repo / "src"
    tests = sorted((repo / "tests").glob("test_*.cpp"))
    cache = {}
    covered = set()
    for t in tests:
        covered |= include_closure(t, src_root, cache)
    for cpp in sorted(src_root.rglob("*.cpp")):
        twin = cpp.with_suffix(".hpp").relative_to(src_root)
        if twin not in covered and cpp.relative_to(src_root) not in covered:
            findings.add(cpp, 1, "test-coverage",
                         f"no tests/test_*.cpp reaches {twin} "
                         "(translation unit is untested)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("repo", nargs="?", default=".",
                    help="repository root (contains src/ and tests/)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)
    if args.list_rules:
        print("\n".join(RULES))
        return 0

    repo = pathlib.Path(args.repo).resolve()
    src_root = repo / "src"
    if not src_root.is_dir():
        print(f"stlm-lint: no src/ under {repo}", file=sys.stderr)
        return 2

    findings = Findings()
    for f in sorted(list(src_root.rglob("*.cpp")) + list(src_root.rglob("*.hpp"))):
        scan_file(f, findings,
                  explore=f.relative_to(src_root).parts[0] == "explore")
    tests_root = repo / "tests"
    for f in sorted(list(tests_root.rglob("*.cpp")) + list(tests_root.rglob("*.hpp"))):
        scan_test_file(f, findings)
    check_test_coverage(repo, findings)

    for path, line, rule, msg in sorted(findings.items):
        print(f"{path}:{line}: [{rule}] {msg}")
    if findings.items:
        print(f"stlm-lint: {len(findings.items)} finding(s)", file=sys.stderr)
        return 1
    print(f"stlm-lint: clean ({len(list(src_root.rglob('*.[ch]pp')))} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
