#!/usr/bin/env python3
"""Unit tests for tools/stlm_lint.py (stdlib only; run under ctest).

Each case materializes a miniature repo (src/ + tests/) in a temp
directory and runs the linter's main() against it, asserting on the
findings it prints and the exit status.
"""

import contextlib
import io
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import stlm_lint  # noqa: E402


class LintHarness(unittest.TestCase):
    def run_lint(self, files):
        """files: mapping of repo-relative path -> content. Returns
        (exit_code, stdout_text)."""
        with tempfile.TemporaryDirectory() as td:
            root = pathlib.Path(td)
            for rel, content in files.items():
                p = root / rel
                p.parent.mkdir(parents=True, exist_ok=True)
                p.write_text(content)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = stlm_lint.main([str(root)])
            return code, out.getvalue()

    # Minimal covered pair so test-coverage stays quiet unless a case
    # targets it explicitly.
    BASE = {
        "src/kernel/mod.hpp": "#pragma once\nint mod();\n",
        "src/kernel/mod.cpp": '#include "kernel/mod.hpp"\nint mod() { return 1; }\n',
        "tests/test_mod.cpp": '#include "kernel/mod.hpp"\n',
    }

    def lint_src(self, body, **extra):
        files = dict(self.BASE)
        files["src/kernel/mod.cpp"] = (
            '#include "kernel/mod.hpp"\n' + body + "\nint mod() { return 1; }\n")
        files.update(extra)
        return self.run_lint(files)


class TestDeterminismRules(LintHarness):
    def test_rand_flagged(self):
        code, out = self.lint_src("int f() { return rand(); }")
        self.assertEqual(code, 1)
        self.assertIn("[determinism-rand]", out)

    def test_srand_and_random_device_flagged(self):
        code, out = self.lint_src(
            "#include <random>\nvoid g() { srand(7); std::random_device rd; }")
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[determinism-rand]"), 2)

    def test_wall_clock_flagged(self):
        code, out = self.lint_src(
            "#include <chrono>\nauto t = std::chrono::steady_clock::now();")
        self.assertEqual(code, 1)
        self.assertIn("[determinism-wall-clock]", out)

    def test_rand_in_comment_and_string_ignored(self):
        code, out = self.lint_src(
            '// rand() here is prose\nconst char* s = "rand()";')
        self.assertEqual(code, 0, out)


class TestIoRule(LintHarness):
    def test_cout_and_printf_flagged(self):
        code, out = self.lint_src(
            '#include <cstdio>\nvoid h() { printf("x"); }\n'
            "#include <iostream>\nvoid i() { std::cout << 1; }")
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[io-stdout]"), 2)

    def test_snprintf_fprintf_allowed(self):
        code, out = self.lint_src(
            '#include <cstdio>\nvoid h(char* b) { snprintf(b, 4, "x"); '
            'fprintf(stderr, "y"); }')
        self.assertEqual(code, 0, out)


class TestHotPathRule(LintHarness):
    def test_alloc_in_tagged_file_flagged(self):
        code, out = self.lint_src(
            "// stlm-lint: hot-path\nint* f() { return new int(3); }")
        self.assertEqual(code, 1)
        self.assertIn("[hot-path-alloc]", out)

    def test_alloc_in_untagged_file_ok(self):
        code, out = self.lint_src("int* f() { return new int(3); }")
        self.assertEqual(code, 0, out)

    def test_make_unique_in_tagged_file_flagged(self):
        code, out = self.lint_src(
            "// stlm-lint: hot-path\n#include <memory>\n"
            "auto p = std::make_unique<int>(1);")
        self.assertEqual(code, 1)
        self.assertIn("[hot-path-alloc]", out)


class TestHotPathSwapIdiom(LintHarness):
    QUEUE = ("// stlm-lint: hot-path\n#include <utility>\n#include <vector>\n"
             "struct Q {\n  std::vector<int> pending_, scratch_;\n"
             "  void drain();\n};\n")

    def test_member_swapped_into_local_flagged(self):
        code, out = self.lint_src(
            self.QUEUE + "void Q::drain() {\n  std::vector<int> batch;\n"
            "  batch.swap(pending_);\n}")
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[hot-path-alloc]"), 1)
        self.assertIn("swapped into a function-local", out)

    def test_std_swap_with_local_flagged_either_order(self):
        code, out = self.lint_src(
            self.QUEUE + "void Q::drain() {\n  std::vector<int> batch;\n"
            "  std::swap(batch, pending_);\n  std::swap(pending_, batch);\n}")
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[hot-path-alloc]"), 2)

    def test_member_double_buffer_ok(self):
        code, out = self.lint_src(
            self.QUEUE + "void Q::drain() {\n  scratch_.swap(pending_);\n"
            "  std::swap(scratch_, pending_);\n  scratch_.clear();\n}")
        self.assertEqual(code, 0, out)

    def test_local_to_local_swap_ok(self):
        code, out = self.lint_src(
            self.QUEUE + "void Q::drain() {\n  std::vector<int> a, b;\n"
            "  a.swap(b);\n  std::swap(a, b);\n}")
        self.assertEqual(code, 0, out)

    def test_swap_idiom_in_untagged_file_ok(self):
        code, out = self.lint_src(
            "#include <vector>\nstruct Q { std::vector<int> pending_; "
            "void drain() { std::vector<int> batch; batch.swap(pending_); } };")
        self.assertEqual(code, 0, out)

    def test_swap_idiom_suppressible_with_justification(self):
        code, out = self.lint_src(
            self.QUEUE + "void Q::drain() {\n  std::vector<int> batch;\n"
            "  batch.swap(pending_);  "
            "// stlm-lint: allow(hot-path-alloc): teardown only\n}")
        self.assertEqual(code, 0, out)


class TestHotPathSyscall(LintHarness):
    MAP = ("#include <sys/mman.h>\n"
           "void* m(unsigned long n) {\n"
           "  void* p = ::mmap(nullptr, n, PROT_READ, MAP_PRIVATE, -1, 0);\n"
           "  ::mprotect(p, 4096, PROT_NONE);\n"
           "  ::munmap(p, n);\n"
           "  return p;\n}")

    def test_mapping_syscalls_in_tagged_file_flagged(self):
        code, out = self.lint_src("// stlm-lint: hot-path\n" + self.MAP)
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[hot-path-syscall]"), 3)

    def test_mapping_syscalls_in_untagged_file_ok(self):
        code, out = self.lint_src(self.MAP)
        self.assertEqual(code, 0, out)

    def test_member_and_qualified_names_ok(self):
        code, out = self.lint_src(
            "// stlm-lint: hot-path\n"
            "struct Pool { void mmap(int); void munmap(int); };\n"
            "void f(Pool& a, Pool* b) { a.mmap(1); b->munmap(2); }\n"
            "namespace sim { void mprotect(int); }\n"
            "void g() { sim::mprotect(3); }")
        self.assertEqual(code, 0, out)

    def test_mapping_syscall_suppressible_with_justification(self):
        code, out = self.lint_src(
            "// stlm-lint: hot-path\n#include <sys/mman.h>\n"
            "void u(void* p, unsigned long n) {\n"
            "  // stlm-lint: allow(hot-path-syscall): cache miss only\n"
            "  ::munmap(p, n);\n}")
        self.assertEqual(code, 0, out)

    def test_bare_allow_on_syscall_is_finding(self):
        code, out = self.lint_src(
            "// stlm-lint: hot-path\n#include <sys/mman.h>\n"
            "void u(void* p, unsigned long n) {\n"
            "  ::munmap(p, n);  // stlm-lint: allow(hot-path-syscall)\n}")
        self.assertEqual(code, 1)
        self.assertIn("[bad-suppression]", out)


class TestHotPathAtomic(LintHarness):
    RMW = ("#include <atomic>\n"
           "std::atomic<unsigned long> g{0};\n"
           "unsigned long f(std::atomic<int>* p) {\n"
           "  g.fetch_add(1, std::memory_order_relaxed);\n"
           "  p->fetch_sub(1);\n"
           "  int want = 0;\n"
           "  p->compare_exchange_weak(want, 1);\n"
           "  std::atomic_fetch_or(p, 2);\n"
           "  return g.exchange(0);\n}")

    def test_rmw_in_tagged_file_flagged(self):
        code, out = self.lint_src("// stlm-lint: hot-path\n" + self.RMW)
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[hot-path-atomic]"), 5)

    def test_rmw_in_untagged_file_ok(self):
        code, out = self.lint_src(self.RMW)
        self.assertEqual(code, 0, out)

    def test_loads_stores_and_std_exchange_ok(self):
        code, out = self.lint_src(
            "// stlm-lint: hot-path\n#include <atomic>\n#include <utility>\n"
            "std::atomic<int> a{0};\n"
            "int f(int& x) {\n"
            "  a.store(a.load(std::memory_order_relaxed) + 1);\n"
            "  return std::exchange(x, 0);\n}")
        self.assertEqual(code, 0, out)

    def test_rmw_suppressible_with_justification(self):
        code, out = self.lint_src(
            "// stlm-lint: hot-path\n#include <atomic>\n"
            "std::atomic<int> a{0};\n"
            "void f() {\n"
            "  // stlm-lint: allow(hot-path-atomic): once per simulator\n"
            "  a.fetch_add(1);\n}")
        self.assertEqual(code, 0, out)

    def test_bare_allow_on_rmw_is_finding(self):
        code, out = self.lint_src(
            "// stlm-lint: hot-path\n#include <atomic>\n"
            "std::atomic<int> a{0};\n"
            "void f() { a.fetch_add(1); }  // stlm-lint: allow(hot-path-atomic)\n")
        self.assertEqual(code, 1)
        self.assertIn("[bad-suppression]", out)


class TestBuildSwitch(LintHarness):
    def test_switch_in_src_flagged_in_code_and_comments(self):
        code, out = self.lint_src(
            "#ifdef STLM_AUDIT\nint a;\n#endif\n// kept under STLM_OBS")
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[build-switch]"), 2)

    def test_switch_in_tests_flagged(self):
        code, out = self.lint_src(
            "", **{"tests/test_gate.cpp":
                   '// skipped when built with -DSTLM_OBS=OFF\n'})
        self.assertEqual(code, 1)
        self.assertIn("tests/test_gate.cpp:1: [build-switch]", out)

    def test_other_stlm_macros_ok(self):
        code, out = self.lint_src(
            "#ifdef STLM_KILL_UNWIND\nint a;\n#endif\n"
            "#ifdef STLM_OBSERVER\nint b;\n#endif")
        self.assertEqual(code, 0, out)


class TestOneCellPath(LintHarness):
    MAP = ("auto ms = core::Mapper::map(sim, graph, platform,\n"
           "                            core::AbstractionLevel::Cam);\n")

    def explore_files(self, body):
        files = dict(self.BASE)
        files["src/explore/cells.hpp"] = "#pragma once\n" + body
        return self.run_lint(files)

    def test_map_in_explore_flagged(self):
        code, out = self.explore_files(
            "void f() {\n" + self.MAP + "}\n"
            "void g() { Mapper::map(sim, graph, platform, level); }\n")
        self.assertEqual(code, 1)
        self.assertEqual(out.count("[one-cell-path]"), 2)
        self.assertIn("src/explore/cells.hpp:3: [one-cell-path]", out)

    def test_the_runner_map_is_allowed(self):
        code, out = self.explore_files(
            "void f() {\n"
            "  // stlm-lint: allow(one-cell-path): the runner's one map\n"
            + self.MAP + "}\n")
        self.assertEqual(code, 0, out)

    def test_bare_allow_is_finding(self):
        code, out = self.explore_files(
            "void f() {\n  // stlm-lint: allow(one-cell-path)\n"
            + self.MAP + "}\n")
        self.assertEqual(code, 1)
        self.assertIn("[bad-suppression]", out)

    def test_map_outside_explore_and_in_prose_ok(self):
        code, out = self.lint_src(
            "// one cell: core::Mapper::map(sim, graph, p, level)\n"
            "void f() {\n" + self.MAP + "}")
        self.assertEqual(code, 0, out)
        code, out = self.explore_files(
            "// evaluate() maps through core::Mapper::map(...)\n"
            "const char* s = \"Mapper::map(\";\n")
        self.assertEqual(code, 0, out)


class TestSuppressions(LintHarness):
    def test_trailing_allow_with_justification(self):
        code, out = self.lint_src(
            "int f() { return rand(); }  "
            "// stlm-lint: allow(determinism-rand): fixture, not library code")
        self.assertEqual(code, 0, out)

    def test_standalone_allow_covers_next_code_line(self):
        code, out = self.lint_src(
            "// stlm-lint: allow(determinism-rand): justification that\n"
            "// wraps onto a second comment line\n"
            "int f() { return rand(); }")
        self.assertEqual(code, 0, out)

    def test_allow_without_justification_is_finding(self):
        code, out = self.lint_src(
            "int f() { return rand(); }  // stlm-lint: allow(determinism-rand)")
        self.assertEqual(code, 1)
        self.assertIn("[bad-suppression]", out)
        self.assertNotIn("[determinism-rand]", out)

    def test_unknown_rule_is_finding(self):
        code, out = self.lint_src(
            "int f();  // stlm-lint: allow(no-such-rule): whatever")
        self.assertEqual(code, 1)
        self.assertIn("unknown rule", out)

    def test_allow_for_other_rule_does_not_suppress(self):
        code, out = self.lint_src(
            "int f() { return rand(); }  "
            "// stlm-lint: allow(io-stdout): wrong rule")
        self.assertEqual(code, 1)
        self.assertIn("[determinism-rand]", out)


class TestTestCoverage(LintHarness):
    def test_unreferenced_tu_flagged(self):
        files = dict(self.BASE)
        files["src/kernel/orphan.hpp"] = "#pragma once\nint orphan();\n"
        files["src/kernel/orphan.cpp"] = (
            '#include "kernel/orphan.hpp"\nint orphan() { return 2; }\n')
        code, out = self.run_lint(files)
        self.assertEqual(code, 1)
        self.assertIn("[test-coverage]", out)
        self.assertIn("orphan", out)

    def test_transitive_include_counts(self):
        files = dict(self.BASE)
        files["src/kernel/deep.hpp"] = "#pragma once\nint deep();\n"
        files["src/kernel/deep.cpp"] = (
            '#include "kernel/deep.hpp"\nint deep() { return 3; }\n')
        # mod.hpp (reached by the test) pulls deep.hpp transitively.
        files["src/kernel/mod.hpp"] = (
            '#pragma once\n#include "kernel/deep.hpp"\nint mod();\n')
        code, out = self.run_lint(files)
        self.assertEqual(code, 0, out)


class TestStripper(unittest.TestCase):
    def test_raw_string_stripped(self):
        text = 'asm(R"(\n  rand()\n)");\nint x;\n'
        stripped = stlm_lint.strip_code(text)
        self.assertNotIn("rand", stripped)
        self.assertIn("int x;", stripped)
        self.assertEqual(text.count("\n"), stripped.count("\n"))

    def test_block_comment_preserves_lines(self):
        text = "a /* rand()\n cout */ b\n"
        stripped = stlm_lint.strip_code(text)
        self.assertNotIn("rand", stripped)
        self.assertEqual(stripped.count("\n"), 2)


if __name__ == "__main__":
    unittest.main()
