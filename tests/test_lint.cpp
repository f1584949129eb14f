// gc_lint rule engine: every rule class demonstrated on a synthetic
// snippet (rule id, line and severity asserted), scoping and suppression
// semantics, multi-line call handling, and a self-scan asserting the repo
// itself is clean — the same invariant the gc_lint_clean ctest enforces,
// but runnable from the gtest binary with better failure messages.
//
// Note: snippets are built from ordinary escaped strings, never raw
// string literals — the engine's lightweight masking does not understand
// raw-string delimiters, and the self-scan covers this file too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rules.hpp"

namespace gc::lint {
namespace {

/// Findings for `content` linted under a repo-relative path.
std::vector<Finding> run(const std::string& path, const std::string& content) {
  return lint_source(path, content);
}

bool has_rule(const std::vector<Finding>& fs, const std::string& id) {
  for (const Finding& f : fs) {
    if (f.rule->id == id) return true;
  }
  return false;
}

TEST(Lint, RuleCatalogIsComplete) {
  const std::vector<Rule>& rs = rules();
  ASSERT_EQ(rs.size(), 6u);
  const char* expected[] = {"GCL002", "GCL003", "GCL004",
                            "GCL006", "GCL008", "GCL010"};
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_STREQ(rs[i].id, expected[i]);
    EXPECT_NE(std::string(rs[i].summary), "");
    EXPECT_NE(std::string(rs[i].fixit), "");
  }
}

// --- GCL002 ---------------------------------------------------------------

TEST(Lint, NonCanonicalSpanNameIsFlagged) {
  const auto fs = run("src/lbm/x.cpp",
                      "void f() {\n"
                      "  obs::ScopedSpan span(rec, \"colide\", 0, \"lbm\");\n"
                      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_STREQ(fs[0].rule->id, "GCL002");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[0].rule->severity, Severity::kError);
}

TEST(Lint, CanonicalSpanWithWrongCategoryIsFlagged) {
  const auto fs = run("src/lbm/x.cpp",
                      "void f() {\n"
                      "  obs::ScopedSpan span(rec, \"collide\", 0, \"net\");\n"
                      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_STREQ(fs[0].rule->id, "GCL002");
}

TEST(Lint, CanonicalSpanCounterAndGaugeAreClean) {
  const auto fs =
      run("src/core/x.cpp",
          "void f() {\n"
          "  obs::ScopedSpan span(rec, \"overlap.pack\", node, \"overlap\");\n"
          "  rec->add_counter(\"mpi.messages\", r, 1);\n"
          "  rec->set_gauge(\"mpi.overlap_hidden_ms\", r, 1.5);\n"
          "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Lint, NonCanonicalCounterAndGaugeAreFlagged) {
  const auto fs = run("src/core/x.cpp",
                      "void f() {\n"
                      "  rec->add_counter(\"mpi.msgs\", r, 1);\n"
                      "  rec->set_gauge(\"overlap_hidden\", r, 1.5);\n"
                      "}\n");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_STREQ(fs[0].rule->id, "GCL002");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[1].line, 3);
}

TEST(Lint, DynamicSpanNamesAreSkipped) {
  // Names built at runtime cannot be checked statically; the runtime
  // validator (trace_validate) covers them.
  const auto fs = run("src/core/x.cpp",
                      "void f() {\n"
                      "  rec.record_span(t.span.empty() ? t.name : t.span,\n"
                      "                  cat, rank, t0, t1);\n"
                      "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Lint, TraceNamesInTestsAreExempt) {
  const auto fs = run("tests/x.cpp",
                      "void f() {\n"
                      "  obs::ScopedSpan span(rec, \"synthetic\", 0, \"t\");\n"
                      "}\n");
  EXPECT_TRUE(fs.empty());
}

// --- GCL003 ---------------------------------------------------------------

TEST(Lint, RawIntegerTagIsFlaggedInEveryTree) {
  for (const char* path : {"src/core/x.cpp", "tests/x.cpp", "bench/x.cpp"}) {
    const auto fs = run(path,
                        "void f() {\n"
                        "  comm.send(1, 7, payload);\n"
                        "  comm.recv(0, 7);\n"
                        "}\n");
    ASSERT_EQ(fs.size(), 2u) << path;
    EXPECT_STREQ(fs[0].rule->id, "GCL003");
    EXPECT_EQ(fs[0].line, 2);
    EXPECT_EQ(fs[1].line, 3);
  }
}

TEST(Lint, RegistryTagsAndOffsetsAreClean) {
  const auto fs =
      run("src/core/x.cpp",
          "void f() {\n"
          "  comm.send(dst, netsim::kFace, payload);\n"
          "  comm.isend(r.via, netsim::kHop1Base + r.dst, pack());\n"
          "  comm.recv(src, netsim::kCgProxyBase + comm.rank());\n"
          "  comm.sendrecv(partner, netsim::kTest5, data);\n"
          "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Lint, NonMemberSendIsNotATagSite) {
  // Free functions / unrelated members named send-ish must not match.
  const auto fs = run("src/netsim/x.cpp",
                      "void f() {\n"
                      "  do_send(src, 1, payload);\n"
                      "  resend(dst, 2);\n"
                      "}\n");
  EXPECT_TRUE(fs.empty());
}

// --- GCL004 ---------------------------------------------------------------

TEST(Lint, SrcRelativeIncludeIsFlagged) {
  const auto fs = run("bench/x.cpp",
                      "#include \"src/lbm/model.hpp\"\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_STREQ(fs[0].rule->id, "GCL004");
  EXPECT_EQ(fs[0].line, 1);
}

TEST(Lint, IostreamScopingFollowsTheIoVizExemption) {
  const std::string inc = "#include <iostream>\n";
  EXPECT_TRUE(has_rule(run("src/util/x.cpp", inc), "GCL004"));
  EXPECT_TRUE(has_rule(run("src/core/x.cpp", inc), "GCL004"));
  EXPECT_TRUE(run("src/io/x.cpp", inc).empty());
  EXPECT_TRUE(run("src/viz/x.cpp", inc).empty());
  EXPECT_TRUE(run("bench/x.cpp", inc).empty());
  EXPECT_TRUE(run("examples/x.cpp", inc).empty());
}

// --- GCL006 ---------------------------------------------------------------

TEST(Lint, UnboundedCvWaitIsFlaggedInSrcOnly) {
  const std::string body =
      "void f() {\n"
      "  cv_.wait(lock);\n"
      "}\n";
  const auto fs = run("src/netsim/x.cpp", body);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_STREQ(fs[0].rule->id, "GCL006");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_TRUE(run("tests/x.cpp", body).empty());
}

TEST(Lint, PredicatedAndTimedWaitsAreClean) {
  const auto fs = run("src/netsim/x.cpp",
                      "void f() {\n"
                      "  cv_.wait(lock, [this] { return done_; });\n"
                      "  cv_.wait_for(lock, ms, [this] { return done_; });\n"
                      "  future.wait();\n"
                      "}\n");
  EXPECT_TRUE(fs.empty());
}

// --- GCL008 ---------------------------------------------------------------

TEST(Lint, UntypedCatchIsFlaggedInServiceOnly) {
  const std::string body =
      "void f() {\n"
      "  try { g(); } catch (...) { h(); }\n"
      "}\n";
  const auto fs = run("src/service/x.cpp", body);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_STREQ(fs[0].rule->id, "GCL008");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[0].rule->severity, Severity::kError);
  // Everywhere else catch (...) stays legal (rethrow cleanup idioms).
  EXPECT_TRUE(run("src/core/x.cpp", body).empty());
  EXPECT_TRUE(run("tests/x.cpp", body).empty());
}

TEST(Lint, TypedCatchesInServiceAreClean) {
  const auto fs = run("src/service/x.cpp",
                      "void f() {\n"
                      "  try { g(); } catch (const DeadlineExceeded&) {\n"
                      "  } catch (const std::exception& e) { h(e); }\n"
                      "}\n");
  EXPECT_TRUE(fs.empty());
}

// --- engine semantics -----------------------------------------------------

TEST(Lint, CommentsAndStringsDoNotTrigger) {
  const auto fs = run("src/core/x.cpp",
                      "// comm.send(1, 7, payload);\n"
                      "/* cv_.wait(lock); */\n"
                      "const char* doc = \"comm.send(1, 7, p)\";\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Lint, MultiLineCallArgumentsAreReassembled) {
  const auto fs = run("src/core/x.cpp",
                      "void f() {\n"
                      "  comm.send(partner,\n"
                      "            42,\n"
                      "            std::move(payload));\n"
                      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_STREQ(fs[0].rule->id, "GCL003");
  EXPECT_EQ(fs[0].line, 2);
}

TEST(Lint, InlineAllowCommentSuppresses) {
  const auto fs =
      run("src/core/x.cpp",
          "void f() {\n"
          "  comm.send(1, 7, p);  // gc_lint: allow(GCL003) handshake probe\n"
          "}\n");
  EXPECT_TRUE(fs.empty());
}

// --- GCL010 ---------------------------------------------------------------

TEST(Lint, StaleSuppressionIsFlagged) {
  const auto fs =
      run("src/core/x.cpp",
          "void f() {\n"
          "  int tag = 7;  // gc_lint: allow(GCL003) nothing fires here\n"
          "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_STREQ(fs[0].rule->id, "GCL010");
  EXPECT_EQ(fs[0].line, 2);
}

TEST(Lint, SuppressionForUnknownRuleIsFlagged) {
  const auto fs = run("src/core/x.cpp",
                      "int x = 0;  // gc_lint: allow(GCL999)\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_STREQ(fs[0].rule->id, "GCL010");
}

TEST(Lint, LiveSuppressionIsNotStale) {
  // The allow-comment absorbs a real GCL003 on its line, so GCL010 stays
  // silent — this is the InlineAllowCommentSuppresses snippet re-checked
  // from the audit's side.
  const auto fs =
      run("src/core/x.cpp",
          "void f() {\n"
          "  comm.send(1, 7, p);  // gc_lint: allow(GCL003) handshake probe\n"
          "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Lint, MarkerInsideStringLiteralIsNotAudited) {
  // Test sources embed allow-markers in snippet strings; only markers in
  // comments are suppressions, so the audit must ignore these.
  const auto fs = run(
      "tests/x.cpp",
      "const char* s = \"int x;  // gc_lint: allow(GCL003) in string\";\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Lint, StaleSuppressionCanItselfBeSuppressed) {
  const auto fs =
      run("src/core/x.cpp",
          "int t = 7;  // gc_lint: allow(GCL003) gc_lint: allow(GCL010)\n");
  EXPECT_TRUE(fs.empty());
}

// --- output formats -------------------------------------------------------

TEST(Lint, FormatIsGccStyle) {
  const auto fs = run("src/core/x.cpp", "void f() { comm.send(1, 7, p); }\n");
  ASSERT_EQ(fs.size(), 1u);
  const std::string s = format_gcc(fs[0]);
  EXPECT_NE(s.find("src/core/x.cpp:1:"), std::string::npos);
  EXPECT_NE(s.find("error:"), std::string::npos);
  EXPECT_NE(s.find("[GCL003"), std::string::npos);
  EXPECT_NE(s.find("fix:"), std::string::npos);
}

TEST(Lint, FormatJsonCarriesTheRecordFields) {
  const auto fs = run("src/core/x.cpp", "void f() { comm.send(1, 7, p); }\n");
  ASSERT_EQ(fs.size(), 1u);
  const std::string one = format_json(fs[0]);
  EXPECT_NE(one.find("\"file\":\"src/core/x.cpp\""), std::string::npos);
  EXPECT_NE(one.find("\"line\":1"), std::string::npos);
  EXPECT_NE(one.find("\"rule\":\"GCL003\""), std::string::npos);
  EXPECT_NE(one.find("\"severity\":\"error\""), std::string::npos);
  const std::string all = format_json(fs);
  EXPECT_EQ(all.front(), '[');
  EXPECT_EQ(all.back(), ']');
  EXPECT_NE(all.find(one), std::string::npos);
  // Quotes inside messages must be escaped, or the records are garbage.
  Finding f = fs[0];
  f.message = "say \"hi\"";
  EXPECT_NE(format_json(f).find("say \\\"hi\\\""), std::string::npos);
}

// --- the repo itself ------------------------------------------------------

TEST(Lint, RepoSelfScanIsClean) {
  std::size_t files = 0;
  const auto fs = lint_tree(GC_REPO_ROOT, default_dirs(), &files);
  EXPECT_GT(files, 150u);  // the walk actually visited the tree
  for (const Finding& f : fs) {
    ADD_FAILURE() << format_gcc(f);
  }
}

}  // namespace
}  // namespace gc::lint
