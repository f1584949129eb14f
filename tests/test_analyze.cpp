// gc_analyze's rule engine, driven with synthetic file sets (every rule
// has a firing and a silent case), the annotation-parsing edge cases
// (multi-line declarations, nested scopes, early return releasing a
// guard), the seeded service<->pool lock-order inversion over the real
// source tree, and the repo-wide self-scan that must stay clean.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze.hpp"
#include "gc_common/text.hpp"

namespace ga = gc::analyze;

namespace {

std::vector<ga::Finding> run_one(const std::string& src) {
  return ga::analyze_sources({{"src/x.cpp", src}});
}

int count_rule(const std::vector<ga::Finding>& fs, const std::string& id) {
  int n = 0;
  for (const ga::Finding& f : fs) {
    if (f.rule->id == id) ++n;
  }
  return n;
}

std::string dump(const std::vector<ga::Finding>& fs) {
  std::string out;
  for (const ga::Finding& f : fs) out += ga::format_gcc(f) + "\n";
  return out;
}

// A class with one guarded counter; the body text is appended per case.
std::string widget(const std::string& methods, const std::string& bodies) {
  return std::string("#include <mutex>\n") +
         "class Widget {\n"
         " public:\n" +
         methods +
         " private:\n"
         "  void helper_locked() GC_REQUIRES(mu_);\n"
         "  std::mutex mu_;\n"
         "  std::mutex log_mu_;\n"
         "  int count_ GC_GUARDED_BY(mu_);\n"
         "};\n" +
         bodies;
}

}  // namespace

TEST(Analyze, RuleCatalogIsComplete) {
  const auto& rules = ga::rules();
  ASSERT_EQ(rules.size(), 4u);
  const char* expected[] = {"GCA101", "GCA102", "GCA103", "GCA104"};
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_STREQ(rules[i].id, expected[i]);
    EXPECT_EQ(rules[i].severity, ga::Severity::kError);
  }
}

// --- GCA101 guarded-member-access ------------------------------------------

TEST(Analyze, GuardedAccessUnderWrongMutexFires) {
  const auto fs = run_one(widget(
      "  void bad();\n",
      "void Widget::bad() {\n"
      "  std::lock_guard<std::mutex> lk(log_mu_);\n"
      "  count_ = 1;\n"
      "}\n"));
  EXPECT_EQ(count_rule(fs, "GCA101"), 1) << dump(fs);
}

TEST(Analyze, GuardedAccessUnderItsMutexIsSilent) {
  const auto fs = run_one(widget(
      "  void good();\n",
      "void Widget::good() {\n"
      "  std::lock_guard<std::mutex> lk(mu_);\n"
      "  count_ = 1;\n"
      "}\n"));
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Analyze, RequiresAnnotationSatisfiesTheGuard) {
  const auto fs = run_one(widget(
      "",
      "void Widget::helper_locked() { count_ += 2; }\n"));
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Analyze, PrivateUnlockedMethodReportsPerAccess) {
  // A private method never triggers GCA104; each bare access is a GCA101.
  const auto fs = run_one(std::string("#include <mutex>\n") +
                          "class Counter {\n"
                          "  void bump() { count_++; count_++; }\n"
                          "  std::mutex mu_;\n"
                          "  int count_ GC_GUARDED_BY(mu_);\n"
                          "};\n");
  EXPECT_EQ(count_rule(fs, "GCA101"), 2) << dump(fs);
  EXPECT_EQ(count_rule(fs, "GCA104"), 0) << dump(fs);
}

TEST(Analyze, ConstructorsAreExemptFromGuardChecks) {
  const auto fs = run_one(widget(
      "  Widget();\n  ~Widget();\n",
      "Widget::Widget() { count_ = 0; }\n"
      "Widget::~Widget() { count_ = -1; }\n"));
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- GCA102 lock-order-cycle -----------------------------------------------

TEST(Analyze, ObservedLockOrderInversionFires) {
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class Pair {\n"
      " public:\n"
      "  void ab();\n"
      "  void ba();\n"
      " private:\n"
      "  std::mutex a_;\n"
      "  std::mutex b_;\n"
      "};\n"
      "void Pair::ab() {\n"
      "  std::lock_guard<std::mutex> la(a_);\n"
      "  std::lock_guard<std::mutex> lb(b_);\n"
      "}\n"
      "void Pair::ba() {\n"
      "  std::lock_guard<std::mutex> lb(b_);\n"
      "  std::lock_guard<std::mutex> la(a_);\n"
      "}\n");
  ASSERT_EQ(count_rule(fs, "GCA102"), 1) << dump(fs);
  for (const ga::Finding& f : fs) {
    if (std::string(f.rule->id) == "GCA102") {
      EXPECT_NE(f.message.find("Pair::a_"), std::string::npos);
      EXPECT_NE(f.message.find("Pair::b_"), std::string::npos);
    }
  }
}

TEST(Analyze, ConsistentLockOrderIsSilent) {
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class Pair {\n"
      " public:\n"
      "  void ab();\n"
      "  void ab_again();\n"
      " private:\n"
      "  std::mutex a_;\n"
      "  std::mutex b_;\n"
      "};\n"
      "void Pair::ab() {\n"
      "  std::lock_guard<std::mutex> la(a_);\n"
      "  std::lock_guard<std::mutex> lb(b_);\n"
      "}\n"
      "void Pair::ab_again() {\n"
      "  std::lock_guard<std::mutex> la(a_);\n"
      "  std::lock_guard<std::mutex> lb(b_);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Analyze, ReacquiringAHeldMutexFires) {
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class Once {\n"
      " public:\n"
      "  void twice();\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "};\n"
      "void Once::twice() {\n"
      "  std::lock_guard<std::mutex> l1(mu_);\n"
      "  std::lock_guard<std::mutex> l2(mu_);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "GCA102"), 1) << dump(fs);
}

TEST(Analyze, DeclaredOrderContradictedByCodeFires) {
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class Decl {\n"
      " public:\n"
      "  void backwards();\n"
      " private:\n"
      "  std::mutex a_ GC_ACQUIRED_BEFORE(b_);\n"
      "  std::mutex b_;\n"
      "};\n"
      "void Decl::backwards() {\n"
      "  std::lock_guard<std::mutex> lb(b_);\n"
      "  std::lock_guard<std::mutex> la(a_);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "GCA102"), 1) << dump(fs);
}

TEST(Analyze, CallingAnExcludesMethodUnderThatMutexFires) {
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class Self {\n"
      " public:\n"
      "  void outer();\n"
      "  void inner() GC_EXCLUDES(mu_);\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "};\n"
      "void Self::outer() {\n"
      "  std::lock_guard<std::mutex> lk(mu_);\n"
      "  inner();\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "GCA102"), 1) << dump(fs);
}

// --- GCA103 blocking-under-lock --------------------------------------------

TEST(Analyze, BlockingCallUnderLockFires) {
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class Saver {\n"
      " public:\n"
      "  void flush();\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "};\n"
      "void Saver::flush() {\n"
      "  std::lock_guard<std::mutex> lk(mu_);\n"
      "  save_checkpoint(state_, path_);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "GCA103"), 1) << dump(fs);
}

TEST(Analyze, AllowsBlockingAnnotationSilencesIt) {
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class Saver {\n"
      " public:\n"
      "  void flush();\n"
      " private:\n"
      "  std::mutex mu_ GC_ALLOWS_BLOCKING;\n"
      "};\n"
      "void Saver::flush() {\n"
      "  std::lock_guard<std::mutex> lk(mu_);\n"
      "  save_checkpoint(state_, path_);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Analyze, WaitingOnTheRegionsOwnLockIsExempt) {
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class Queue {\n"
      " public:\n"
      "  void pop();\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  std::condition_variable cv_;\n"
      "};\n"
      "void Queue::pop() {\n"
      "  std::unique_lock<std::mutex> lk(mu_);\n"
      "  cv_.wait(lk, [&] { return ready_; });\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Analyze, WaitingOnACallerOwnedLockParameterIsExempt) {
  // The repo's recv_reliable shape: a GC_REQUIRES(mu_) helper waiting on
  // the unique_lock its caller owns — the wait releases mu_, so it is
  // not blocking *under* it.
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class World {\n"
      " public:\n"
      "  void step(std::unique_lock<std::mutex>& lock) GC_REQUIRES(mu_);\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  std::condition_variable cv_;\n"
      "};\n"
      "void World::step(std::unique_lock<std::mutex>& lock) {\n"
      "  cv_.wait_for(lock, timeout_);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Analyze, UnlockBeforeBlockingIsSilent) {
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class Saver {\n"
      " public:\n"
      "  void flush();\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "};\n"
      "void Saver::flush() {\n"
      "  std::unique_lock<std::mutex> lk(mu_);\n"
      "  lk.unlock();\n"
      "  save_checkpoint(state_, path_);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- GCA104 unlocked-public-method -----------------------------------------

TEST(Analyze, PublicUnlockedTouchOfGuardedStateFires) {
  const auto fs = run_one(widget(
      "  int peek() { return count_; }\n", ""));
  EXPECT_EQ(count_rule(fs, "GCA104"), 1) << dump(fs);
  EXPECT_EQ(count_rule(fs, "GCA101"), 0) << dump(fs);
}

TEST(Analyze, PublicAccessorWithLockIsSilent) {
  const auto fs = run_one(widget(
      "  int peek() {\n"
      "    std::lock_guard<std::mutex> lk(mu_);\n"
      "    return count_;\n"
      "  }\n",
      ""));
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Analyze, UnannotatedClassesAreOutOfScope) {
  // No GC_GUARDED_BY anywhere: the class never opted into GCA101/104.
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class Legacy {\n"
      " public:\n"
      "  int peek() { return count_; }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int count_ = 0;\n"
      "};\n");
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- annotation and scope edge cases ---------------------------------------

TEST(Analyze, MultiLineDeclarationsAreParsed) {
  const auto fs = run_one(
      std::string("#include <mutex>\n") +
      "class Table {\n"
      " public:\n"
      "  void put();\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  std::map<std::string, int>\n"
      "      rows_ GC_GUARDED_BY(mu_);\n"
      "};\n"
      "void Table::put() {\n"
      "  std::lock_guard<std::mutex> lk(mu_);\n"
      "  rows_.clear();\n"
      "}\n"
      "void Table::drop() { rows_.clear(); }\n");
  // put() is clean; drop() (one region-less private-by-default... it is
  // undeclared, so it reports per access) fires once.
  EXPECT_EQ(count_rule(fs, "GCA101"), 1) << dump(fs);
}

TEST(Analyze, NestedScopeEndsTheGuard) {
  const auto fs = run_one(widget(
      "  void partial();\n",
      "void Widget::partial() {\n"
      "  {\n"
      "    std::lock_guard<std::mutex> lk(mu_);\n"
      "    count_ = 1;\n"
      "  }\n"
      "  count_ = 2;\n"
      "}\n"));
  ASSERT_EQ(count_rule(fs, "GCA101"), 1) << dump(fs);
  EXPECT_EQ(fs[0].line, 16);  // the access after the block, not inside it
}

TEST(Analyze, EarlyReturnReleasesTheGuard) {
  const auto fs = run_one(widget(
      "  void maybe(bool fast);\n",
      "void Widget::maybe(bool fast) {\n"
      "  if (fast) {\n"
      "    std::lock_guard<std::mutex> lk(mu_);\n"
      "    count_ = 1;\n"
      "    return;\n"
      "  }\n"
      "  count_ = 2;\n"
      "}\n"));
  EXPECT_EQ(count_rule(fs, "GCA101"), 1) << dump(fs);
}

TEST(Analyze, InlineSuppressionCommentSilencesAFinding) {
  const auto fs = run_one(widget(
      "  void bare();\n",
      "void Widget::bare() {\n"
      "  std::lock_guard<std::mutex> lk(log_mu_);\n"
      "  count_ = 2;  // gc_analyze: allow(GCA101)\n"
      "}\n"));
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

// --- whole-repo checks ------------------------------------------------------

TEST(Analyze, SeededServicePoolInversionIsCaught) {
  std::vector<ga::SourceFile> sources;
  for (const std::string& path :
       gc::tool::list_sources(GC_REPO_ROOT, {"src"})) {
    std::string content;
    ASSERT_TRUE(gc::tool::read_file(path, &content)) << path;
    sources.push_back(
        {gc::tool::repo_relative(GC_REPO_ROOT, path), std::move(content)});
  }
  // A debug helper that takes the pool lock, then the service lock —
  // against the declared service -> pool order.
  sources.push_back(
      {"src/service/debug_invert.cpp",
       std::string("#include \"service/scenario_service.hpp\"\n") +
           "namespace gc::service {\n"
           "void ScenarioService::debug_invert() {\n"
           "  std::lock_guard<std::mutex> a(pool_.mu_);\n"
           "  std::lock_guard<std::mutex> b(mu_);\n"
           "}\n"
           "}  // namespace gc::service\n"});
  const auto fs = ga::analyze_sources(sources);
  bool cycle_found = false;
  for (const ga::Finding& f : fs) {
    if (std::string(f.rule->id) != "GCA102") continue;
    if (f.message.find("PartitionPool::mu_") != std::string::npos &&
        f.message.find("ScenarioService::mu_") != std::string::npos) {
      cycle_found = true;
    }
  }
  EXPECT_TRUE(cycle_found) << dump(fs);
}

TEST(Analyze, RepoSelfScanIsClean) {
  std::size_t files = 0;
  const ga::Analysis analysis =
      ga::analyze_tree(GC_REPO_ROOT, ga::default_dirs(), &files);
  EXPECT_GT(files, 100u);
  for (const ga::Finding& f : analysis.findings) {
    ADD_FAILURE() << ga::format_gcc(f);
  }
}

TEST(Analyze, RepoGraphCarriesTheDeclaredCanonicalOrder) {
  const ga::Analysis analysis =
      ga::analyze_tree(GC_REPO_ROOT, ga::default_dirs());
  auto has_edge = [&](const std::string& from, const std::string& to) {
    for (const ga::LockEdge& e : analysis.edges) {
      if (e.from == from && e.to == to) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_edge("ScenarioService::mu_", "PartitionPool::mu_"));
  EXPECT_TRUE(has_edge("ScenarioService::mu_", "FlowCache::mu_"));
  EXPECT_TRUE(has_edge("PartitionPool::mu_", "MpiLite::mu_"));
}
