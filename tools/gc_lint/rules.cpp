#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "gc_common/text.hpp"
#include "obs/span_canon.hpp"

namespace gc::lint {

namespace {

using tool::SourceView;
using tool::preprocess;
using tool::ident_char;
using tool::find_ident;
using tool::skip_spaces;
using tool::trim;
using tool::extract_call_args;
using tool::string_literal;
using tool::contains_ci;

const std::vector<Rule> kRules = {
    {"GCL002", "non-canonical-trace-name", Severity::kError,
     "trace name not in the span/counter/gauge canon",
     "add the name to src/obs/span_canon.cpp or use a canonical one"},
    {"GCL003", "raw-mpi-tag", Severity::kError,
     "integer literal used as an MPI tag",
     "use a netsim::Tag registry entry (src/netsim/tags.hpp)"},
    {"GCL004", "include-hygiene", Severity::kError,
     "include violates repo layout rules",
     "include subsystem-relative (\"lbm/model.hpp\"); keep <iostream> "
     "out of src/ except io/ and viz/"},
    {"GCL006", "unbounded-cv-wait", Severity::kError,
     "condition_variable wait without predicate can hang forever",
     "wait with an abort-aware predicate, or use wait_for"},
    {"GCL008", "untyped-catch-in-service", Severity::kError,
     "catch (...) in src/service erases the typed failure taxonomy",
     "catch a concrete type from service/errors.hpp (or std::exception) "
     "so callers can tell ServiceStopped from DeadlineExceeded from "
     "ScenarioFailed"},
    {"GCL010", "stale-suppression", Severity::kError,
     "suppression comment no longer suppresses any diagnostic",
     "delete the stale 'gc_lint: allow(...)' comment — or fix the rule "
     "id if a real diagnostic on this line was meant to be suppressed"},
};

const Rule* rule_by_id(const char* id) {
  for (const Rule& r : kRules) {
    if (std::string_view(r.id) == id) return &r;
  }
  return nullptr;
}

/// Path classification driving per-rule scoping.
struct PathClass {
  bool in_src = false;
  bool in_tests = false;
  bool in_service = false;       ///< src/service: typed-error territory
  bool iostream_exempt = false;  ///< src/io, src/viz
};

PathClass classify(const std::string& path) {
  PathClass pc;
  pc.in_src = path.rfind("src/", 0) == 0;
  pc.in_tests = path.rfind("tests/", 0) == 0;
  pc.in_service = path.rfind("src/service/", 0) == 0;
  pc.iostream_exempt = path.rfind("src/io/", 0) == 0 ||
                       path.rfind("src/viz/", 0) == 0;
  return pc;
}

/// True when the raw line carries an inline suppression for `rule`.
bool suppressed(const SourceView& v, std::size_t line, const Rule* rule) {
  const std::string needle = std::string("gc_lint: allow(") + rule->id + ")";
  return v.raw[line].find(needle) != std::string::npos;
}

struct Ctx {
  const std::string& path;
  PathClass pc;
  const SourceView& v;
  std::vector<Finding>* out;
  /// (line, rule id) of findings an allow-comment actually suppressed —
  /// the evidence GCL010 checks suppressions against.
  std::vector<std::pair<std::size_t, std::string>> used;

  void report(const char* rule_id, std::size_t line, std::size_t col,
              std::string message) {
    const Rule* r = rule_by_id(rule_id);
    if (suppressed(v, line, r)) {
      used.emplace_back(line, rule_id);
      return;
    }
    out->push_back(Finding{r, path, static_cast<int>(line + 1),
                           static_cast<int>(col + 1), std::move(message)});
  }
};

// --- GCL002: trace name canon ---------------------------------------------

void check_trace_names(Ctx& ctx) {
  if (ctx.pc.in_tests) return;  // tests exercise the recorder machinery
                                // with synthetic names by design
  for (std::size_t l = 0; l < ctx.v.code.size(); ++l) {
    const std::string& code = ctx.v.code[l];

    // ScopedSpan [var] (rec, "name", rank, "cat")
    for (std::size_t p = find_ident(code, "ScopedSpan");
         p != std::string::npos; p = find_ident(code, "ScopedSpan", p + 1)) {
      std::size_t q = skip_spaces(code, p + 10);
      // optional variable name (declaration form)
      if (q < code.size() && ident_char(code[q]) &&
          !std::isdigit(static_cast<unsigned char>(code[q]))) {
        while (q < code.size() && ident_char(code[q])) ++q;
        q = skip_spaces(code, q);
      }
      if (q >= code.size() || code[q] != '(') continue;
      std::vector<std::string> args;
      if (!extract_call_args(ctx.v, l, q, &args) || args.size() < 2) continue;
      std::string name;
      if (!string_literal(args[1], &name)) continue;  // dynamic name
      if (!obs::is_canonical_span(name)) {
        ctx.report("GCL002", l, p,
                   "span '" + name + "' is not in the span canon");
        continue;
      }
      std::string cat;
      if (args.size() >= 4 && string_literal(args[3], &cat) &&
          !obs::is_canonical_span(name, cat)) {
        ctx.report("GCL002", l, p,
                   "span '" + name + "' emitted under category '" + cat +
                       "', which does not match the canon");
      }
    }

    // record_span("name", "cat", ...)
    for (std::size_t p = find_ident(code, "record_span");
         p != std::string::npos; p = find_ident(code, "record_span", p + 1)) {
      const std::size_t open = skip_spaces(code, p + 11);
      if (open >= code.size() || code[open] != '(') continue;
      std::vector<std::string> args;
      if (!extract_call_args(ctx.v, l, open, &args) || args.empty()) continue;
      std::string name;
      if (!string_literal(args[0], &name)) continue;
      if (!obs::is_canonical_span(name)) {
        ctx.report("GCL002", l, p,
                   "span '" + name + "' is not in the span canon");
      } else {
        std::string cat;
        if (args.size() >= 2 && string_literal(args[1], &cat) &&
            !obs::is_canonical_span(name, cat)) {
          ctx.report("GCL002", l, p,
                     "span '" + name + "' emitted under category '" + cat +
                         "', which does not match the canon");
        }
      }
    }

    // add_counter("name", ...) / set_gauge("name", ...)
    struct MetricFn {
      const char* fn;
      bool (*ok)(std::string_view);
      const char* kind;
    };
    const MetricFn metric_fns[] = {
        {"add_counter", &obs::is_canonical_counter, "counter"},
        {"set_gauge", &obs::is_canonical_gauge, "gauge"},
    };
    for (const MetricFn& m : metric_fns) {
      for (std::size_t p = find_ident(code, m.fn); p != std::string::npos;
           p = find_ident(code, m.fn, p + 1)) {
        const std::size_t open = skip_spaces(code, p + std::strlen(m.fn));
        if (open >= code.size() || code[open] != '(') continue;
        std::vector<std::string> args;
        if (!extract_call_args(ctx.v, l, open, &args) || args.empty()) {
          continue;
        }
        std::string name;
        if (!string_literal(args[0], &name)) continue;
        if (!m.ok(name)) {
          ctx.report("GCL002", l, p,
                     std::string(m.kind) + " '" + name +
                         "' is not in the metric canon");
        }
      }
    }
  }
}

// --- GCL003: raw MPI tags -------------------------------------------------

void check_raw_tags(Ctx& ctx) {
  const char* comm_fns[] = {"send", "isend", "irecv", "recv", "sendrecv"};
  for (std::size_t l = 0; l < ctx.v.code.size(); ++l) {
    const std::string& code = ctx.v.code[l];
    for (const char* fn : comm_fns) {
      for (std::size_t p = find_ident(code, fn); p != std::string::npos;
           p = find_ident(code, fn, p + 1)) {
        // Must be a member call: preceded by '.' or '->'.
        const bool member =
            (p >= 1 && code[p - 1] == '.') ||
            (p >= 2 && code[p - 2] == '-' && code[p - 1] == '>');
        if (!member) continue;
        const std::size_t open = skip_spaces(code, p + std::strlen(fn));
        if (open >= code.size() || code[open] != '(') continue;
        std::vector<std::string> args;
        if (!extract_call_args(ctx.v, l, open, &args) || args.size() < 2) {
          continue;
        }
        const std::string tag = trim(args[1]);
        if (!tag.empty() && std::isdigit(static_cast<unsigned char>(tag[0]))) {
          ctx.report("GCL003", l, p,
                     std::string(fn) + " called with raw integer tag " + tag);
        }
      }
    }
  }
}

// --- GCL004: include hygiene ----------------------------------------------

void check_includes(Ctx& ctx) {
  for (std::size_t l = 0; l < ctx.v.code.size(); ++l) {
    const std::string& lit = ctx.v.lit[l];
    const std::size_t h = skip_spaces(lit, 0);
    if (lit.compare(h, 8, "#include") != 0) continue;
    if (lit.find("#include \"src/") != std::string::npos) {
      ctx.report("GCL004", l, h,
                 "include paths are subsystem-relative; drop the src/ "
                 "prefix");
    }
    if (ctx.pc.in_src && !ctx.pc.iostream_exempt &&
        lit.find("<iostream>") != std::string::npos) {
      ctx.report("GCL004", l, h,
                 "<iostream> in src/ is limited to io/ and viz/ (iostream "
                 "statics bloat every TU; use <cstdio> or util/table)");
    }
  }
}

// --- GCL006: unbounded condition_variable waits ---------------------------

void check_unbounded_waits(Ctx& ctx) {
  if (!ctx.pc.in_src) return;
  for (std::size_t l = 0; l < ctx.v.code.size(); ++l) {
    const std::string& code = ctx.v.code[l];
    for (std::size_t p = find_ident(code, "wait"); p != std::string::npos;
         p = find_ident(code, "wait", p + 1)) {
      const bool member =
          (p >= 1 && code[p - 1] == '.') ||
          (p >= 2 && code[p - 2] == '-' && code[p - 1] == '>');
      if (!member) continue;
      // Receiver must look like a condition variable ("cv" in the name).
      std::size_t r = p - 1;
      if (code[r] == '>') --r;  // '->'
      std::size_t e = r;  // one past the receiver identifier's end
      std::size_t b = e;
      while (b > 0 && ident_char(code[b - 1])) --b;
      const std::string recv_name = code.substr(b, e - b);
      if (!contains_ci(recv_name, "cv") &&
          !contains_ci(recv_name, "cond")) {
        continue;
      }
      const std::size_t open = skip_spaces(code, p + 4);
      if (open >= code.size() || code[open] != '(') continue;
      std::vector<std::string> args;
      if (!extract_call_args(ctx.v, l, open, &args)) continue;
      if (args.size() == 1) {
        ctx.report("GCL006", l, p,
                   "'" + recv_name + ".wait(lock)' has no predicate — a "
                   "lost notify or world abort hangs this thread forever");
      }
    }
  }
}

// --- GCL008: catch (...) in the service layer -----------------------------

void check_untyped_catch(Ctx& ctx) {
  if (!ctx.pc.in_service) return;
  for (std::size_t l = 0; l < ctx.v.code.size(); ++l) {
    const std::string& code = ctx.v.code[l];
    for (std::size_t p = find_ident(code, "catch"); p != std::string::npos;
         p = find_ident(code, "catch", p + 1)) {
      std::size_t q = skip_spaces(code, p + 5);
      if (q >= code.size() || code[q] != '(') continue;
      q = skip_spaces(code, q + 1);
      if (code.compare(q, 3, "...") == 0) {
        ctx.report("GCL008", l, p,
                   "catch (...) swallows the service failure taxonomy");
      }
    }
  }
}

// --- GCL010: stale suppressions -------------------------------------------

// Runs after every other checker, so ctx.used holds the complete set of
// (line, rule) pairs an allow-comment actually absorbed. A marker must
// live in a comment to count: markers inside string literals (the linter
// tests embed them in snippet strings) still appear in the lit view at
// the same column, which is how we tell the two apart without parsing.
void check_stale_suppressions(Ctx& ctx) {
  const std::string marker = std::string("gc_lint: ") + "allow(";
  for (std::size_t l = 0; l < ctx.v.raw.size(); ++l) {
    const std::string& raw = ctx.v.raw[l];
    for (std::size_t p = raw.find(marker); p != std::string::npos;
         p = raw.find(marker, p + 1)) {
      const bool in_comment =
          ctx.v.lit[l].compare(p, marker.size(), marker) != 0;
      if (!in_comment) continue;
      // Well-formed rule id: GCL + exactly three digits + ')'. Anything
      // else (the documentation's "GCLnnn" placeholder form) is prose,
      // not a suppression, and never matched the suppression check
      // either.
      const std::size_t id_at = p + marker.size();
      if (id_at + 7 > raw.size() || raw.compare(id_at, 3, "GCL") != 0 ||
          raw[id_at + 6] != ')') {
        continue;
      }
      bool digits = true;
      for (std::size_t d = 3; d < 6; ++d) {
        digits = digits &&
                 std::isdigit(static_cast<unsigned char>(raw[id_at + d]));
      }
      if (!digits) continue;
      const std::string id = raw.substr(id_at, 6);
      if (rule_by_id(id.c_str()) == nullptr) {
        ctx.report("GCL010", l, p,
                   "suppression names unknown rule " + id);
        continue;
      }
      const bool used = std::any_of(
          ctx.used.begin(), ctx.used.end(),
          [&](const std::pair<std::size_t, std::string>& u) {
            return u.first == l && u.second == id;
          });
      if (!used) {
        ctx.report("GCL010", l, p,
                   "suppression for " + id +
                       " no longer matches any diagnostic on this line");
      }
    }
  }
}

}  // namespace

const std::vector<Rule>& rules() { return kRules; }

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content) {
  std::vector<Finding> out;
  const SourceView v = preprocess(content);
  Ctx ctx{path, classify(path), v, &out, {}};
  check_trace_names(ctx);
  check_raw_tags(ctx);
  check_includes(ctx);
  check_unbounded_waits(ctx);
  check_untyped_catch(ctx);
  check_stale_suppressions(ctx);  // must run last: audits ctx.used
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.col < b.col;
  });
  return out;
}

const std::vector<std::string>& default_dirs() {
  static const std::vector<std::string> dirs = {"src", "bench", "examples",
                                                "tests", "tools"};
  return dirs;
}

std::vector<Finding> lint_tree(const std::string& root,
                               const std::vector<std::string>& dirs,
                               std::size_t* files_scanned) {
  std::vector<Finding> all;
  std::size_t n = 0;
  for (const std::string& f : tool::list_sources(root, dirs)) {
    std::string content;
    if (!tool::read_file(f, &content)) continue;
    const std::string rel = tool::repo_relative(root, f);
    std::vector<Finding> fnd = lint_source(rel, content);
    all.insert(all.end(), fnd.begin(), fnd.end());
    ++n;
  }
  if (files_scanned) *files_scanned = n;
  return all;
}

}  // namespace gc::lint
