// gc_lint: the repo's invariant linter. A token/regex-level checker (no
// libclang dependency) that enforces the conventions the runtime layers
// assume but cannot themselves verify statically:
//
//   GCL002 non-canonical-trace-name span/counter/gauge string literals at
//                                  instrumentation sites must come from
//                                  the canon in src/obs/span_canon.cpp
//   GCL003 raw-mpi-tag             send/isend/irecv/recv/sendrecv tag
//                                  arguments must come from netsim::Tag,
//                                  never integer literals
//   GCL004 include-hygiene         no "src/..."-relative includes; no
//                                  <iostream> in src/ outside io/ and viz/
//   GCL006 unbounded-cv-wait       no condition_variable wait without a
//                                  predicate in src/ — every blocking wait
//                                  must be abort-aware (the "recv without
//                                  timeout" class of hang)
//   GCL008 untyped-catch-in-service no catch (...) in src/service — the
//                                  typed failure taxonomy is load-bearing
//   GCL010 stale-suppression       an allow-comment that no longer
//                                  suppresses any diagnostic (or names an
//                                  unknown rule) must be deleted — dead
//                                  suppressions hide future regressions
//
// GCL001, GCL005, GCL007 and GCL009 are retired, and their ids are not
// reused. The last three policed callers of Lattice's raw plane pointers,
// which are private to Lattice and its addressing policies, so the
// compiler rejects that misuse.
//
// The engine is a small library so tests can feed synthetic sources
// through it; the gc_lint binary (main.cpp) adds file walking and the
// GCC-style report. A finding on a line carrying the comment
// `gc_lint: allow(GCLnnn)` is suppressed — used to document intentional
// exceptions inline. The shared preprocessing/diagnostics substrate
// lives in tools/gc_common (gc_analyze builds on the same one).
#pragma once

#include <string>
#include <vector>

#include "gc_common/diag.hpp"

namespace gc::lint {

using tool::Severity;
using tool::Rule;
using tool::Finding;
using tool::format_gcc;
using tool::format_json;

/// The rule catalog, in id order.
const std::vector<Rule>& rules();

/// Lints one file. `path` must be repo-relative with forward slashes —
/// per-rule scoping (src/ vs tests/, the io/viz iostream exemption)
/// derives from it. `content` is the file's full text.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content);

/// Walks `root` and lints every .cpp/.hpp under the given repo-relative
/// directories (default: src bench examples tests tools). Returns
/// findings sorted by file/line; `files_scanned` (optional) receives the
/// number of files visited.
std::vector<Finding> lint_tree(const std::string& root,
                               const std::vector<std::string>& dirs,
                               std::size_t* files_scanned = nullptr);

/// Default directory set for lint_tree.
const std::vector<std::string>& default_dirs();

}  // namespace gc::lint
