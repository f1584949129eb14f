// The canonical vocabulary of trace names. Every span, counter and gauge
// the instrumented subsystems emit is listed here, once — the runtime
// trace validator (bench/trace_validate) and the static lint
// (tools/gc_lint) both compile against this table, so a name can only be
// added by editing this file, and the two checkers can never drift apart.
//
// Why it matters: trace_validate, the PR-3 recovery machinery and the
// PR-4 overlap-equivalence harness all select events by name. A typo'd
// span ("overlap.Pack") silently vanishes from every consumer instead of
// failing — exactly the class of drift static checking is for.
#pragma once

#include <cstddef>
#include <string_view>

namespace gc::obs {

/// One canonical span: its name and the category it must be emitted under.
struct SpanCanon {
  const char* name;
  const char* cat;
};

/// All canonical spans (sorted by name). `count` receives the table size.
const SpanCanon* span_canon(std::size_t* count);

/// True when `name` is a canonical span name.
bool is_canonical_span(std::string_view name);
/// True when (name, cat) matches a canonical span exactly.
bool is_canonical_span(std::string_view name, std::string_view cat);
bool is_canonical_counter(std::string_view name);
bool is_canonical_gauge(std::string_view name);

/// The category every "overlap."-prefixed span must carry.
inline constexpr std::string_view kOverlapCat = "overlap";

}  // namespace gc::obs
