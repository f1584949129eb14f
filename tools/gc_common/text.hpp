// Shared source preprocessing for the repo's token-level analysis tools
// (gc_lint, gc_analyze). No libclang: files are reduced to per-line
// "views" with comments and literals neutralized, and the checkers work
// on identifiers and punctuation. Columns are preserved in every view so
// findings anchor to real editor positions.
#pragma once

#include <string>
#include <vector>

namespace gc::tool {

/// Per-line views of a file with comments and literals neutralized.
/// Column positions are preserved (stripped characters become spaces):
///   raw   exactly as read (used for allow-comment suppression)
///   lit   comments blanked; string/char literals intact
///   code  comments blanked; literal *contents* blanked, quotes kept
struct SourceView {
  std::vector<std::string> raw;
  std::vector<std::string> lit;
  std::vector<std::string> code;
};

SourceView preprocess(const std::string& content);

bool ident_char(char c);

/// Finds `name` as a whole identifier in `s` at or after `from`; returns
/// the match position or npos.
std::size_t find_ident(const std::string& s, const std::string& name,
                       std::size_t from = 0);

std::size_t skip_spaces(const std::string& s, std::size_t p);

std::string trim(const std::string& s);

/// Extracts the top-level argument list of a call whose opening paren is
/// at (line, col) in the code view. Arguments are read from the
/// literal-preserving view so string contents survive. Returns false when
/// the call does not close within a reasonable window.
bool extract_call_args(const SourceView& v, std::size_t line, std::size_t col,
                       std::vector<std::string>* args);

/// If `arg` is a plain string literal ("..."), returns its contents.
bool string_literal(const std::string& arg, std::string* out);

bool contains_ci(const std::string& hay, const std::string& needle);

}  // namespace gc::tool
