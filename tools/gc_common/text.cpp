#include "gc_common/text.hpp"

#include <algorithm>
#include <cctype>

namespace gc::tool {

SourceView preprocess(const std::string& content) {
  SourceView v;
  enum State { kNormal, kString, kChar, kLineComment, kBlockComment };
  State st = kNormal;
  std::string raw, lit, code;
  auto flush = [&] {
    v.raw.push_back(raw);
    v.lit.push_back(lit);
    v.code.push_back(code);
    raw.clear();
    lit.clear();
    code.clear();
  };
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (st == kLineComment) st = kNormal;
      flush();
      continue;
    }
    raw.push_back(c);
    switch (st) {
      case kNormal:
        if (c == '/' && next == '/') {
          st = kLineComment;
          lit.push_back(' ');
          code.push_back(' ');
        } else if (c == '/' && next == '*') {
          st = kBlockComment;
          lit.push_back(' ');
          code.push_back(' ');
          raw.push_back(next);
          lit.push_back(' ');
          code.push_back(' ');
          ++i;
        } else if (c == '"') {
          st = kString;
          lit.push_back(c);
          code.push_back(c);
        } else if (c == '\'') {
          st = kChar;
          lit.push_back(c);
          code.push_back(c);
        } else {
          lit.push_back(c);
          code.push_back(c);
        }
        break;
      case kString:
      case kChar:
        lit.push_back(c);
        code.push_back(' ');
        if (c == '\\' && next != '\0' && next != '\n') {
          raw.push_back(next);
          lit.push_back(next);
          code.push_back(' ');
          ++i;
        } else if ((st == kString && c == '"') ||
                   (st == kChar && c == '\'')) {
          code.back() = c;  // keep the closing quote in the code view
          st = kNormal;
        }
        break;
      case kLineComment:
        lit.push_back(' ');
        code.push_back(' ');
        break;
      case kBlockComment:
        lit.push_back(' ');
        code.push_back(' ');
        if (c == '*' && next == '/') {
          raw.push_back(next);
          lit.push_back(' ');
          code.push_back(' ');
          ++i;
          st = kNormal;
        }
        break;
    }
  }
  flush();
  return v;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::size_t find_ident(const std::string& s, const std::string& name,
                       std::size_t from) {
  for (std::size_t p = s.find(name, from); p != std::string::npos;
       p = s.find(name, p + 1)) {
    const bool left_ok = p == 0 || !ident_char(s[p - 1]);
    const std::size_t end = p + name.size();
    const bool right_ok = end >= s.size() || !ident_char(s[end]);
    if (left_ok && right_ok) return p;
  }
  return std::string::npos;
}

std::size_t skip_spaces(const std::string& s, std::size_t p) {
  while (p < s.size() && (s[p] == ' ' || s[p] == '\t')) ++p;
  return p;
}

std::string trim(const std::string& s) {
  std::size_t a = 0, b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

bool extract_call_args(const SourceView& v, std::size_t line, std::size_t col,
                       std::vector<std::string>* args) {
  args->clear();
  std::string cur;
  int paren = 0, brace = 0, bracket = 0;
  const std::size_t max_lines = 24;
  for (std::size_t l = line; l < v.code.size() && l < line + max_lines; ++l) {
    const std::string& code = v.code[l];
    const std::string& lit = v.lit[l];
    for (std::size_t p = (l == line ? col : 0); p < code.size(); ++p) {
      const char c = code[p];
      if (c == '(') {
        ++paren;
        if (paren == 1) continue;  // the call's own opening paren
      } else if (c == ')') {
        --paren;
        if (paren == 0) {
          if (!trim(cur).empty() || !args->empty()) {
            args->push_back(trim(cur));
          }
          return true;
        }
      } else if (c == '{') {
        ++brace;
      } else if (c == '}') {
        --brace;
      } else if (c == '[') {
        ++bracket;
      } else if (c == ']') {
        --bracket;
      } else if (c == ',' && paren == 1 && brace == 0 && bracket == 0) {
        args->push_back(trim(cur));
        cur.clear();
        continue;
      }
      if (paren >= 1) cur.push_back(lit[p]);
    }
    cur.push_back(' ');  // line break inside the call
  }
  return false;
}

bool string_literal(const std::string& arg, std::string* out) {
  const std::string t = trim(arg);
  if (t.size() < 2 || t.front() != '"' || t.back() != '"') return false;
  *out = t.substr(1, t.size() - 2);
  return true;
}

bool contains_ci(const std::string& hay, const std::string& needle) {
  auto it = std::search(hay.begin(), hay.end(), needle.begin(), needle.end(),
                        [](char a, char b) {
                          return std::tolower(static_cast<unsigned char>(a)) ==
                                 std::tolower(static_cast<unsigned char>(b));
                        });
  return it != hay.end();
}

}  // namespace gc::tool
