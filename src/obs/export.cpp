#include "obs/export.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace gc::obs {

namespace {

/// JSON string escaping for the few metacharacters span names can carry.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt_us(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

int tid_of(int rank) { return rank < 0 ? 0 : rank; }

}  // namespace

std::string chrome_trace_json(const TraceRecorder& rec) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  double end_us = 0;
  for (const TraceEvent& e : rec.events()) {
    if (!first) os << ",";
    first = false;
    end_us = std::max(end_us, e.t1_us);
    os << "\n{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.cat.empty() ? "default" : e.cat)
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << tid_of(e.rank)
       << ",\"ts\":" << fmt_us(e.t0_us) << ",\"dur\":"
       << fmt_us(e.t1_us - e.t0_us) << "}";
  }
  // Counters and gauges land as counter samples at the end of the trace.
  for (const CounterSample& c : rec.counters()) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(c.name)
       << "\",\"ph\":\"C\",\"pid\":0,\"tid\":" << tid_of(c.rank)
       << ",\"ts\":" << fmt_us(end_us) << ",\"args\":{\"value\":" << c.value
       << "}}";
  }
  for (const GaugeSample& g : rec.gauges()) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(g.name)
       << "\",\"ph\":\"C\",\"pid\":0,\"tid\":" << tid_of(g.rank)
       << ",\"ts\":" << fmt_us(end_us) << ",\"args\":{\"value\":"
       << fmt_us(g.value) << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

void write_chrome_trace(const std::string& path, const TraceRecorder& rec) {
  std::ofstream out(path);
  GC_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out << chrome_trace_json(rec);
}

// ---------------------------------------------------------------------------
// A small strict JSON parser (objects, arrays, strings, numbers, literals) —
// enough to validate and reload the traces this module writes. Hostile
// input ends in gc::Error: numbers are parsed without exceptions and must
// be finite, and nesting is bounded so no input can exhaust the stack.

namespace {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind =
      Kind::Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  /// Traces nest 4 deep (root, traceEvents, event, args).
  static constexpr int kMaxDepth = 32;

  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value(0);
    skip_ws();
    GC_CHECK_MSG(pos_ == s_.size(), "trailing bytes after JSON value at "
                                        << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    GC_CHECK_MSG(pos_ < s_.size(), "unexpected end of JSON");
    return s_[pos_];
  }

  void expect(char c) {
    GC_CHECK_MSG(peek() == c, "expected '" << c << "' at byte " << pos_
                                           << ", got '" << s_[pos_] << "'");
    ++pos_;
  }

  JsonValue value(int depth) {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      GC_CHECK_MSG(depth < kMaxDepth, "JSON nested deeper than "
                                          << kMaxDepth << " at byte " << pos_);
      return c == '{' ? object(depth + 1) : array(depth + 1);
    }
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::String;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return literal(c == 't');
    if (c == 'n') {
      match("null");
      return JsonValue{};
    }
    return number();
  }

  void match(const char* word) {
    for (const char* p = word; *p; ++p) expect(*p);
  }

  JsonValue literal(bool truth) {
    match(truth ? "true" : "false");
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.b = truth;
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    GC_CHECK_MSG(pos_ > start, "expected a number at byte " << start);
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    const char* end = s_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(s_.data() + start, end, v.num);
    GC_CHECK_MSG(ec != std::errc::result_out_of_range,
                 "number out of range at byte " << start);
    GC_CHECK_MSG(ec == std::errc() && ptr == end,
                 "malformed number at byte " << start);
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      GC_CHECK_MSG(pos_ < s_.size(), "unterminated JSON string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        GC_CHECK_MSG(pos_ < s_.size(), "unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default:
            GC_CHECK_MSG(false, "unsupported escape '\\" << e << "'");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  JsonValue array(int depth) {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value(depth));
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }

  JsonValue object(int depth) {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.fields.emplace_back(std::move(key), value(depth));
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

double num_field(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  GC_CHECK_MSG(v && v->kind == JsonValue::Kind::Number,
               "missing numeric field \"" << key << "\"");
  return v->num;
}

int int_field(const JsonValue& obj, const std::string& key) {
  const double v = num_field(obj, key);
  GC_CHECK_MSG(v >= std::numeric_limits<int>::min() &&
                   v <= std::numeric_limits<int>::max(),
               "field \"" << key << "\" out of int range");
  return static_cast<int>(v);
}

std::string str_field(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  GC_CHECK_MSG(v && v->kind == JsonValue::Kind::String,
               "missing string field \"" << key << "\"");
  return v->str;
}

}  // namespace

ParsedTrace parse_chrome_trace(const std::string& json) {
  const JsonValue root = JsonParser(json).parse();
  GC_CHECK_MSG(root.kind == JsonValue::Kind::Object,
               "trace root is not a JSON object");
  const JsonValue* events = root.find("traceEvents");
  GC_CHECK_MSG(events && events->kind == JsonValue::Kind::Array,
               "trace has no traceEvents array");

  ParsedTrace out;
  for (const JsonValue& e : events->items) {
    GC_CHECK_MSG(e.kind == JsonValue::Kind::Object,
                 "trace event is not an object");
    const std::string ph = str_field(e, "ph");
    if (ph == "X") {
      TraceEvent ev;
      ev.name = str_field(e, "name");
      if (const JsonValue* cat = e.find("cat")) ev.cat = cat->str;
      ev.rank = int_field(e, "tid");
      ev.t0_us = num_field(e, "ts");
      ev.t1_us = ev.t0_us + num_field(e, "dur");
      out.spans.push_back(std::move(ev));
    } else if (ph == "C") {
      const JsonValue* args = e.find("args");
      GC_CHECK_MSG(args && args->kind == JsonValue::Kind::Object,
                   "counter event has no args");
      out.counters.push_back(GaugeSample{str_field(e, "name"),
                                         int_field(e, "tid"),
                                         num_field(*args, "value")});
    }
  }
  return out;
}

Table trace_table(const TraceRecorder& rec) {
  Table t("trace");
  t.set_header({"kind", "name", "cat", "rank", "t0_us", "dur_us", "value"});
  for (const TraceEvent& e : rec.events()) {
    t.row()
        .cell("span")
        .cell(e.name)
        .cell(e.cat.empty() ? "default" : e.cat)
        .cell(e.rank)
        .cell(e.t0_us, 3)
        .cell(e.t1_us - e.t0_us, 3)
        .cell(0L);
  }
  for (const CounterSample& c : rec.counters()) {
    t.row()
        .cell("counter")
        .cell(c.name)
        .cell("")
        .cell(c.rank)
        .cell(0L)
        .cell(0L)
        .cell(static_cast<long>(c.value));
  }
  for (const GaugeSample& g : rec.gauges()) {
    t.row()
        .cell("gauge")
        .cell(g.name)
        .cell("")
        .cell(g.rank)
        .cell(0L)
        .cell(0L)
        .cell(g.value, 3);
  }
  return t;
}

std::string csv_sibling_path(const std::string& json_path) {
  const std::string suffix = ".json";
  if (json_path.size() > suffix.size() &&
      json_path.compare(json_path.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
    return json_path.substr(0, json_path.size() - suffix.size()) + ".csv";
  }
  return json_path + ".csv";
}

}  // namespace gc::obs
