#include "bench_support/bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "support/assert.hpp"
#include "support/json.hpp"

namespace prema::bench {

JsonWriter::JsonWriter(std::ostream& os) : os_(os) {}

JsonWriter::~JsonWriter() {
  PREMA_CHECK_MSG(stack_.empty(), "JsonWriter destroyed with open scopes");
}

std::string JsonWriter::format_double(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  char buf[40];
  // Shortest representation that round-trips: try increasing precision.
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

void JsonWriter::separator(const char* key) {
  const bool in_object = !stack_.empty() && stack_.back() == '{';
  PREMA_CHECK_MSG(stack_.empty() || (key != nullptr) == in_object,
                  "JsonWriter: key required inside objects, forbidden in arrays");
  if (!stack_.empty()) {
    if (has_child_.back()) os_ << ",";
    has_child_.back() = true;
    os_ << "\n";
    for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
  }
  if (key != nullptr && in_object) os_ << "\"" << key << "\": ";
}

void JsonWriter::begin_object(const char* key) {
  separator(key);
  os_ << "{";
  stack_.push_back('{');
  has_child_.push_back(false);
}

void JsonWriter::end_object() {
  PREMA_CHECK_MSG(!stack_.empty() && stack_.back() == '{',
                  "JsonWriter: end_object without begin_object");
  const bool had = has_child_.back();
  stack_.pop_back();
  has_child_.pop_back();
  if (had) {
    os_ << "\n";
    for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
  }
  os_ << "}";
  if (stack_.empty()) os_ << "\n";
}

void JsonWriter::begin_array(const char* key) {
  separator(key);
  os_ << "[";
  stack_.push_back('[');
  has_child_.push_back(false);
}

void JsonWriter::end_array() {
  PREMA_CHECK_MSG(!stack_.empty() && stack_.back() == '[',
                  "JsonWriter: end_array without begin_array");
  const bool had = has_child_.back();
  stack_.pop_back();
  has_child_.pop_back();
  if (had) {
    os_ << "\n";
    for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
  }
  os_ << "]";
}

void JsonWriter::field(const char* key, double v) {
  separator(key);
  os_ << format_double(v);
}

void JsonWriter::field(const char* key, std::uint64_t v) {
  separator(key);
  os_ << v;
}

void JsonWriter::field(const char* key, std::int64_t v) {
  separator(key);
  os_ << v;
}

void JsonWriter::field(const char* key, int v) {
  separator(key);
  os_ << v;
}

void JsonWriter::field(const char* key, bool v) {
  separator(key);
  os_ << (v ? "true" : "false");
}

void JsonWriter::field(const char* key, const std::string& v) {
  field(key, v.c_str());
}

void JsonWriter::field(const char* key, const char* v) {
  separator(key);
  os_ << "\"" << util::json_escape(v) << "\"";
}

void JsonWriter::element(double v) {
  separator(nullptr);
  os_ << format_double(v);
}

void JsonWriter::element(std::uint64_t v) {
  separator(nullptr);
  os_ << v;
}

void JsonWriter::element(const std::string& v) {
  separator(nullptr);
  os_ << "\"" << util::json_escape(v) << "\"";
}

BenchReport::BenchReport(const std::string& path, const char* benchmark,
                         const char* description)
    : os_(path), jw_(os_) {
  jw_.begin_object();
  jw_.field("benchmark", benchmark);
  jw_.field("description", description);
}

void BenchReport::begin_runs() {
  PREMA_CHECK_MSG(!runs_open_, "BenchReport: begin_runs called twice");
  jw_.begin_array("runs");
  runs_open_ = true;
}

BenchReport::~BenchReport() {
  if (runs_open_) jw_.end_array();
  jw_.end_object();
}

}  // namespace prema::bench
