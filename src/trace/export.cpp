#include "trace/export.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <utility>
#include <variant>
#include <vector>

#include "support/json.hpp"
#include "support/log.hpp"
#include "support/stats.hpp"

namespace prema::trace {

namespace {

/// Fixed-format microsecond timestamp: deterministic across runs.
std::string us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// One Chrome arg's value, as JSON.
std::string arg_json(ArgField field, const TraceEvent& e) {
  switch (field) {
    case ArgField::kPeer: return std::to_string(e.peer);
    case ArgField::kSize: return std::to_string(e.size);
    case ArgField::kValue: return num(e.value);
    case ArgField::kFaultType:
      return "\"" + std::string(fault_type_name(static_cast<FaultType>(e.value))) + "\"";
    case ArgField::kSystem:
      return (e.flags & TraceEvent::kFlagSystem) != 0 ? "true" : "false";
    case ArgField::kNone: break;
  }
  return {};
}

}  // namespace

void write_chrome_trace(std::ostream& os, const TraceRecorder& rec) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    if (!first) os << ",";
    first = false;
    os << "\n" << line;
  };

  emit("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"prema\"}}");
  for (ProcId p = 0; p < rec.nprocs(); ++p) {
    emit("{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(p) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"proc " +
         std::to_string(p) + "\"}}");
  }

  for (ProcId p = 0; p < rec.nprocs(); ++p) {
    auto events = rec.sink(p).events();
    // The buffer holds events in *recording* order; spans are recorded when
    // they close, so an instant captured mid-span precedes it. Sort each
    // track by start time (stable: ties keep recording order) so every
    // track's timeline is monotonic.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.t0 < b.t0;
                     });
    const std::string tid = std::to_string(p);
    for (const TraceEvent& e : events) {
      const KindInfo& k = kind_info(e.kind);
      std::string line = "{\"name\":\"";
      const std::string_view custom = rec.name(e.name);
      line += util::json_escape(custom.empty() ? k.name : custom);
      line += "\",\"cat\":\"";
      line += k.category;
      line += "\",\"ph\":\"";
      line += k.span ? "X" : "i";
      line += "\",\"pid\":0,\"tid\":" + tid + ",\"ts\":" + us(e.t0);
      if (k.span) {
        line += ",\"dur\":" + us(e.dur);
      } else {
        line += ",\"s\":\"t\"";
      }
      std::string args;
      for (const KindArg& a : k.args) {
        if (a.field == ArgField::kNone) break;
        args += args.empty() ? "\"" : ",\"";
        args += a.key;
        args += "\":" + arg_json(a.field, e);
      }
      if (!args.empty()) line += ",\"args\":{" + args + "}";
      line += "}";
      emit(line);
    }
  }
  os << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path, const TraceRecorder& rec) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    PREMA_LOG_WARN("trace: cannot open %s for writing", path.c_str());
    return false;
  }
  write_chrome_trace(f, rec);
  f.flush();
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

void write_summary(std::ostream& os, const TraceRecorder& rec,
                   std::span<const util::TimeLedger> ledgers) {
  char buf[256];
  os << "trace summary: " << rec.nprocs() << " processors, "
     << rec.total_events() << " events retained, " << rec.total_dropped()
     << " dropped to ring overflow\n";
  os << "  proc  work-units   work-s     msgs-out   msgs-in    bytes-out  "
        "migr-out  migr-in  decisions  wakeups\n";

  ProcCounters all;
  util::RunningStats work_machine;
  for (ProcId p = 0; p < rec.nprocs(); ++p) {
    const ProcCounters& c = rec.sink(p).counters();
    all += c;
    // Per-processor span-duration stats, merged below without re-streaming.
    util::RunningStats work_proc;
    for (const TraceEvent& e : rec.sink(p).events()) {
      if (e.kind == EventKind::kWorkUnit) work_proc.add(e.dur);
    }
    work_machine.merge(work_proc);
    std::snprintf(buf, sizeof buf,
                  "  %4d  %10llu  %9.2f  %9llu  %9llu  %10llu  %8llu  %7llu  "
                  "%9llu  %7llu\n",
                  p, (unsigned long long)c.work_units, c.work_seconds,
                  (unsigned long long)c.msgs_sent,
                  (unsigned long long)c.msgs_received,
                  (unsigned long long)c.bytes_sent,
                  (unsigned long long)c.migrations_out,
                  (unsigned long long)c.migrations_in,
                  (unsigned long long)c.policy_decisions,
                  (unsigned long long)c.poll_wakeups);
    os << buf;
  }

  std::snprintf(buf, sizeof buf,
                "  work-unit spans (retained): n=%zu mean %.4f s  stddev %.4f "
                " min %.4f  max %.4f\n",
                work_machine.count(), work_machine.mean(),
                work_machine.stddev(), work_machine.min(), work_machine.max());
  os << buf;
  if (all.msg_size.count() > 0) {
    std::snprintf(buf, sizeof buf,
                  "  message sizes: n=%llu mean %.0f B  p50~%.0f  p99~%.0f  "
                  "max %.0f\n",
                  (unsigned long long)all.msg_size.count(), all.msg_size.mean(),
                  all.msg_size.approx_quantile(0.5),
                  all.msg_size.approx_quantile(0.99), all.msg_size.max());
    os << buf;
  }
  if (all.migrations_per_round.count() > 0) {
    std::snprintf(buf, sizeof buf,
                  "  migrations per balancing round: n=%llu mean %.2f  max "
                  "%.0f\n",
                  (unsigned long long)all.migrations_per_round.count(),
                  all.migrations_per_round.mean(),
                  all.migrations_per_round.max());
    os << buf;
  }
  if (all.faults_injected + all.retransmits + all.dup_drops +
          all.corrupt_drops >
      0) {
    std::snprintf(buf, sizeof buf,
                  "  reliability: %llu faults injected, %llu retransmits, "
                  "%llu acks, %llu dup drops, %llu corrupt drops\n",
                  (unsigned long long)all.faults_injected,
                  (unsigned long long)all.retransmits,
                  (unsigned long long)all.acks_sent,
                  (unsigned long long)all.dup_drops,
                  (unsigned long long)all.corrupt_drops);
    os << buf;
  }

  if (!ledgers.empty()) {
    // Reconcile exact (drop-proof) span-second counters against the ledger
    // buckets they should shadow. Work spans cover the ledger's Computation
    // bucket; in preemptive polling mode a span also absorbs the polling /
    // messaging slivers of interrupts taken inside it, so a small positive
    // skew is expected — report the delta rather than hiding it.
    double ledger_comp = 0.0;
    double ledger_part = 0.0;
    for (const auto& l : ledgers) {
      ledger_comp += l.get(util::TimeCategory::kComputation);
      ledger_part += l.get(util::TimeCategory::kPartitionCalc);
    }
    const double traced_work = all.work_seconds;
    const double traced_part = all.partition_seconds;
    const auto pct = [](double traced, double ledger) {
      return ledger > 0.0 ? 100.0 * (traced - ledger) / ledger : 0.0;
    };
    std::snprintf(buf, sizeof buf,
                  "  ledger reconciliation: work spans %.2f s vs Computation "
                  "%.2f s (%+.3f%%)\n",
                  traced_work, ledger_comp, pct(traced_work, ledger_comp));
    os << buf;
    if (ledger_part > 0.0 || traced_part > 0.0) {
      std::snprintf(buf, sizeof buf,
                    "                         partition spans %.2f s vs "
                    "Partition Calculation %.2f s (%+.3f%%)\n",
                    traced_part, ledger_part, pct(traced_part, ledger_part));
      os << buf;
    }
  }
}

// ---------------------------------------------------------------------------
// Chrome-trace structural checker (minimal self-contained JSON parser)
// ---------------------------------------------------------------------------

namespace {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::unique_ptr<JsonArray>, std::unique_ptr<JsonObject>>
      v = nullptr;

  [[nodiscard]] const JsonObject* object() const {
    auto* p = std::get_if<std::unique_ptr<JsonObject>>(&v);
    return p ? p->get() : nullptr;
  }
  [[nodiscard]] const JsonArray* array() const {
    auto* p = std::get_if<std::unique_ptr<JsonArray>>(&v);
    return p ? p->get() : nullptr;
  }
  [[nodiscard]] const std::string* str() const {
    return std::get_if<std::string>(&v);
  }
  [[nodiscard]] const double* number() const { return std::get_if<double>(&v); }
};

const JsonValue* find(const JsonObject& o, std::string_view key) {
  for (const auto& [k, val] : o) {
    if (k == key) return &val;
  }
  return nullptr;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  bool parse(JsonValue& out, std::string& err) {
    if (!value(out, err)) return false;
    skip_ws();
    if (pos_ != s_.size()) {
      err = "trailing garbage at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool fail(std::string& err, const std::string& what) {
    err = what + " at offset " + std::to_string(pos_);
    return false;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool value(JsonValue& out, std::string& err) {
    skip_ws();
    if (pos_ >= s_.size()) return fail(err, "unexpected end of input");
    const char c = s_[pos_];
    if (c == '{') return object(out, err);
    if (c == '[') return array(out, err);
    if (c == '"') {
      std::string str;
      if (!string(str, err)) return false;
      out.v = std::move(str);
      return true;
    }
    if (literal("true")) { out.v = true; return true; }
    if (literal("false")) { out.v = false; return true; }
    if (literal("null")) { out.v = nullptr; return true; }
    return number(out, err);
  }

  bool number(JsonValue& out, std::string& err) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return fail(err, "invalid value");
    const std::string text(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) {
      pos_ = start;
      return fail(err, "invalid number");
    }
    out.v = d;
    return true;
  }

  bool string(std::string& out, std::string& err) {
    if (s_[pos_] != '"') return fail(err, "expected string");
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return fail(err, "bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return fail(err, "bad \\u escape");
            // Structural checker: accept and keep the raw escape.
            out += "\\u";
            out.append(s_.substr(pos_, 4));
            pos_ += 4;
            break;
          }
          default: return fail(err, "bad escape character");
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) return fail(err, "unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool object(JsonValue& out, std::string& err) {
    ++pos_;  // '{'
    auto obj = std::make_unique<JsonObject>();
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      out.v = std::move(obj);
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(key, err)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail(err, "expected ':'");
      ++pos_;
      JsonValue val;
      if (!value(val, err)) return false;
      obj->emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
      if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; break; }
      return fail(err, "expected ',' or '}'");
    }
    out.v = std::move(obj);
    return true;
  }

  bool array(JsonValue& out, std::string& err) {
    ++pos_;  // '['
    auto arr = std::make_unique<JsonArray>();
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      out.v = std::move(arr);
      return true;
    }
    for (;;) {
      JsonValue val;
      if (!value(val, err)) return false;
      arr->push_back(std::move(val));
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
      if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; break; }
      return fail(err, "expected ',' or ']'");
    }
    out.v = std::move(arr);
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

ChromeTraceCheck check_chrome_trace(std::string_view json) {
  ChromeTraceCheck res;
  JsonValue root;
  std::string err;
  if (!JsonParser(json).parse(root, err)) {
    res.error = "JSON parse error: " + err;
    return res;
  }
  const JsonObject* top = root.object();
  if (!top) {
    res.error = "top-level value is not an object";
    return res;
  }
  const JsonValue* ev = find(*top, "traceEvents");
  if (!ev || !ev->array()) {
    res.error = "missing \"traceEvents\" array";
    return res;
  }

  std::map<std::pair<double, double>, double> last_ts;  // (pid, tid) -> ts
  std::size_t i = 0;
  for (const JsonValue& item : *ev->array()) {
    const JsonObject* e = item.object();
    const std::string at = "event " + std::to_string(i);
    ++i;
    if (!e) {
      res.error = at + " is not an object";
      return res;
    }
    const JsonValue* ph = find(*e, "ph");
    if (!ph || !ph->str()) {
      res.error = at + " has no \"ph\"";
      return res;
    }
    const JsonValue* pid = find(*e, "pid");
    const JsonValue* tid = find(*e, "tid");
    if (!pid || !pid->number() || !tid || !tid->number()) {
      res.error = at + " has no numeric pid/tid";
      return res;
    }
    const std::string& phase = *ph->str();
    if (phase == "M") continue;  // metadata carries no timestamp
    if (phase != "X" && phase != "i") {
      res.error = at + " has unexpected phase \"" + phase + "\"";
      return res;
    }
    const JsonValue* ts = find(*e, "ts");
    if (!ts || !ts->number() || !std::isfinite(*ts->number())) {
      res.error = at + " has no finite \"ts\"";
      return res;
    }
    if (phase == "X") {
      const JsonValue* dur = find(*e, "dur");
      if (!dur || !dur->number() || !(*dur->number() >= 0.0)) {
        res.error = at + " (\"X\") has no non-negative \"dur\"";
        return res;
      }
    }
    const auto key = std::make_pair(*pid->number(), *tid->number());
    const auto it = last_ts.find(key);
    if (it == last_ts.end()) {
      last_ts.emplace(key, *ts->number());
    } else {
      if (*ts->number() < it->second) {
        res.error = at + " breaks per-track ts monotonicity";
        return res;
      }
      it->second = *ts->number();
    }
    ++res.events;
  }
  res.tracks = last_ts.size();
  res.ok = true;
  return res;
}

}  // namespace prema::trace
