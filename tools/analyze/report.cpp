#include "analyze/report.hpp"

#include <algorithm>

namespace prema::analyze {
namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(hex[(c >> 4) & 0xF]);
          out.push_back(hex[c & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string render_sarif(const Findings& findings) {
  // Rule ids, first-seen order.
  std::vector<std::string> rules;
  for (const Finding& f : findings) {
    if (std::find(rules.begin(), rules.end(), f.rule) == rules.end()) {
      rules.push_back(f.rule);
    }
  }
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"prema_analyze\",\n"
      "          \"informationUri\": \"tools/analyze\",\n"
      "          \"rules\": [";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "            {\"id\": \"" + json_escape(rules[i]) + "\"}";
  }
  out +=
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "        {\n";
    out += "          \"ruleId\": \"" + json_escape(f.rule) + "\",\n";
    out += "          \"level\": \"error\",\n";
    out += "          \"message\": {\"text\": \"" + json_escape(f.message) + "\"},\n";
    out += "          \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": \"" +
           json_escape(f.file) + "\"}, \"region\": {\"startLine\": " +
           std::to_string(std::max(1, f.line)) + "}}}],\n";
    out += "          \"partialFingerprints\": {\"premaAnalyze/v1\": \"" +
           json_escape(fingerprint(f)) + "\"}\n";
    out += "        }";
  }
  out +=
      "\n      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace prema::analyze
