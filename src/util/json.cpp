#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace prord::util {
namespace {

void escape_to(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void number_to(std::string& out, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

// Starts a new line `indent` levels deep; compact output (indent < 0)
// has no line breaks.
void break_to(std::string& out, int indent) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json_parse: " + what + " at offset " +
                             std::to_string(pos));
  }
  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }
  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) fail("dangling escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos + 4 > text.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Report files are ASCII; encode the BMP code point as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-'))
      ++pos;
    if (pos == start) fail("expected number");
    const std::string token(text.substr(start, pos - start));
    try {
      return JsonValue(std::stod(token));
    } catch (const std::exception&) {
      fail("bad number '" + token + "'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos;
      return v;
    }
    while (true) {
      v.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }
};

}  // namespace

void JsonValue::dump_to(std::string& out, int indent) const {
  const int inner = indent < 0 ? indent : indent + 1;
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: number_to(out, num_); return;
    case Type::kString: escape_to(out, str_); return;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        break_to(out, inner);
        items_[i].dump_to(out, inner);
        if (i + 1 < items_.size()) out.push_back(',');
      }
      break_to(out, indent);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        break_to(out, inner);
        escape_to(out, members_[i].first);
        out += indent < 0 ? ":" : ": ";
        members_[i].second.dump_to(out, inner);
        if (i + 1 < members_.size()) out.push_back(',');
      }
      break_to(out, indent);
      out.push_back('}');
      return;
    }
  }
}

std::string JsonValue::dump(bool pretty) const {
  std::string out;
  dump_to(out, pretty ? 0 : -1);
  out.push_back('\n');
  return out;
}

JsonValue json_parse(std::string_view text) {
  Parser p{text};
  JsonValue v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size())
    throw std::runtime_error("json_parse: trailing content at offset " +
                             std::to_string(p.pos));
  return v;
}

}  // namespace prord::util
