#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace emba {
namespace json {

namespace {

constexpr int kMaxDepth = 32;

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<Value> Run() {
    SkipWs();
    Value v;
    Status status = ParseValue(&v, 0);
    if (!status.ok()) return status;
    SkipWs();
    if (pos_ != s_.size()) return Error("trailing characters after value");
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::Invalid("JSON parse error at byte " +
                           std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= s_.size()) return Error("unexpected end of input");
    const char c = s_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      std::string str;
      Status status = ParseString(&str);
      if (!status.ok()) return status;
      *out = Value(std::move(str));
      return Status::OK();
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      *out = Value(true);
      return Status::OK();
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      *out = Value(false);
      return Status::OK();
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      *out = Value();
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseObject(Value* out, int depth) {
    ++pos_;  // '{'
    Object object;
    SkipWs();
    if (Consume('}')) {
      *out = Value(std::move(object));
      return Status::OK();
    }
    for (;;) {
      SkipWs();
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      SkipWs();
      if (!Consume(':')) return Error("expected ':' in object");
      Value value;
      status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      object[std::move(key)] = std::move(value);
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}' in object");
    }
    *out = Value(std::move(object));
    return Status::OK();
  }

  Status ParseArray(Value* out, int depth) {
    ++pos_;  // '['
    Array array;
    SkipWs();
    if (Consume(']')) {
      *out = Value(std::move(array));
      return Status::OK();
    }
    for (;;) {
      Value value;
      Status status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']' in array");
    }
    *out = Value(std::move(array));
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected string");
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Error("truncated \\u escape");
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are rejected —
          // the serving payloads are plain text; callers needing astral
          // characters can send raw UTF-8, which passes through untouched).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escapes unsupported; send raw UTF-8");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error(std::string("bad escape \\") + esc);
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(Value* out) {
    const size_t start = pos_;
    if (Consume('-')) {}
    const size_t int_start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    // JSON's number grammar: the integer part is "0" or starts non-zero.
    if (pos_ - int_start > 1 && s_[int_start] == '0') {
      pos_ = start;
      return Error("leading zero in number");
    }
    if (Consume('.')) {
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    // std::from_chars is locale-independent by definition — std::strtod
    // honors LC_NUMERIC, and under a comma-decimal locale it would stop at
    // the '.' and silently truncate "0.75" to 0.
    double d = 0.0;
    const char* tok_begin = s_.data() + start;
    const char* tok_end = s_.data() + pos_;
    const auto conv = std::from_chars(tok_begin, tok_end, d);
    if (tok_begin == tok_end || conv.ec != std::errc() ||
        conv.ptr != tok_end || !std::isfinite(d)) {
      pos_ = start;
      return Error("expected a value");
    }
    *out = Value(d);
    return Status::OK();
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(const std::string& text) { return Parser(text).Run(); }

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string NumberToString(double d) {
  if (!std::isfinite(d)) return "null";  // JSON has no Inf/NaN
  // std::to_chars emits the shortest representation that parses back
  // bit-identical — served scores must round-trip exactly — and, unlike
  // printf's %.17g, it ignores LC_NUMERIC, so a comma-decimal locale
  // cannot turn "0.5" into the invalid JSON "0,5".
  char buf[32];
  const auto conv = std::to_chars(buf, buf + sizeof(buf), d);
  return std::string(buf, conv.ptr);
}

}  // namespace json
}  // namespace emba
