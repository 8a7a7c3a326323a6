// Minimal JSON writer for the benchmark's machine-readable output: numbers
// keep every digit (%.17g) and non-finite values become null, so a reader
// can tell "not measured" from a real zero.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace perfbench {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    separate();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& number(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    }
    return *this;
  }

  JsonWriter& boolean(bool v) {
    separate();
    out_ += v ? "true" : "false";
    return *this;
  }

  JsonWriter& string(std::string_view s) {
    separate();
    quote(s);
    return *this;
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  JsonWriter& open(char c) {
    separate();
    out_ += c;
    first_ = true;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) out_ += ',';
    first_ = false;
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

}  // namespace perfbench
