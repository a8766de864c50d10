//===- Json.h - Minimal flat JSON for the specaid protocol ------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately tiny JSON subset for the specaid wire protocol
/// (docs/SERVICE.md): one *flat* object per line, values restricted to
/// strings, integers, doubles, booleans, and null. Nested objects and
/// arrays are rejected — the protocol never needs them, and a parser that
/// cannot recurse cannot be driven into deep-nesting resource exhaustion
/// by a hostile client. Strings round-trip arbitrary bytes: the writer
/// escapes control characters (so multi-line program source fits on one
/// request line) and the parser understands the standard \uXXXX escapes.
///
/// The writer is also the one JSON writer of the tools and benches. Their
/// records may nest: JsonWriter::rawField embeds a finished object or a
/// jsonArray. Such a record is not a protocol line, and the parser
/// rejects it.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_SERVICE_JSON_H
#define SPECAI_SERVICE_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace specai {

/// One parsed scalar value of a flat JSON object.
struct JsonValue {
  enum class Kind { Null, Bool, Int, Double, String };
  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  double D = 0;
  std::string S;

  /// Convenience coercions (a JSON int also reads as double).
  bool asBool(bool Default) const { return K == Kind::Bool ? B : Default; }
  int64_t asInt(int64_t Default) const {
    return K == Kind::Int ? I : Default;
  }
  double asDouble(double Default) const {
    if (K == Kind::Double)
      return D;
    if (K == Kind::Int)
      return static_cast<double>(I);
    return Default;
  }
  const std::string &asString(const std::string &Default) const {
    return K == Kind::String ? S : Default;
  }
};

/// Key -> value map of one flat object. std::map keeps iteration order
/// deterministic, which keeps re-serialized objects byte-stable.
using JsonObject = std::map<std::string, JsonValue>;

/// JSON string escaping of \p Text (quotes not included).
std::string jsonEscape(std::string_view Text);

/// Incremental writer for one flat JSON object on a single line.
class JsonWriter {
public:
  JsonWriter() : Out("{") {}

  void field(std::string_view Key, std::string_view Value);
  void field(std::string_view Key, const char *Value) {
    field(Key, std::string_view(Value));
  }
  void field(std::string_view Key, bool Value);
  void field(std::string_view Key, int64_t Value);
  void field(std::string_view Key, uint64_t Value);
  void field(std::string_view Key, double Value);
  /// 0x-prefixed fixed-width hex rendering, used for 64-bit digests (a
  /// JSON number could not hold them losslessly).
  void hexField(std::string_view Key, uint64_t Value);
  /// Embeds \p Rendered verbatim: a finished JsonWriter object or a
  /// jsonArray. Never used on protocol lines, which stay flat.
  void rawField(std::string_view Key, std::string_view Rendered);

  /// Closes the object and returns it. The writer is spent afterwards.
  std::string finish() {
    Out += "}";
    return std::move(Out);
  }

private:
  void key(std::string_view Key);

  std::string Out;
  bool First = true;
};

/// Renders already-rendered values (numbers, finished objects) as one
/// JSON array.
std::string jsonArray(const std::vector<std::string> &Rendered);

/// Writes \p Json and a newline to \p Path. Returns false on I/O failure.
bool writeJsonFile(const char *Path, const std::string &Json);

/// Parses one flat JSON object from \p Text into \p Out. Returns false and
/// fills \p Error on malformed input, nested values, duplicate keys, or
/// trailing garbage. \p Out is cleared first.
bool parseJsonObject(std::string_view Text, JsonObject &Out,
                     std::string &Error);

/// Parses a "0x..." hex rendering produced by JsonWriter::hexField.
/// Returns false on anything else.
bool parseHexU64(const std::string &Text, uint64_t &Out);

} // namespace specai

#endif // SPECAI_SERVICE_JSON_H
