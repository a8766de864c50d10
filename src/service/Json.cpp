//===- Json.cpp - Minimal flat JSON for the specaid protocol --------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "service/Json.h"

#include "support/StringUtils.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

using namespace specai;

std::string specai::jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size() + 8);
  for (unsigned char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

void JsonWriter::key(std::string_view Key) {
  if (!First)
    Out += ", ";
  First = false;
  Out += '"';
  Out += jsonEscape(Key);
  Out += "\": ";
}

void JsonWriter::field(std::string_view Key, std::string_view Value) {
  key(Key);
  Out += '"';
  Out += jsonEscape(Value);
  Out += '"';
}

void JsonWriter::field(std::string_view Key, bool Value) {
  key(Key);
  Out += Value ? "true" : "false";
}

void JsonWriter::field(std::string_view Key, int64_t Value) {
  key(Key);
  Out += std::to_string(Value);
}

void JsonWriter::field(std::string_view Key, uint64_t Value) {
  key(Key);
  Out += std::to_string(Value);
}

void JsonWriter::field(std::string_view Key, double Value) {
  key(Key);
  Out += formatDouble(Value, 6);
}

void JsonWriter::hexField(std::string_view Key, uint64_t Value) {
  key(Key);
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "\"0x%016llx\"",
                static_cast<unsigned long long>(Value));
  Out += Buf;
}

void JsonWriter::rawField(std::string_view Key, std::string_view Rendered) {
  key(Key);
  Out += Rendered;
}

std::string specai::jsonArray(const std::vector<std::string> &Rendered) {
  std::string Out = "[";
  for (size_t I = 0; I != Rendered.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Rendered[I];
  }
  Out += "]";
  return Out;
}

bool specai::writeJsonFile(const char *Path, const std::string &Json) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F)
    return false;
  bool Ok = std::fputs(Json.c_str(), F) >= 0 && std::fputc('\n', F) != EOF;
  return std::fclose(F) == 0 && Ok;
}

bool specai::parseHexU64(const std::string &Text, uint64_t &Out) {
  if (Text.size() < 3 || Text[0] != '0' || (Text[1] != 'x' && Text[1] != 'X'))
    return false;
  char *End = nullptr;
  Out = std::strtoull(Text.c_str() + 2, &End, 16);
  return End && *End == '\0';
}

namespace {

/// Cursor over the input with one-token-lookahead helpers. All failures
/// funnel through fail() so the error carries the byte offset.
class Parser {
public:
  Parser(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool parseObject(JsonObject &Out) {
    skipSpace();
    if (!expect('{'))
      return false;
    skipSpace();
    if (peek() == '}') {
      ++Pos;
    } else {
      while (true) {
        std::string Key;
        if (!parseString(Key))
          return false;
        skipSpace();
        if (!expect(':'))
          return false;
        JsonValue V;
        if (!parseValue(V))
          return false;
        if (!Out.emplace(std::move(Key), std::move(V)).second)
          return fail("duplicate key");
        skipSpace();
        if (peek() == ',') {
          ++Pos;
          skipSpace();
          continue;
        }
        if (!expect('}'))
          return false;
        break;
      }
    }
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing content after object");
    return true;
  }

private:
  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool fail(const std::string &What) {
    Error = "json: " + What + " at byte " + std::to_string(Pos);
    return false;
  }

  bool expect(char C) {
    if (peek() != C)
      return fail(std::string("expected '") + C + "'");
    ++Pos;
    return true;
  }

  bool parseValue(JsonValue &Out) {
    skipSpace();
    char C = peek();
    if (C == '"') {
      Out.K = JsonValue::Kind::String;
      return parseString(Out.S);
    }
    if (C == '{' || C == '[')
      return fail("nested values are not part of the flat protocol");
    if (C == 't' || C == 'f') {
      const std::string_view Word = C == 't' ? "true" : "false";
      if (Text.substr(Pos, Word.size()) != Word)
        return fail("malformed literal");
      Pos += Word.size();
      Out.K = JsonValue::Kind::Bool;
      Out.B = C == 't';
      return true;
    }
    if (C == 'n') {
      if (Text.substr(Pos, 4) != "null")
        return fail("malformed literal");
      Pos += 4;
      Out.K = JsonValue::Kind::Null;
      return true;
    }
    return parseNumber(Out);
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    bool IsDouble = false;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (std::isdigit(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == '.' || C == 'e' || C == 'E' || C == '+' || C == '-') {
        IsDouble = true;
        ++Pos;
      } else {
        break;
      }
    }
    if (Pos == Start)
      return fail("expected a value");
    std::string Num(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    if (IsDouble) {
      Out.K = JsonValue::Kind::Double;
      Out.D = std::strtod(Num.c_str(), &End);
    } else {
      Out.K = JsonValue::Kind::Int;
      Out.I = std::strtoll(Num.c_str(), &End, 10);
    }
    if (!End || *End != '\0')
      return fail("malformed number '" + Num + "'");
    return true;
  }

  bool parseString(std::string &Out) {
    skipSpace();
    if (!expect('"'))
      return false;
    Out.clear();
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("malformed \\u escape");
        }
        // The protocol writer only emits \u00XX for control bytes; decode
        // the basic-multilingual-plane code point as UTF-8 for generality.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
  }

  std::string_view Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace

bool specai::parseJsonObject(std::string_view Text, JsonObject &Out,
                             std::string &Error) {
  Out.clear();
  return Parser(Text, Error).parseObject(Out);
}
