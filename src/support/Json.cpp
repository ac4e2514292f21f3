//===- support/Json.cpp - Minimal JSON parser and writer ------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/StringUtils.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace stencilflow;
using namespace stencilflow::json;

//===----------------------------------------------------------------------===//
// Object
//===----------------------------------------------------------------------===//

Object &Object::operator=(const Object &Other) {
  if (this == &Other)
    return *this;
  Members.clear();
  Members.reserve(Other.Members.size());
  for (const auto &[Name, Val] : Other.Members)
    Members.emplace_back(Name, std::make_unique<Value>(*Val));
  return *this;
}

const Value *Object::get(std::string_view Key) const {
  for (const auto &[Name, Val] : Members)
    if (Name == Key)
      return Val.get();
  return nullptr;
}

Value *Object::get(std::string_view Key) {
  for (auto &[Name, Val] : Members)
    if (Name == Key)
      return Val.get();
  return nullptr;
}

void Object::set(std::string Key, Value Val) {
  if (Value *Existing = get(Key)) {
    *Existing = std::move(Val);
    return;
  }
  Members.emplace_back(std::move(Key),
                       std::make_unique<Value>(std::move(Val)));
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

void json::appendString(std::string &Out, std::string_view S) {
  Out += '"';
  // Runs of characters that need no escape are copied in one append.
  size_t Plain = 0;
  for (size_t I = 0, E = S.size(); I != E; ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Plain, I - Plain);
    Plain = I + 1;
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
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default: {
      char Escape[8];
      std::snprintf(Escape, sizeof(Escape), "\\u%04x", C);
      Out += Escape;
    }
    }
  }
  Out.append(S.data() + Plain, S.size() - Plain);
  Out += '"';
}

void json::appendNumber(std::string &Out, double D) {
  // Integral doubles print as integers; the rest with the 17 significant
  // digits that make every double survive its own text.
  char Text[32];
  std::to_chars_result Printed =
      std::isfinite(D) && D == std::floor(D) && std::fabs(D) < 1e15
          ? std::to_chars(Text, Text + sizeof(Text),
                          static_cast<long long>(D))
          : std::to_chars(Text, Text + sizeof(Text), D,
                          std::chars_format::general, 17);
  Out.append(Text, Printed.ptr);
}

namespace {

void serialize(std::string &Out, const Value &V, int Indent, int Depth) {
  auto newline = [&](int D) {
    if (Indent < 0)
      return;
    Out += '\n';
    Out.append(static_cast<size_t>(Indent * D), ' ');
  };
  switch (V.kind()) {
  case ValueKind::Null:
    Out += "null";
    return;
  case ValueKind::Boolean:
    Out += V.getBoolean() ? "true" : "false";
    return;
  case ValueKind::Number:
    appendNumber(Out, V.getNumber());
    return;
  case ValueKind::String:
    appendString(Out, V.getString());
    return;
  case ValueKind::Array: {
    const auto &Elements = V.getArray();
    if (Elements.empty()) {
      Out += "[]";
      return;
    }
    Out += '[';
    for (size_t I = 0, E = Elements.size(); I != E; ++I) {
      if (I != 0)
        Out += ',';
      newline(Depth + 1);
      serialize(Out, Elements[I], Indent, Depth + 1);
    }
    newline(Depth);
    Out += ']';
    return;
  }
  case ValueKind::Object: {
    const Object &Obj = V.getObject();
    if (Obj.empty()) {
      Out += "{}";
      return;
    }
    Out += '{';
    bool First = true;
    for (const auto &[Key, Member] : Obj) {
      if (!First)
        Out += ',';
      First = false;
      newline(Depth + 1);
      appendString(Out, Key);
      Out += Indent < 0 ? ":" : ": ";
      serialize(Out, *Member, Indent, Depth + 1);
    }
    newline(Depth);
    Out += '}';
    return;
  }
  }
}

} // namespace

std::string Value::toString() const {
  std::string Out;
  serialize(Out, *this, /*Indent=*/-1, /*Depth=*/0);
  return Out;
}

std::string Value::toPrettyString(unsigned Indent) const {
  std::string Out;
  serialize(Out, *this, static_cast<int>(Indent), /*Depth=*/0);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

/// Recursive-descent JSON parser with line/column error reporting.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  Expected<Value> run() {
    skipWhitespace();
    Expected<Value> Result = parseValue();
    if (!Result)
      return Result;
    skipWhitespace();
    if (Pos != Text.size())
      return error("trailing characters after JSON value");
    return Result;
  }

private:
  std::string_view Text;
  size_t Pos = 0;

  Error error(const std::string &Message) const {
    unsigned Line = 1, Column = 1;
    for (size_t I = 0; I < Pos && I < Text.size(); ++I) {
      if (Text[I] == '\n') {
        ++Line;
        Column = 1;
      } else {
        ++Column;
      }
    }
    return makeError(formatString("%u:%u: %s", Line, Column, Message.c_str()));
  }

  bool atEnd() const { return Pos >= Text.size(); }
  char peek() const { return atEnd() ? '\0' : Text[Pos]; }

  void skipWhitespace() {
    while (!atEnd()) {
      char C = Text[Pos];
      if (C == ' ' || C == '\t' || C == '\n' || C == '\r') {
        ++Pos;
        continue;
      }
      // Allow // line comments as an extension: program descriptions are
      // hand-written, and comments make them far more maintainable.
      if (C == '/' && Pos + 1 < Text.size() && Text[Pos + 1] == '/') {
        while (!atEnd() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      return;
    }
  }

  bool consume(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }

  Expected<Value> parseValue() {
    if (atEnd())
      return error("unexpected end of input");
    switch (peek()) {
    case '{':
      return parseObject();
    case '[':
      return parseArray();
    case '"':
      return parseString();
    case 't':
    case 'f':
      return parseBoolean();
    case 'n':
      return parseNull();
    default:
      return parseNumber();
    }
  }

  Expected<Value> parseLiteral(std::string_view Literal, Value Result) {
    if (Text.substr(Pos, Literal.size()) != Literal)
      return error(formatString("expected '%.*s'",
                                static_cast<int>(Literal.size()),
                                Literal.data()));
    Pos += Literal.size();
    return Result;
  }

  Expected<Value> parseNull() { return parseLiteral("null", Value(nullptr)); }

  Expected<Value> parseBoolean() {
    if (peek() == 't')
      return parseLiteral("true", Value(true));
    return parseLiteral("false", Value(false));
  }

  Expected<Value> parseNumber() {
    size_t Start = Pos;
    if (consume('-')) {
    }
    while (!atEnd() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                        peek() == '.' || peek() == 'e' || peek() == 'E' ||
                        peek() == '+' || peek() == '-'))
      ++Pos;
    if (Pos == Start)
      return error("expected a JSON value");
    std::string Token(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    double D = std::strtod(Token.c_str(), &End);
    if (End != Token.c_str() + Token.size())
      return error(formatString("invalid number '%s'", Token.c_str()));
    return Value(D);
  }

  Expected<Value> parseString() {
    std::string Result;
    if (Error Err = parseStringInto(Result))
      return Err;
    return Value(std::move(Result));
  }

  Error parseStringInto(std::string &Result) {
    if (!consume('"'))
      return error("expected '\"'");
    while (true) {
      if (atEnd())
        return error("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return Error::success();
      if (C != '\\') {
        Result += C;
        continue;
      }
      if (atEnd())
        return error("unterminated escape sequence");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Result += '"';
        break;
      case '\\':
        Result += '\\';
        break;
      case '/':
        Result += '/';
        break;
      case 'b':
        Result += '\b';
        break;
      case 'f':
        Result += '\f';
        break;
      case 'n':
        Result += '\n';
        break;
      case 'r':
        Result += '\r';
        break;
      case 't':
        Result += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return error("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return error("invalid \\u escape");
        }
        // Encode as UTF-8 (basic multilingual plane only).
        if (Code < 0x80) {
          Result += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Result += static_cast<char>(0xC0 | (Code >> 6));
          Result += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Result += static_cast<char>(0xE0 | (Code >> 12));
          Result += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Result += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return error(formatString("invalid escape '\\%c'", E));
      }
    }
  }

  Expected<Value> parseArray() {
    consume('[');
    std::vector<Value> Elements;
    skipWhitespace();
    if (consume(']'))
      return Value(std::move(Elements));
    while (true) {
      skipWhitespace();
      Expected<Value> Element = parseValue();
      if (!Element)
        return Element;
      Elements.push_back(Element.takeValue());
      skipWhitespace();
      if (consume(']'))
        return Value(std::move(Elements));
      if (!consume(','))
        return error("expected ',' or ']' in array");
    }
  }

  Expected<Value> parseObject() {
    consume('{');
    Object Obj;
    skipWhitespace();
    if (consume('}'))
      return Value(std::move(Obj));
    while (true) {
      skipWhitespace();
      std::string Key;
      if (Error Err = parseStringInto(Key))
        return Err;
      skipWhitespace();
      if (!consume(':'))
        return error("expected ':' after object key");
      skipWhitespace();
      Expected<Value> Member = parseValue();
      if (!Member)
        return Member;
      Obj.set(std::move(Key), Member.takeValue());
      skipWhitespace();
      if (consume('}'))
        return Value(std::move(Obj));
      if (!consume(','))
        return error("expected ',' or '}' in object");
    }
  }
};

} // namespace

Expected<Value> json::parse(std::string_view Text) {
  return Parser(Text).run();
}

Expected<Value> json::parseFile(const std::string &Path) {
  std::ifstream Stream(Path);
  if (!Stream)
    return makeError("cannot open file '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  Expected<Value> Result = parse(Buffer.str());
  if (!Result)
    return Result.takeError().addContext(Path);
  return Result;
}

//===----------------------------------------------------------------------===//
// Typed member readers
//===----------------------------------------------------------------------===//

Error json::memberError(std::string_view Key, const std::string &What) {
  return makeError(ErrorCode::InvalidInput,
                   "'" + std::string(Key) + "' must be " + What);
}

Error json::readMembers(
    const Object &O,
    std::initializer_list<std::pair<std::string_view, MemberOut>> Members) {
  for (const auto &Member : Members)
    if (Error Err = std::visit(
            [&](auto *Out) { return readMember(O, Member.first, *Out); },
            Member.second))
      return Err;
  return Error::success();
}

namespace {

/// \p Digits, an optional "0x" and hex digits, as a uint64; nullopt when
/// malformed or wider than 64 bits.
std::optional<uint64_t> parseHex(std::string_view Digits) {
  if (startsWith(Digits, "0x") || startsWith(Digits, "0X"))
    Digits.remove_prefix(2);
  const char *End = Digits.data() + Digits.size();
  uint64_t Parsed = 0;
  auto [Stop, Ec] = std::from_chars(Digits.data(), End, Parsed, 16);
  if (Digits.empty() || Ec != std::errc() || Stop != End)
    return std::nullopt;
  return Parsed;
}

} // namespace

Error json::readHexMember(const Object &O, std::string_view Key,
                          uint64_t &Out) {
  const Value *V = O.get(Key);
  if (!V)
    return Error::success();
  if (!V->isString())
    return memberError(Key, "a string");
  std::optional<uint64_t> Parsed = parseHex(V->getString());
  if (!Parsed)
    return memberError(Key, "a 64-bit hex string");
  Out = *Parsed;
  return Error::success();
}

json::Value json::uint64ToJson(uint64_t V) {
  if (V <= (uint64_t(1) << 53))
    return Value(static_cast<double>(V));
  return Value(formatString("0x%" PRIx64, V));
}

Error json::readUInt64Member(const Object &O, std::string_view Key,
                             uint64_t &Out) {
  const Value *V = O.get(Key);
  if (V && V->isString())
    return readHexMember(O, Key, Out);
  return readMember(O, Key, Out);
}

json::Value json::int64ToJson(int64_t V) {
  // The magnitude as uint64: -INT64_MIN does not fit an int64.
  uint64_t Magnitude =
      V < 0 ? uint64_t(0) - static_cast<uint64_t>(V) : static_cast<uint64_t>(V);
  if (Magnitude <= (uint64_t(1) << 53))
    return Value(static_cast<double>(V));
  return Value(formatString("%s0x%" PRIx64, V < 0 ? "-" : "", Magnitude));
}

Error json::readInt64Member(const Object &O, std::string_view Key,
                            int64_t &Out) {
  const Value *V = O.get(Key);
  if (!V || !V->isString())
    return readMember(O, Key, Out);
  std::string_view Text = V->getString();
  bool Negative = startsWith(Text, "-");
  if (Negative)
    Text.remove_prefix(1);
  std::optional<uint64_t> Magnitude = parseHex(Text);
  // INT64_MIN's magnitude is one more than INT64_MAX.
  uint64_t Limit =
      uint64_t(std::numeric_limits<int64_t>::max()) + (Negative ? 1 : 0);
  if (!Magnitude || *Magnitude > Limit)
    return memberError(Key, "a signed 64-bit hex string");
  Out = Negative ? static_cast<int64_t>(uint64_t(0) - *Magnitude)
                 : static_cast<int64_t>(*Magnitude);
  return Error::success();
}
