//===- support/Json.h - Minimal JSON parser and writer ----------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, self-contained JSON implementation used for the StencilFlow
/// program-description format (paper Sec. II, Lst. 1).
///
/// Objects preserve insertion order so that emitted program descriptions are
/// deterministic and diffable. Parsing reports errors with line and column
/// information. No exceptions are used.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SUPPORT_JSON_H
#define STENCILFLOW_SUPPORT_JSON_H

#include "support/Error.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace stencilflow {
namespace json {

class Value;

/// An ordered JSON object: preserves insertion order on iteration while
/// providing O(log n) lookup by key.
class Object {
public:
  Object() = default;
  Object(Object &&) = default;
  Object &operator=(Object &&) = default;
  /// Deep copy (members are held by pointer for stable addresses).
  Object(const Object &Other) { *this = Other; }
  Object &operator=(const Object &Other);

  /// Returns the value for \p Key, or nullptr if absent.
  const Value *get(std::string_view Key) const;
  Value *get(std::string_view Key);

  /// Inserts or overwrites the value for \p Key.
  void set(std::string Key, Value Val);

  /// Returns true if \p Key is present.
  bool contains(std::string_view Key) const { return get(Key) != nullptr; }

  /// Number of members.
  size_t size() const { return Members.size(); }
  bool empty() const { return Members.empty(); }

  /// Iteration in insertion order.
  auto begin() const { return Members.begin(); }
  auto end() const { return Members.end(); }

private:
  std::vector<std::pair<std::string, std::unique_ptr<Value>>> Members;
};

/// Discriminates the type held by a \c Value.
enum class ValueKind { Null, Boolean, Number, String, Array, Object };

/// A JSON value: null, boolean, number, string, array, or object.
class Value {
public:
  Value() : Storage(std::monostate()) {}
  Value(std::nullptr_t) : Storage(std::monostate()) {}
  Value(bool B) : Storage(B) {}
  Value(double D) : Storage(D) {}
  Value(int I) : Storage(static_cast<double>(I)) {}
  Value(int64_t I) : Storage(static_cast<double>(I)) {}
  Value(size_t I) : Storage(static_cast<double>(I)) {}
  Value(std::string S) : Storage(std::move(S)) {}
  Value(const char *S) : Storage(std::string(S)) {}
  Value(std::vector<Value> A) : Storage(std::move(A)) {}
  Value(Object O) : Storage(std::move(O)) {}

  /// Returns the kind of the contained value.
  ValueKind kind() const {
    return static_cast<ValueKind>(Storage.index());
  }

  bool isNull() const { return kind() == ValueKind::Null; }
  bool isBoolean() const { return kind() == ValueKind::Boolean; }
  bool isNumber() const { return kind() == ValueKind::Number; }
  bool isString() const { return kind() == ValueKind::String; }
  bool isArray() const { return kind() == ValueKind::Array; }
  bool isObject() const { return kind() == ValueKind::Object; }

  /// Typed accessors; must only be called when the kind matches.
  bool getBoolean() const { return std::get<bool>(Storage); }
  double getNumber() const { return std::get<double>(Storage); }
  const std::string &getString() const { return std::get<std::string>(Storage); }
  const std::vector<Value> &getArray() const {
    return std::get<std::vector<Value>>(Storage);
  }
  std::vector<Value> &getArray() { return std::get<std::vector<Value>>(Storage); }
  const Object &getObject() const { return std::get<Object>(Storage); }
  Object &getObject() { return std::get<Object>(Storage); }

  /// Serializes this value to compact JSON text.
  std::string toString() const;

  /// Serializes this value to indented, human-readable JSON text.
  std::string toPrettyString(unsigned Indent = 2) const;

private:
  std::variant<std::monostate, bool, double, std::string, std::vector<Value>,
               Object>
      Storage;
};

/// The scalar printers behind \c Value::toString, for emitters too large
/// to build as one tree (the Chrome trace): appends \p S as a quoted,
/// escaped JSON string, and \p D as a JSON number (integral doubles as
/// integers, the rest with 17 significant digits).
void appendString(std::string &Out, std::string_view S);
void appendNumber(std::string &Out, double D);

/// The one checked number-to-integer conversion. JSON numbers are doubles:
/// \p D converts only when it is integral and inside \p Int's range, so a
/// fraction, an infinity, NaN or an out-of-range magnitude is nullopt,
/// never a truncated, wrapped or undefined cast.
template <typename Int> std::optional<Int> toInteger(double D) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>,
                "toInteger converts to an integer type");
  // Int's limits as doubles, both exact: min() is 0 or -2^k, and the
  // exclusive upper bound max() + 1 is 2^k.
  constexpr double Lo = static_cast<double>(std::numeric_limits<Int>::min());
  constexpr double Hi =
      2.0 * static_cast<double>(std::numeric_limits<Int>::max() / 2 + 1);
  if (!(D >= Lo && D < Hi) || std::trunc(D) != D)
    return std::nullopt;
  return static_cast<Int>(D);
}

/// "'Key' must be <What>", an InvalidInput error.
Error memberError(std::string_view Key, const std::string &What);

/// The one reader of an optional typed member \p Key of \p O; every
/// decoder reads through it. An absent member leaves \p Out untouched. A
/// present member of the wrong type is an InvalidInput error ("'key' must
/// be a number"), and so is a number an integer \p Out cannot hold
/// exactly ("'key' must be an integer in [min, max]").
template <typename T>
Error readMember(const Object &O, std::string_view Key, T &Out) {
  const Value *V = O.get(Key);
  if (!V)
    return Error::success();
  if constexpr (std::is_same_v<T, bool>) {
    if (!V->isBoolean())
      return memberError(Key, "a boolean");
    Out = V->getBoolean();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!V->isString())
      return memberError(Key, "a string");
    Out = V->getString();
  } else {
    static_assert(std::is_arithmetic_v<T>, "unsupported member type");
    if (!V->isNumber())
      return memberError(Key, "a number");
    if constexpr (std::is_integral_v<T>) {
      std::optional<T> I = toInteger<T>(V->getNumber());
      if (!I)
        return memberError(
            Key, "an integer in [" +
                     std::to_string(std::numeric_limits<T>::min()) + ", " +
                     std::to_string(std::numeric_limits<T>::max()) + "]");
      Out = *I;
    } else {
      Out = V->getNumber();
    }
  }
  return Error::success();
}

/// The destination of one member in a \c readMembers list.
using MemberOut =
    std::variant<bool *, int *, int64_t *, uint64_t *, double *, std::string *>;

/// Reads each listed member with \c readMember, in order, and returns the
/// first error.
Error readMembers(
    const Object &O,
    std::initializer_list<std::pair<std::string_view, MemberOut>> Members);

/// Reads a 64-bit member carried as hex text because a double cannot hold
/// it (CRCs, seeds): an optional "0x" and hex digits, else an error.
Error readHexMember(const Object &O, std::string_view Key, uint64_t &Out);

/// A 64-bit value (a seed) as JSON that survives its own round trip: a
/// number when a double holds it exactly (up to 2^53), else "0x..." hex
/// text.
Value uint64ToJson(uint64_t V);

/// Reads a member written by \c uint64ToJson: a number, read as
/// \c readMember reads a uint64_t, or hex text, read as \c readHexMember
/// reads it.
Error readUInt64Member(const Object &O, std::string_view Key, uint64_t &Out);

/// Parses JSON text. Errors include 1-based line:column positions.
Expected<Value> parse(std::string_view Text);

/// Reads and parses a JSON file from disk.
Expected<Value> parseFile(const std::string &Path);

} // namespace json
} // namespace stencilflow

#endif // STENCILFLOW_SUPPORT_JSON_H
