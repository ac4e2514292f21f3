//===- tests/common/IntegerBoundaries.h - Decoder range tables --*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Boundary tables for JSON decoders. JSON numbers are doubles, so every
/// integer member must reject a fraction, a magnitude no integer type
/// holds, and the first value past its own type's range — with an
/// InvalidInput error, never by truncating, wrapping or an undefined cast.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_TESTS_COMMON_INTEGERBOUNDARIES_H
#define STENCILFLOW_TESTS_COMMON_INTEGERBOUNDARIES_H

#include "support/Error.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace stencilflow {
namespace testing {

/// One past the top of each integer type a decoder reads into.
inline constexpr const char *IntOnePast = "2147483648";
inline constexpr const char *Int64OnePast = "9223372036854775808";
inline constexpr const char *UInt64OnePast = "18446744073709551616";

/// One row of a boundary table: a document whose integer member under
/// test is spelled "@", and the value one past that member's range.
struct IntegerMember {
  const char *Document;
  const char *OnePast;
};

/// Decodes every document of \p Rows with "@" replaced by each number an
/// integer member must reject (1.5, 1e300, -1e300 and the row's one-past
/// value) and expects an InvalidInput error for each.
template <typename DecodeFn>
void expectIntegerBoundariesRejected(const std::vector<IntegerMember> &Rows,
                                     DecodeFn Decode) {
  for (const IntegerMember &Row : Rows)
    for (const char *Number : {"1.5", "1e300", "-1e300", Row.OnePast}) {
      std::string Text = replaceAll(Row.Document, "@", Number);
      auto Decoded = Decode(Text);
      EXPECT_FALSE(Decoded) << Text;
      if (!Decoded) {
        EXPECT_EQ(Decoded.code(), ErrorCode::InvalidInput)
            << Text << ": " << Decoded.message();
      }
    }
}

} // namespace testing
} // namespace stencilflow

#endif // STENCILFLOW_TESTS_COMMON_INTEGERBOUNDARIES_H
