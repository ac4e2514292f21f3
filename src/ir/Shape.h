//===- ir/Shape.h - Iteration spaces and access offsets ----------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iteration-space shapes and relative access offsets (paper Sec. II).
///
/// Stencil programs have 1, 2, or 3 dimensions; all stencils iterate over
/// the same iteration space. Memory order is row-major with the *last*
/// dimension innermost, matching the paper's convention of a 3D space
/// {K, J, I} where I is the fastest-varying index. Offsets are linearized
/// in this memory order; the distance between linearized offsets determines
/// internal buffer sizes (Sec. IV-A).
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_IR_SHAPE_H
#define STENCILFLOW_IR_SHAPE_H

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace stencilflow {

/// A relative access offset, e.g. a[0, 1, 0]. Rank matches the field rank,
/// at most \c MaxRank (programs have 1, 2 or 3 dimensions; the parser and
/// loader reject more before any offset is built). The components live
/// inline, so copying or shifting an offset never allocates. It reads like
/// a \c std::vector<int> of its components: comparison is by rank and
/// components, and order is lexicographic, which for offsets of one field
/// is memory order (dimension extents dominate; Sec. IV-A).
class Offset {
public:
  static constexpr size_t MaxRank = 3;

  using value_type = int;
  using iterator = int *;
  using const_iterator = const int *;

  Offset() = default;
  /// \p Rank components, each \p Value.
  Offset(size_t Rank, int Value) : Rank(static_cast<uint8_t>(Rank)) {
    assert(Rank <= MaxRank && "offset rank out of range");
    for (size_t Dim = 0; Dim != Rank; ++Dim)
      Components[Dim] = Value;
  }
  Offset(std::initializer_list<int> Values)
      : Rank(static_cast<uint8_t>(Values.size())) {
    assert(Values.size() <= MaxRank && "offset rank out of range");
    std::copy(Values.begin(), Values.end(), Components);
  }

  size_t size() const { return Rank; }
  bool empty() const { return Rank == 0; }

  int &operator[](size_t Dim) {
    assert(Dim < Rank && "offset component out of range");
    return Components[Dim];
  }
  int operator[](size_t Dim) const {
    assert(Dim < Rank && "offset component out of range");
    return Components[Dim];
  }

  iterator begin() { return Components; }
  iterator end() { return Components + Rank; }
  const_iterator begin() const { return Components; }
  const_iterator end() const { return Components + Rank; }

  /// Appends a component; the rank must stay within \c MaxRank.
  void push_back(int Value) {
    assert(Rank < MaxRank && "offset rank out of range");
    Components[Rank++] = Value;
  }

  /// Components past the rank stay zero, so member-wise equality is
  /// equality of rank and components.
  bool operator==(const Offset &Other) const = default;
  bool operator<(const Offset &Other) const {
    return std::lexicographical_compare(begin(), end(), Other.begin(),
                                        Other.end());
  }

private:
  int Components[MaxRank] = {};
  uint8_t Rank = 0;
};

/// Renders an offset as "[k, j, i]".
std::string offsetToString(const Offset &Off);

/// A (field, offset) pair as a hash key: the field name viewed in place,
/// e.g. in an expression tree, so it must outlive every table that holds
/// the key; the offset is held by value (it is inline).
struct FieldOffsetRef {
  std::string_view Field;
  Offset Off;

  bool operator==(const FieldOffsetRef &Other) const = default;
};

struct FieldOffsetRefHash {
  size_t operator()(const FieldOffsetRef &Ref) const {
    size_t Hash = std::hash<std::string_view>()(Ref.Field);
    for (int Component : Ref.Off)
      Hash = (Hash ^ static_cast<unsigned>(Component)) * 0x100000001b3ull;
    return Hash;
  }
};

/// An iteration space or field shape: extents in memory order, last
/// dimension innermost.
class Shape {
public:
  Shape() = default;
  explicit Shape(std::vector<int64_t> Extents) : Extents(std::move(Extents)) {
    for ([[maybe_unused]] int64_t E : this->Extents)
      assert(E > 0 && "shape extents must be positive");
  }

  /// Number of dimensions (0 for scalars).
  size_t rank() const { return Extents.size(); }

  /// Extent of dimension \p Dim.
  int64_t extent(size_t Dim) const {
    assert(Dim < Extents.size() && "dimension out of range");
    return Extents[Dim];
  }

  const std::vector<int64_t> &extents() const { return Extents; }

  /// Total number of cells (1 for scalars).
  int64_t numCells() const {
    int64_t Total = 1;
    for (int64_t E : Extents)
      Total *= E;
    return Total;
  }

  /// Linearizes a relative \p Off in memory order: for shape {K, J, I},
  /// lin([k, j, i]) = (k*J + j)*I + i. The result can be negative.
  /// The distance between the largest and smallest linearized access of a
  /// field determines its internal buffer size (Sec. IV-A).
  int64_t linearize(const Offset &Off) const {
    assert(Off.size() == Extents.size() && "offset rank mismatch");
    int64_t Linear = 0;
    for (size_t Dim = 0; Dim != Extents.size(); ++Dim)
      Linear = Linear * Extents[Dim] + Off[Dim];
    return Linear;
  }

  /// Linearizes an absolute index (all entries within bounds).
  int64_t linearizeIndex(const std::vector<int64_t> &Index) const {
    assert(Index.size() == Extents.size() && "index rank mismatch");
    int64_t Linear = 0;
    for (size_t Dim = 0; Dim != Extents.size(); ++Dim) {
      assert(Index[Dim] >= 0 && Index[Dim] < Extents[Dim] &&
             "index out of bounds");
      Linear = Linear * Extents[Dim] + Index[Dim];
    }
    return Linear;
  }

  /// Converts a linear cell number back to a multi-dimensional index.
  std::vector<int64_t> delinearize(int64_t Linear) const {
    std::vector<int64_t> Index(Extents.size());
    for (size_t Dim = Extents.size(); Dim-- > 0;) {
      Index[Dim] = Linear % Extents[Dim];
      Linear /= Extents[Dim];
    }
    return Index;
  }

  bool operator==(const Shape &Other) const = default;

  /// Renders as "128x128x80".
  std::string toString() const;

private:
  std::vector<int64_t> Extents;
};

} // namespace stencilflow

#endif // STENCILFLOW_IR_SHAPE_H
