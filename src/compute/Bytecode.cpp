//===- compute/Bytecode.cpp - Stencil compute bytecode ----------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "compute/Bytecode.h"

#include <cassert>
#include <cmath>

using namespace stencilflow;
using namespace stencilflow::compute;

double compute::roundToType(double Value, DataType Type) {
  switch (Type) {
  case DataType::Float32:
    return static_cast<double>(static_cast<float>(Value));
  case DataType::Float64:
    return Value;
  case DataType::Int32:
    return static_cast<double>(static_cast<int32_t>(Value));
  case DataType::Int64:
    return static_cast<double>(static_cast<int64_t>(Value));
  }
  return Value;
}

double compute::evalOpUnrounded(OpCode Op, double A, double B, double C) {
  switch (Op) {
  case OpCode::Neg:
    return -A;
  case OpCode::Not:
    return A == 0.0 ? 1.0 : 0.0;
  case OpCode::Add:
    return A + B;
  case OpCode::Sub:
    return A - B;
  case OpCode::Mul:
    return A * B;
  case OpCode::Div:
    return A / B;
  case OpCode::Lt:
    return A < B ? 1.0 : 0.0;
  case OpCode::Le:
    return A <= B ? 1.0 : 0.0;
  case OpCode::Gt:
    return A > B ? 1.0 : 0.0;
  case OpCode::Ge:
    return A >= B ? 1.0 : 0.0;
  case OpCode::Eq:
    return A == B ? 1.0 : 0.0;
  case OpCode::Ne:
    return A != B ? 1.0 : 0.0;
  case OpCode::And:
    return (A != 0.0 && B != 0.0) ? 1.0 : 0.0;
  case OpCode::Or:
    return (A != 0.0 || B != 0.0) ? 1.0 : 0.0;
  case OpCode::Sqrt:
    return std::sqrt(A);
  case OpCode::Abs:
    return std::fabs(A);
  case OpCode::Exp:
    return std::exp(A);
  case OpCode::Log:
    return std::log(A);
  case OpCode::Sin:
    return std::sin(A);
  case OpCode::Cos:
    return std::cos(A);
  case OpCode::Tanh:
    return std::tanh(A);
  case OpCode::Floor:
    return std::floor(A);
  case OpCode::Ceil:
    return std::ceil(A);
  case OpCode::Min:
    return std::fmin(A, B);
  case OpCode::Max:
    return std::fmax(A, B);
  case OpCode::Pow:
    return std::pow(A, B);
  case OpCode::Select:
    return A != 0.0 ? B : C;
  case OpCode::Const:
  case OpCode::Input:
    break;
  }
  assert(false && "evalOpUnrounded on a non-computing opcode");
  return 0.0;
}

std::string_view compute::opCodeName(OpCode Op) {
  switch (Op) {
  case OpCode::Const:
    return "const";
  case OpCode::Input:
    return "input";
  case OpCode::Neg:
    return "neg";
  case OpCode::Not:
    return "not";
  case OpCode::Add:
    return "add";
  case OpCode::Sub:
    return "sub";
  case OpCode::Mul:
    return "mul";
  case OpCode::Div:
    return "div";
  case OpCode::Lt:
    return "lt";
  case OpCode::Le:
    return "le";
  case OpCode::Gt:
    return "gt";
  case OpCode::Ge:
    return "ge";
  case OpCode::Eq:
    return "eq";
  case OpCode::Ne:
    return "ne";
  case OpCode::And:
    return "and";
  case OpCode::Or:
    return "or";
  case OpCode::Sqrt:
    return "sqrt";
  case OpCode::Abs:
    return "abs";
  case OpCode::Exp:
    return "exp";
  case OpCode::Log:
    return "log";
  case OpCode::Sin:
    return "sin";
  case OpCode::Cos:
    return "cos";
  case OpCode::Tanh:
    return "tanh";
  case OpCode::Floor:
    return "floor";
  case OpCode::Ceil:
    return "ceil";
  case OpCode::Min:
    return "min";
  case OpCode::Max:
    return "max";
  case OpCode::Pow:
    return "pow";
  case OpCode::Select:
    return "select";
  }
  return "<invalid>";
}

LatencyTable::LatencyTable() {
  // Conservative defaults modeling hardened fp32 units on a Stratix
  // 10-class device; see Sec. IV-B ("default to conservative values to
  // account for the worst case scenario").
  auto set = [&](OpCode Op, int64_t Cycles) { setLatency(Op, Cycles); };
  set(OpCode::Const, 0);
  set(OpCode::Input, 0);
  set(OpCode::Neg, 1);
  set(OpCode::Not, 1);
  set(OpCode::Add, 4);
  set(OpCode::Sub, 4);
  set(OpCode::Mul, 4);
  set(OpCode::Div, 16);
  set(OpCode::Lt, 2);
  set(OpCode::Le, 2);
  set(OpCode::Gt, 2);
  set(OpCode::Ge, 2);
  set(OpCode::Eq, 2);
  set(OpCode::Ne, 2);
  set(OpCode::And, 1);
  set(OpCode::Or, 1);
  set(OpCode::Sqrt, 18);
  set(OpCode::Abs, 1);
  set(OpCode::Exp, 24);
  set(OpCode::Log, 24);
  set(OpCode::Sin, 30);
  set(OpCode::Cos, 30);
  set(OpCode::Tanh, 30);
  set(OpCode::Floor, 2);
  set(OpCode::Ceil, 2);
  set(OpCode::Min, 2);
  set(OpCode::Max, 2);
  set(OpCode::Pow, 40);
  set(OpCode::Select, 1);
}

OpCensus &OpCensus::operator+=(const OpCensus &Other) {
  Additions += Other.Additions;
  Multiplications += Other.Multiplications;
  Divisions += Other.Divisions;
  SquareRoots += Other.SquareRoots;
  MinMax += Other.MinMax;
  Comparisons += Other.Comparisons;
  Branches += Other.Branches;
  Transcendental += Other.Transcendental;
  this->Other += Other.Other;
  return *this;
}
