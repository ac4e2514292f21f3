//===- support/JsonWriter.cpp - Streaming JSON emitter ------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/JsonWriter.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cmath>

using namespace stencilflow;
using namespace stencilflow::json;

void JsonWriter::escape(std::string_view S, std::string &Out) {
  for (char C : S) {
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
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
}

void JsonWriter::beforeValue() {
  assert((Stack.empty() ? !EmittedValue : true) &&
         "only one top-level value per document");
  if (PendingKey) {
    PendingKey = false;
    return;
  }
  if (!Stack.empty()) {
    assert(Stack.back() == Scope::Array &&
           "object members need a key() first");
    if (HasMembers.back())
      Out += ',';
    HasMembers.back() = true;
  }
}

void JsonWriter::beginObject() {
  beforeValue();
  Out += '{';
  Stack.push_back(Scope::Object);
  HasMembers.push_back(false);
}

void JsonWriter::endObject() {
  assert(!Stack.empty() && Stack.back() == Scope::Object &&
         "endObject without matching beginObject");
  assert(!PendingKey && "dangling key at endObject");
  Out += '}';
  Stack.pop_back();
  HasMembers.pop_back();
  EmittedValue = true;
}

void JsonWriter::beginArray() {
  beforeValue();
  Out += '[';
  Stack.push_back(Scope::Array);
  HasMembers.push_back(false);
}

void JsonWriter::endArray() {
  assert(!Stack.empty() && Stack.back() == Scope::Array &&
         "endArray without matching beginArray");
  Out += ']';
  Stack.pop_back();
  HasMembers.pop_back();
  EmittedValue = true;
}

void JsonWriter::key(std::string_view Key) {
  assert(!Stack.empty() && Stack.back() == Scope::Object &&
         "key() outside an object");
  assert(!PendingKey && "key() twice without a value");
  if (HasMembers.back())
    Out += ',';
  HasMembers.back() = true;
  Out += '"';
  escape(Key, Out);
  Out += "\":";
  PendingKey = true;
}

void JsonWriter::value(std::string_view S) {
  beforeValue();
  Out += '"';
  escape(S, Out);
  Out += '"';
  EmittedValue = true;
}

void JsonWriter::value(double D) {
  beforeValue();
  // Integral doubles print as integers. json::Value serializes numbers
  // and strings through this writer too, so both emit the same text.
  if (std::isfinite(D) && D == std::floor(D) && std::fabs(D) < 1e15)
    Out += formatString("%lld", static_cast<long long>(D));
  else
    Out += formatString("%.17g", D);
  EmittedValue = true;
}

void JsonWriter::value(int64_t I) {
  beforeValue();
  Out += formatString("%lld", static_cast<long long>(I));
  EmittedValue = true;
}

void JsonWriter::value(bool B) {
  beforeValue();
  Out += B ? "true" : "false";
  EmittedValue = true;
}

void JsonWriter::valueNull() {
  beforeValue();
  Out += "null";
  EmittedValue = true;
}
