#include "runtime/codec.hpp"

#include <cstring>

namespace lar::runtime {

namespace {
constexpr std::size_t kHeader = 16;  // matches Tuple::serialized_size()
}

void encode_tuple_into(const Tuple& tuple, std::vector<std::byte>& out) {
  const std::size_t field_bytes = tuple.fields.size() * sizeof(Key);
  out.resize(tuple.serialized_size());
  std::uint64_t nfields = tuple.fields.size();
  std::uint64_t padding = tuple.padding;
  std::memcpy(out.data(), &nfields, 8);
  std::memcpy(out.data() + 8, &padding, 8);
  // An empty field vector may have a null data(), which memcpy must not see.
  if (field_bytes != 0) {
    std::memcpy(out.data() + kHeader, tuple.fields.data(), field_bytes);
  }
  // The payload content does not matter, its copy cost does: zero it
  // explicitly, because a reused buffer still holds the previous tuple.
  std::memset(out.data() + kHeader + field_bytes, 0, tuple.padding);
}

void decode_tuple_into(std::span<const std::byte> bytes, Tuple& out) {
  LAR_CHECK(bytes.size() >= kHeader);
  std::uint64_t nfields = 0;
  std::uint64_t padding = 0;
  std::memcpy(&nfields, bytes.data(), 8);
  std::memcpy(&padding, bytes.data() + 8, 8);
  LAR_CHECK(bytes.size() >= kHeader + nfields * sizeof(Key));
  out.padding = static_cast<std::uint32_t>(padding);
  out.fields.resize(nfields);
  if (nfields != 0) {
    std::memcpy(out.fields.data(), bytes.data() + kHeader,
                nfields * sizeof(Key));
  }
}

std::vector<std::byte> encode_tuple(const Tuple& tuple) {
  std::vector<std::byte> out;
  encode_tuple_into(tuple, out);
  return out;
}

Tuple decode_tuple(std::span<const std::byte> bytes) {
  Tuple t;
  decode_tuple_into(bytes, t);
  return t;
}

}  // namespace lar::runtime
