// Wire codec for tuples crossing simulated server boundaries.
//
// The runtime engine runs every server in one process, but a tuple sent to a
// POI on a *different* server takes the "network" path: it is serialized
// into a flat byte buffer (padding bytes materialized, so the copy cost is
// real), counted against the edge's byte counters, and parsed back on the
// receiving side — the same work a real broker/transport would do, minus the
// kernel.  Same-server tuples are handed over by move, the "address in
// memory" fast path the paper describes.
//
// The *_into forms are the implementation: they reuse the caller's storage,
// so a hot path that keeps its buffers allocates nothing per tuple, and they
// write every output byte, so a reused buffer yields exactly what a fresh
// one would.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "topology/types.hpp"

namespace lar::runtime {

/// Serializes `tuple` into `out` (resized to tuple.serialized_size()):
/// header, fields, then padding as zero bytes.
void encode_tuple_into(const Tuple& tuple, std::vector<std::byte>& out);

/// Parses a buffer produced by encode_tuple_into() into `out`, overwriting
/// its fields and padding (field capacity is reused).
void decode_tuple_into(std::span<const std::byte> bytes, Tuple& out);

/// Allocating conveniences over the *_into forms.
[[nodiscard]] std::vector<std::byte> encode_tuple(const Tuple& tuple);
[[nodiscard]] Tuple decode_tuple(std::span<const std::byte> bytes);

}  // namespace lar::runtime
